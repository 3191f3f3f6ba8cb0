"""Scattering-potential descriptions and their transverse Fourier transforms.

Potentials are small frozen dataclasses with closed-form transforms.  The
transverse transform is vt(x, q) = int dy e^{-iqy} v(x, y); potentials that
are independent of y have vt proportional to 2 pi delta(q), which is kept
symbolic (see uniform_part) and never sampled.

Each leaf class answers for itself: `kind` is its document tag, `role` is
"singular" (a delta(x) or delta(z) factor), "layered" (y-independent) or
"smooth" (separable and samplable), and `span()` is its numeric x-support.
The module-level questions read them through _leaves, the one place that
raises TypeError on what is not a potential.  Documents hold `kind`, then
the fields in order as decimal strings ({re, im}, {x, y}): exact round trips.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import combinations

import numpy as np

from .errors import finite, positive

# Gaussian tails are truncated at this many sigmas when computing the
# numeric x-support window; the neglected tail is below 1e-14 of the peak.
GAUSSIAN_SUPPORT_SIGMAS = 8.0

# A field's `type` is its annotation as a string (`from __future__ import
# annotations`): _PAIR and the _CODECS keys must match the annotations as written.
_PAIR = "tuple[float, float]"


class _Record:
    """Base of the parameter records, the leaves and closedforms' SlabParams.
    Its one check raises ValueError naming the first field that is not a
    tuple of two real numbers where a pair is due, is not finite, or, for a
    thickness, widths or k, is not positive."""

    def __post_init__(self):
        for f in fields(self):
            name, value = f"{type(self).__name__} {f.name}", getattr(self, f.name)
            if f.type == _PAIR and not (type(value) is tuple and np.shape(value) == (2,)
                                        and np.asarray(value).dtype.kind in "iuf"):
                raise ValueError(f"{name} must be a tuple of two real numbers, got {value!r}")
            (positive if f.name in ("thickness", "widths", "k") else finite)(name, value)


class _Leaf(_Record):
    """Base of the leaf potentials, whose classes set `kind` and `role`; a leaf
    with x-extent overrides span(), a point at the origin."""

    def span(self) -> tuple[float, float]:
        return (0.0, 0.0)


@dataclass(frozen=True)
class Delta2D(_Leaf):
    """Point potential strength * delta(x) delta(y) (a thin wire along z)."""

    kind, role = "delta2d", "singular"
    strength: complex


@dataclass(frozen=True)
class Slab(_Leaf):
    """Homogeneous layer of relative permittivity epsilon on 0 <= x <= thickness.

    The potential value is k^2 (1 - epsilon), so it depends on the wavenumber
    of the field probing it.  Reused with z as the propagation axis in 3D.
    """

    kind, role = "slab", "layered"
    epsilon: complex
    thickness: float

    def span(self) -> tuple[float, float]:
        return (0.0, self.thickness)


@dataclass(frozen=True)
class SlabWithDefect(_Leaf):
    """Slab on [0, thickness] with a line defect of coupling `strength` at x = y = 0."""

    kind, role = "slab_with_defect", "singular"
    epsilon: complex
    thickness: float
    strength: complex

    def span(self) -> tuple[float, float]:
        return (0.0, self.thickness)


@dataclass(frozen=True)
class GaussianBump(_Leaf):
    """Separable Gaussian v(x,y) = amplitude exp(-(x-x0)^2/2sx^2) exp(-(y-y0)^2/2sy^2)."""

    kind, role = "gaussian_bump", "smooth"
    amplitude: complex
    center: tuple[float, float] = (0.0, 0.0)
    widths: tuple[float, float] = (1.0, 1.0)

    def span(self) -> tuple[float, float]:
        half = GAUSSIAN_SUPPORT_SIGMAS * self.widths[0]
        return (self.center[0] - half, self.center[0] + half)

    def profile(self, x):
        """x-factor of the transverse transform, exp(-(x - x0)^2 / 2 sx^2), at x
        or at each of an array of positions."""
        sx = self.widths[0]
        return np.exp(-((x - self.center[0]) ** 2) / (2 * sx * sx))

    def transform_y(self, q) -> np.ndarray:
        """q-factor of the transverse transform, so vt(x, q) = profile(x) transform_y(q)."""
        y0, sy = self.center[1], self.widths[1]
        q = np.asarray(q, dtype=float)
        return (self.amplitude * np.sqrt(2 * np.pi) * sy
                * np.exp(-(sy * sy) * q * q / 2 - 1j * q * y0))


@dataclass(frozen=True)
class Delta3D(_Leaf):
    """Point potential strength * delta(x) delta(y) delta(z)."""

    kind, role = "delta3d", "singular"
    strength: complex


@dataclass(frozen=True)
class SumPotential:
    """Sum of potentials whose x-supports overlap at most at endpoints.

    Slabs are exempt among themselves: layers add where they overlap, so a
    sum of slabs is a layered stack.
    """

    kind = "sum"
    members: tuple

    def __post_init__(self):
        if type(self.members) is not tuple or not self.members:
            raise ValueError("SumPotential members must be a nonempty tuple, "
                             f"got {self.members!r}")
        for m in self.members:
            if isinstance(m, (SumPotential, Delta3D)):
                raise ValueError(f"sum members of type {type(m).__name__} are not supported")
        spans = sorted((m.span(), m.role == "layered") for m in _leaves(self))
        for ((a0, a1), a_slab), ((b0, b1), b_slab) in combinations(spans, 2):
            if not (a_slab and b_slab) and b0 < a1 - 1e-12 * max(1.0, abs(a1)):
                raise ValueError(
                    f"member x-supports overlap: [{a0}, {a1}] and [{b0}, {b1}]")


def _leaves(pot, role: str | None = None) -> list:
    """The leaves of pot (a sum's members, or pot itself), only those of the
    given role if one is named; TypeError on anything that is not a potential."""
    out = []
    for m in pot.members if isinstance(pot, SumPotential) else (pot,):
        if not isinstance(m, _Leaf):
            raise TypeError(f"{type(m).__name__} is not a potential")
        if role is None or m.role == role:
            out.append(m)
    return out


def x_support(pot) -> tuple[float, float]:
    """Numeric x-support interval of a potential (Gaussian tails truncated)."""
    spans = [m.span() for m in _leaves(pot)]
    return (min(a for a, _ in spans), max(b for _, b in spans))


def is_x_singular(pot) -> bool:
    """True if the potential carries a delta(x) (or delta(z)) factor."""
    return bool(_leaves(pot, "singular"))


def is_y_independent(pot) -> bool:
    return all(m.role == "layered" for m in _leaves(pot))


def is_real(pot) -> bool:
    """True if the potential is real (lossless): every complex field of every
    leaf has imaginary part exactly 0, however small a nonzero one."""
    return all(complex(getattr(m, f.name)).imag == 0
               for m in _leaves(pot) for f in fields(m) if f.type == "complex")


def discontinuities(pot) -> tuple[float, ...]:
    """x locations where the potential jumps (layer edges)."""
    return tuple(sorted({x for m in _leaves(pot, "layered") for x in m.span()}))


def uniform_part(pot, x, k: float):
    """Value of the y-independent component at x (zero when there is none), or
    the array of its values at an array of positions."""
    x = np.asarray(x)
    out = np.zeros(x.shape, dtype=complex)
    for m in _leaves(pot, "layered"):
        a, b = m.span()
        np.add(out, k * k * (1 - m.epsilon), out=out, where=(a <= x) & (x <= b))
    return out[()]


def has_uniform_part(pot) -> bool:
    return bool(_leaves(pot, "layered"))


def smooth_members(pot) -> list:
    """Members with an ordinary (samplable) transverse transform.

    Each is separable, vt(x, q) = member.profile(x) * member.transform_y(q).
    """
    return _leaves(pot, "smooth")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _enc_real(x) -> str:
    return repr(float(x))


def _enc_complex(z) -> dict:
    z = complex(z)
    return {"re": _enc_real(z.real), "im": _enc_real(z.imag)}


def _dec_real(s) -> float:
    return finite("value", float(s))


def _dec_complex(d) -> complex:
    return complex(_dec_real(d["re"]), _dec_real(d["im"]))


def _field(doc: dict, key: str, decode=_dec_real):
    """doc[key] read by a document decoder; ValueError naming the key."""
    try:
        return decode(doc[key])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"missing or malformed field {key!r}: {exc}") from exc


# (encoder, decoder) by field annotation; a sum's members are a list of documents
_CODECS = {
    "complex": (_enc_complex, _dec_complex),
    "float": (_enc_real, _dec_real),
    _PAIR: (lambda p: {"x": _enc_real(p[0]), "y": _enc_real(p[1])},
            lambda d: (_dec_real(d["x"]), _dec_real(d["y"]))),
    "tuple": (lambda ms: [potential_to_document(m) for m in ms],
              lambda ds: tuple(potential_from_document(d) for d in ds)),
}
_KINDS = {c.kind: c for c in (Delta2D, Delta3D, Slab, SlabWithDefect, GaussianBump, SumPotential)}


def potential_to_document(pot) -> dict:
    """Encode a potential as a key-value tree (all numbers as decimal strings)."""
    _leaves(pot)  # TypeError unless pot is a potential
    return {"kind": pot.kind,
            **{f.name: _CODECS[f.type][0](getattr(pot, f.name)) for f in fields(pot)}}


def potential_from_document(doc: dict):
    """Inverse of potential_to_document.

    Raises ValueError, naming the kind and the field, on malformed input,
    non-finite numbers included.
    """
    try:
        kind = doc["kind"]
    except (TypeError, KeyError):
        raise ValueError("potential document lacks a 'kind' discriminator")
    if type(kind) is not str or kind not in _KINDS:
        raise ValueError(f"unknown potential kind {kind!r}")
    try:
        return _KINDS[kind](**{f.name: _field(doc, f.name, _CODECS[f.type][1])
                               for f in fields(_KINDS[kind])})
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed {kind!r} potential document: {exc}") from exc
