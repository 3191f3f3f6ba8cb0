"""Scattering-potential descriptions and their transverse Fourier transforms.

Potentials are small frozen dataclasses with closed-form transforms.  The
transverse transform is vt(x, q) = int dy e^{-iqy} v(x, y); potentials that
are independent of y have vt proportional to 2 pi delta(q), which is kept
symbolic (see uniform_part) and never sampled.

The serialization format is a key-value tree with a `kind` discriminator;
every numeric field is a decimal string and complex numbers are {re, im}
pairs, so documents round-trip exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedEvaluationError

# Gaussian tails are truncated at this many sigmas when computing the
# numeric x-support window; the neglected tail is below 1e-14 of the peak.
GAUSSIAN_SUPPORT_SIGMAS = 8.0


@dataclass(frozen=True)
class Delta2D:
    """Point potential strength * delta(x) delta(y) (a thin wire along z)."""

    strength: complex


@dataclass(frozen=True)
class Slab:
    """Homogeneous layer of relative permittivity epsilon on 0 <= x <= thickness.

    The potential value is k^2 (1 - epsilon), so it depends on the wavenumber
    of the field probing it.  Reused with z as the propagation axis in 3D.
    """

    epsilon: complex
    thickness: float

    def __post_init__(self):
        if not self.thickness > 0:
            raise ValueError("slab thickness must be positive")


@dataclass(frozen=True)
class SlabWithDefect:
    """Slab on [0, thickness] with a line defect of coupling `strength` at x = y = 0."""

    epsilon: complex
    thickness: float
    strength: complex

    def __post_init__(self):
        if not self.thickness > 0:
            raise ValueError("slab thickness must be positive")


@dataclass(frozen=True)
class GaussianBump:
    """Separable Gaussian v(x,y) = amplitude exp(-(x-x0)^2/2sx^2) exp(-(y-y0)^2/2sy^2)."""

    amplitude: complex
    center: tuple[float, float] = (0.0, 0.0)
    widths: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        sx, sy = self.widths
        if not (sx > 0 and sy > 0):
            raise ValueError("gaussian widths must be positive")

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
class Delta3D:
    """Point potential strength * delta(x) delta(y) delta(z)."""

    strength: complex


@dataclass(frozen=True)
class SumPotential:
    """Sum of potentials whose x-supports overlap at most at endpoints."""

    members: tuple

    def __post_init__(self):
        if len(self.members) == 0:
            raise ValueError("sum potential needs at least one member")
        for m in self.members:
            if isinstance(m, (SumPotential, Delta3D)):
                raise ValueError(f"sum members of type {type(m).__name__} are not supported")
        spans = sorted(x_support(m) for m in self.members)
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            if b0 < a1 - 1e-12 * max(1.0, abs(a1)):
                raise ValueError(
                    f"member x-supports overlap: [{a0}, {a1}] and [{b0}, {b1}]")


def _leaves(pot) -> tuple:
    """A sum's members, or the potential itself: sums do not nest."""
    return pot.members if isinstance(pot, SumPotential) else (pot,)


def x_support(pot) -> tuple[float, float]:
    """Numeric x-support interval of a potential (Gaussian tails truncated)."""
    spans = []
    for m in _leaves(pot):
        if isinstance(m, Delta2D):
            spans.append((0.0, 0.0))
        elif isinstance(m, (Slab, SlabWithDefect)):
            spans.append((0.0, m.thickness))
        elif isinstance(m, GaussianBump):
            half = GAUSSIAN_SUPPORT_SIGMAS * m.widths[0]
            spans.append((m.center[0] - half, m.center[0] + half))
        else:
            raise TypeError(f"no x-support for {type(m).__name__}")
    return (min(a for a, _ in spans), max(b for _, b in spans))


def is_x_singular(pot) -> bool:
    """True if the potential carries a delta(x) (or delta(z)) factor."""
    return any(isinstance(m, (Delta2D, Delta3D, SlabWithDefect)) for m in _leaves(pot))


def is_y_independent(pot) -> bool:
    return all(isinstance(m, Slab) for m in _leaves(pot))


def discontinuities(pot) -> tuple[float, ...]:
    """x locations where the potential jumps (layer edges)."""
    return tuple(sorted({x for m in _leaves(pot) if isinstance(m, Slab)
                         for x in (0.0, m.thickness)}))


def fourier_y(pot, x: float, q) -> complex | np.ndarray:
    """Transverse transform vt(x, q) = int dy e^{-iqy} v(x, y).

    Only potentials whose transform is an ordinary function of q can be
    sampled; y-independent potentials carry a symbolic 2 pi delta(q) factor
    and x-singular ones a delta(x) factor, and both raise
    UnsupportedEvaluationError.
    """
    if isinstance(pot, GaussianBump):
        vals = pot.profile(x) * pot.transform_y(q)
        return vals if vals.ndim else complex(vals)
    if isinstance(pot, SumPotential):
        return sum(fourier_y(m, x, q) for m in pot.members)
    if isinstance(pot, Slab):
        raise UnsupportedEvaluationError(
            "slab transform is 2 pi delta(q) * k^2 (1 - epsilon); use uniform_part")
    if isinstance(pot, (Delta2D, Delta3D, SlabWithDefect)):
        raise UnsupportedEvaluationError(
            f"{type(pot).__name__} carries a symbolic delta factor and cannot be sampled")
    raise TypeError(f"no transverse transform for {type(pot).__name__}")


def uniform_part(pot, x, k: float):
    """Value of the y-independent component at x (zero when there is none), or
    the array of its values at an array of positions."""
    out = np.zeros(np.shape(x), dtype=complex)[()]
    for m in _leaves(pot):
        if isinstance(m, Slab):
            out = out + np.where((0.0 <= x) & (x <= m.thickness), k * k * (1 - m.epsilon), 0.0j)
    return out


def has_uniform_part(pot) -> bool:
    return any(isinstance(m, Slab) for m in _leaves(pot))


def smooth_members(pot) -> list:
    """Members with an ordinary (samplable) transverse transform.

    Each is separable, vt(x, q) = member.profile(x) * member.transform_y(q).
    """
    return [m for m in _leaves(pot) if isinstance(m, GaussianBump)]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _enc_real(x) -> str:
    return repr(float(x))


def _enc_complex(z) -> dict:
    z = complex(z)
    return {"re": _enc_real(z.real), "im": _enc_real(z.imag)}


def _dec_real(s) -> float:
    x = float(s)
    if not math.isfinite(x):
        raise ValueError(f"value {s!r} is not finite")
    return x


def _dec_complex(d) -> complex:
    return complex(_dec_real(d["re"]), _dec_real(d["im"]))


def potential_to_document(pot) -> dict:
    """Encode a potential as a key-value tree (all numbers as decimal strings)."""
    if isinstance(pot, Delta2D):
        return {"kind": "delta2d", "strength": _enc_complex(pot.strength)}
    if isinstance(pot, Delta3D):
        return {"kind": "delta3d", "strength": _enc_complex(pot.strength)}
    if isinstance(pot, Slab):
        return {"kind": "slab", "epsilon": _enc_complex(pot.epsilon),
                "thickness": _enc_real(pot.thickness)}
    if isinstance(pot, SlabWithDefect):
        return {"kind": "slab_with_defect", "epsilon": _enc_complex(pot.epsilon),
                "thickness": _enc_real(pot.thickness),
                "strength": _enc_complex(pot.strength)}
    if isinstance(pot, GaussianBump):
        return {"kind": "gaussian_bump", "amplitude": _enc_complex(pot.amplitude),
                "center": {"x": _enc_real(pot.center[0]), "y": _enc_real(pot.center[1])},
                "widths": {"x": _enc_real(pot.widths[0]), "y": _enc_real(pot.widths[1])}}
    if isinstance(pot, SumPotential):
        return {"kind": "sum", "members": [potential_to_document(m) for m in pot.members]}
    raise TypeError(f"cannot serialize {type(pot).__name__}")


def potential_from_document(doc: dict):
    """Inverse of potential_to_document.

    Raises ValueError, naming the kind, on malformed input, non-finite
    numbers included.
    """
    try:
        kind = doc["kind"]
    except (TypeError, KeyError):
        raise ValueError("potential document lacks a 'kind' discriminator")
    try:
        if kind == "delta2d":
            return Delta2D(strength=_dec_complex(doc["strength"]))
        if kind == "delta3d":
            return Delta3D(strength=_dec_complex(doc["strength"]))
        if kind == "slab":
            return Slab(epsilon=_dec_complex(doc["epsilon"]),
                        thickness=_dec_real(doc["thickness"]))
        if kind == "slab_with_defect":
            return SlabWithDefect(epsilon=_dec_complex(doc["epsilon"]),
                                  thickness=_dec_real(doc["thickness"]),
                                  strength=_dec_complex(doc["strength"]))
        if kind == "gaussian_bump":
            return GaussianBump(amplitude=_dec_complex(doc["amplitude"]),
                                center=(_dec_real(doc["center"]["x"]),
                                        _dec_real(doc["center"]["y"])),
                                widths=(_dec_real(doc["widths"]["x"]),
                                        _dec_real(doc["widths"]["y"])))
        if kind == "sum":
            return SumPotential(members=tuple(potential_from_document(m)
                                              for m in doc["members"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed {kind!r} potential document: {exc}") from exc
    raise ValueError(f"unknown potential kind {kind!r}")


def potential_to_json(pot, **kwargs) -> str:
    return json.dumps(potential_to_document(pot), **kwargs)


def potential_from_json(text: str):
    return potential_from_document(json.loads(text))
