"""Independent cross-checks: 1D transfer matrices, first Born order, convergence.

These routines deliberately share no code with the 2D/3D engines so they can
serve as oracles for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, finite, integer, positive
from .potentials import GaussianBump, Slab, SumPotential


@dataclass(frozen=True)
class Transfer1D:
    """2x2 transfer matrix of a 1D potential at wavenumber k.

    det(matrix) = 1 up to integrator error for any potential, real or
    complex (the generator is traceless).
    """

    matrix: np.ndarray
    k: float

    @property
    def det(self) -> complex:
        m = self.matrix
        return complex(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


def transfer_1d(v, support: tuple[float, float], k: float, steps: int = 4000,
                breakpoints=()) -> Transfer1D:
    """Integrate the 1D coefficient evolution across the support of v.

    v is a callable x -> complex, compactly supported on the declared
    interval.  The generator is

        H(x) = (v(x) / 2k) [[1, e^{-2ikx}], [-e^{2ikx}, -1]],

    and U' = -i H U is stepped with classical RK4 from the left edge.  Pass
    the locations of jumps of v as breakpoints: the stepping then splits
    there and samples each piece one-sidedly, which keeps the fourth order
    for piecewise-smooth potentials.  ValueError unless the support is a
    finite nonempty interval, k positive and steps an integer >= 1.
    """
    a, b = finite("support", support)
    if not a < b:
        raise ValueError("support must be a nonempty interval")
    positive("k", k)
    steps = integer("steps", steps, 1)

    def hmat(x: float) -> np.ndarray:
        val = v(x) / (2 * k)
        e = np.exp(2j * k * x)
        return np.array([[val, val / e], [-val * e, -val]], dtype=complex)

    u = np.eye(2, dtype=complex)
    edges = [a] + sorted(p for p in set(breakpoints) if a < p < b) + [b]
    for p0, p1 in zip(edges, edges[1:]):
        n = max(1, round(steps * (p1 - p0) / (b - a)))
        h = (p1 - p0) / n
        nudge = (p1 - p0) * 1e-9
        lo, hi = p0 + nudge, p1 - nudge

        def at(x: float) -> np.ndarray:
            return hmat(min(max(x, lo), hi))

        h_left = at(p0)
        for i in range(n):
            x = p0 + i * h
            h_mid = at(x + h / 2)
            h_right = at(x + h)
            k1 = -1j * (h_left @ u)
            k2 = -1j * (h_mid @ (u + (h / 2) * k1))
            k3 = -1j * (h_mid @ (u + (h / 2) * k2))
            k4 = -1j * (h_right @ (u + h * k3))
            u = u + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            h_left = h_right
    if not np.all(np.isfinite(u)):
        raise DivergenceError("1D evolution produced non-finite values")
    return Transfer1D(matrix=u, k=float(k))


def born1_transfer(pot, k: float, p: float) -> tuple[complex, complex]:
    """First-order (Born) outgoing amplitudes at channel momentum p.

    For a localized smooth potential the first-order truncation of the
    evolution acting on an incident beam gives

        T+(p) = -(i / 2 omega) V2(omega - k, p),
        T-(p) = -(i / 2 omega) V2(-(omega + k), p),

    where V2 is the full 2D Fourier transform of the potential and
    omega = sqrt(k^2 - p^2): the transform is taken at the momentum
    transferred to the outgoing direction (+-omega, p).

    For a transverse-uniform slab the channels decouple and the same
    truncation yields the per-channel coefficients

        T+(p) = -(i / 2 omega) zt L,
        T-(p) = -zt (e^{2 i omega L} - 1) / (2 omega)^2,

    which at p = 0 are the coefficients of the coherent beam.  Exactly
    linear in the potential amplitude by construction.  ValueError unless k
    is positive and p inside (-k, k), where omega is real and positive.
    """
    k, p = positive("k", k), finite("p", p)
    if not abs(p) < k:
        raise ValueError(f"p must be inside (-k, k), got {p!r}")
    omega = math.sqrt(k * k - p * p)
    if isinstance(pot, GaussianBump):
        return (_born_gaussian(pot, omega - k, p, omega),
                _born_gaussian(pot, -(omega + k), p, omega))
    if isinstance(pot, Slab):
        zt = k * k * (1 - pot.epsilon)
        length = pot.thickness
        t_plus = -(0.5j / omega) * zt * length
        t_minus = -zt * (np.exp(2j * omega * length) - 1.0) / (2 * omega) ** 2
        return (complex(t_plus), complex(t_minus))
    if isinstance(pot, SumPotential):
        parts = [born1_transfer(m, k, p) for m in pot.members]
        return (sum(t for t, _ in parts), sum(t for _, t in parts))
    raise ValueError(f"first Born order is not defined for {type(pot).__name__}")


def _born_gaussian(pot: GaussianBump, qx: float, qy: float, omega: float) -> complex:
    x0, y0 = pot.center
    sx, sy = pot.widths
    v2 = (pot.amplitude * 2 * np.pi * sx * sy
          * np.exp(-sx * sx * qx * qx / 2 - sy * sy * qy * qy / 2)
          * np.exp(-1j * (qx * x0 + qy * y0)))
    return complex(-(0.5j / omega) * v2)


@dataclass(frozen=True)
class ConvergenceReport:
    """Values of fn over increasing sizes with successive deltas and rates."""

    sizes: tuple
    values: tuple
    deltas: tuple
    orders: tuple
    estimated_order: float | None

    def __str__(self) -> str:
        lines = [f"{'size':>10}  {'value':>24}  {'delta':>12}  {'order':>8}"]
        for i, (s, v) in enumerate(zip(self.sizes, self.values)):
            d = f"{self.deltas[i - 1]:.4e}" if i >= 1 else ""
            o = f"{self.orders[i - 2]:.2f}" if i >= 2 and self.orders[i - 2] is not None else ""
            lines.append(f"{s:>10}  {v!s:>24}  {d:>12}  {o:>8}")
        tail = ("order undefined (stagnant deltas)" if self.estimated_order is None
                else f"estimated order: {self.estimated_order:.2f}")
        lines.append(tail)
        return "\n".join(lines)


def convergence_report(fn, sizes) -> ConvergenceReport:
    """Tabulate fn over increasing sizes and estimate the convergence order.

    Successive deltas d_i = |fn(s_{i+1}) - fn(s_i)| are fitted pairwise to
    d ~ C s^{-q}; zero deltas leave the order undefined.  Each size must be
    an integer >= 1.
    """
    sizes = [integer("size", s, 1) for s in sizes]
    if sorted(sizes) != sizes or len(set(sizes)) != len(sizes):
        raise ValueError("sizes must be strictly increasing")
    if len(sizes) < 2:
        raise ValueError("need at least two sizes")
    values = [fn(s) for s in sizes]
    deltas = [float(abs(values[i + 1] - values[i])) for i in range(len(values) - 1)]
    orders = []
    for i in range(len(deltas) - 1):
        if deltas[i] > 0 and deltas[i + 1] > 0:
            orders.append(math.log(deltas[i] / deltas[i + 1])
                          / math.log(sizes[i + 1] / sizes[i]))
        else:
            orders.append(None)
    defined = [o for o in orders if o is not None]
    estimated = float(np.median(defined)) if defined else None
    return ConvergenceReport(sizes=tuple(sizes), values=tuple(values),
                             deltas=tuple(deltas), orders=tuple(orders),
                             estimated_order=estimated)
