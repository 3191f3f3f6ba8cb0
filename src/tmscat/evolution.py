"""Numeric transfer operators by position-ordered evolution in x.

The coefficient pair of a wave obeys a two-level evolution equation in x
whose generator couples the channels through the potential's transverse
transform:

    H_ab(x; p_j, p_l) = s_a * e^{-i s_a omega_j x} V(x)_{jl} e^{i s_b omega_l x}
                        / (2 omega_j),        s_1 = +1, s_2 = -1,

with V the Nystrom matrix of the transverse transform (plain-measure
quadrature weights folded into the columns).  Integrating dU/dx = -i H U
across the potential's support with U = identity on the left yields the
transfer operator; the evolution is exactly the identity wherever the
potential vanishes, since H is exactly zero there.

The coherent beam at p = 0 is evolved alongside the grid: the two extra
columns carry the response of the smooth channels to a unit beam in either
component, which becomes the kernel's last column, and the y-independent
part of the potential (which maps beams to beams) drives a separate
per-channel 2x2 evolution that becomes the operator's multiplication part,
tabulated on the grid channels and at p = 0.
A potential with no y-dependent member has a generator that is diagonal
per channel, so only that 2x2 evolution runs and the operator carries no
kernel.  On a 3D DiscGrid (x is then the layer axis z) only such layered
potentials evolve, on at most MAX_CHANNELS_3D channels; evolve_transfer
itself refuses any other input.

The RK4 never forms H.  The minus rows of H U are -e^{2i omega x} times
its plus rows, and the beam enters like one more channel, at frequency k.
So the state is kept as its plus rows A and minus rows B on the N + 1
channels, and each stage applies H as one product, T (P A + B) with
P = e^{2i omega x} (_stage_tables); the second and third stages share one
product (_rk4).  Every smooth member is separable, vt(x, q) =
profile(x) transform_y(q), so its transverse matrices (the Nystrom matrix
and the beam-source column) are built once per evolution and scaled by the
profiles and the phases at each stage point.  With the y-independent part
alone T is diagonal, and the same RK4 runs on elementwise products.
effective_hamiltonian and potential_kernel assemble the dense generator as
the reference the factored form is tested against.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (AccuracyWarning, DivergenceError, ResourceLimitError,
                     UnsupportedEvaluationError)
from .grid import DiscGrid, MomentumGrid
from .operators import TransferOperator, channel_omegas, unit_mult
from .potentials import (discontinuities, fourier_y, has_uniform_part, is_x_singular,
                         is_y_independent, smooth_members, uniform_part, x_support)

# 3D evolution is bounded to desk scale; stacked layers never need more channels
MAX_CHANNELS_3D = 128


@dataclass(frozen=True)
class EvolutionConfig:
    """Integration window and step count for the fixed-step RK4 scheme.

    check_tolerance, when set, re-runs the evolution at half the steps and
    emits an AccuracyWarning if any operator entry moves by more than it; a
    non-finite bound or tolerance raises ValueError.
    """

    x_min: float
    x_max: float
    steps: int
    check_tolerance: float | None = None

    def __post_init__(self):
        for name in ("x_min", "x_max"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be below x_max")
        if not float(self.steps).is_integer() or self.steps < 1:
            raise ValueError(f"steps must be an integer >= 1, got {self.steps}")
        object.__setattr__(self, "steps", int(self.steps))
        if self.check_tolerance is not None and not np.isfinite(self.check_tolerance):
            raise ValueError(f"check_tolerance must be finite, got {self.check_tolerance}")


def auto_config(pot, steps: int, check_tolerance: float | None = None) -> EvolutionConfig:
    """Config whose window covers the potential's numeric x-support."""
    a, b = x_support(pot)
    if not a < b:
        raise UnsupportedEvaluationError("potential has no extended x-support to integrate")
    return EvolutionConfig(x_min=a, x_max=b, steps=steps, check_tolerance=check_tolerance)


def potential_kernel(pot, x: float, grid: MomentumGrid) -> np.ndarray:
    """Nystrom matrix of the transverse-transform operator at position x.

    Entry (j, l) is vt(x, p_j - p_l) grid.measure[l]; y-independent
    potentials contribute their value times the identity.  Point potentials
    (delta in x) are not representable here and raise; their operators have
    closed forms.
    """
    if is_x_singular(pot):
        raise UnsupportedEvaluationError(
            f"{type(pot).__name__} is singular in x; use its closed-form operator")
    n = grid.size
    out = np.zeros((n, n), dtype=complex)
    u = uniform_part(pot, x, grid.k)
    if u != 0:
        out[np.diag_indices(n)] = u
    for member in smooth_members(pot):
        q = grid.nodes[:, None] - grid.nodes[None, :]
        vt = fourier_y(member, x, q)
        out = out + vt * grid.measure[None, :]
    return out


def _assemble_blocks(v: np.ndarray, x: float, omegas: np.ndarray) -> np.ndarray:
    dp = np.exp(1j * omegas * x)
    dm = dp.conj()
    pref = 0.5 / omegas
    blocks = np.empty((2, 2, omegas.size, omegas.size), dtype=complex)
    blocks[0, 0] = (pref * dm)[:, None] * v * dp[None, :]
    blocks[0, 1] = (pref * dm)[:, None] * v * dm[None, :]
    blocks[1, 0] = -(pref * dp)[:, None] * v * dp[None, :]
    blocks[1, 1] = -(pref * dp)[:, None] * v * dm[None, :]
    return blocks


def effective_hamiltonian(pot, x: float, grid: MomentumGrid) -> np.ndarray:
    """Evolution generator on the grid at position x, as (2, 2, N, N) blocks.

    Vanishes identically wherever the potential does.
    """
    return _assemble_blocks(potential_kernel(pot, x, grid), x, grid.omegas)


def _stage_tables(pot, grid, members):
    """(xs, scale) -> (t_at, P, apply): the generator at the points xs, as
    t_at(i) = T at xs[i] and one row of P per point.

    On the C = S + 1 channels (the grid's, then the beam's at frequency k),
    with P = e^{2i omega x}, the plus rows of H U are T (P A + B) and the
    minus rows -P times those, where A and B are the plus and minus rows of
    U and

        T = diag(e^{-i omega x} / 2 omega) (sum_m profile_m(x) S_m + u(x) I)
            diag(e^{-i omega x}),

    times scale.  S_m is the member's transverse transform at p_j - p_l with
    grid.measure (w_l omega_l / 2 pi) folded into its columns, and at
    p_j (the beam source) in its last column; its beam row is zero, since
    nothing maps smooth channels back into the beam.  The S_m are built once
    here.  With no members T is diagonal: t_at(i) is its column, applied by
    np.multiply; otherwise t_at(i) builds the matrix for np.matmul.
    """
    omegas = channel_omegas(grid)
    c, k = omegas.size, grid.k
    uniform = has_uniform_part(pot)
    if members:
        n = grid.size
        sources = np.zeros((len(members) + uniform, c, c), dtype=complex)
        q = grid.nodes[:, None] - grid.nodes[None, :]
        for source, member in zip(sources, members):
            source[:n, :n] = member.transform_y(q) * grid.measure
            source[:n, n] = member.transform_y(grid.nodes)
        if uniform:
            sources[-1] = np.eye(c)     # u(x) I, weighted like a member's profile
        sources = sources.reshape(len(sources), -1)

    def tables(xs, scale):
        phase = np.exp(1j * np.multiply.outer(xs, omegas))
        minus = phase.conj()
        rows = (scale[:, None] * (0.5 / omegas)) * minus
        u = uniform_part(pot, xs, k)
        if not members:
            return (u[:, None] * rows * minus)[..., None].__getitem__, phase * phase, np.multiply
        weights = np.stack([m.profile(xs) for m in members] + ([u] if uniform else []), axis=1)

        def t_at(i):
            t = np.dot(weights[i], sources).reshape(c, c)
            t *= np.multiply.outer(rows[i], minus[i])
            return t

        return t_at, phase * phase, np.matmul

    return tables


def _rk4(tables, y: np.ndarray, x_min: float, x_max: float, steps: int,
         breaks=()) -> np.ndarray:
    """Classical fixed-step RK4 for dU/dx = -i H(x) U on the half state y = (A, B).

    The window is split at the interior breakpoints (known discontinuities of
    H); stage evaluations are clamped a hair inside each piece, so pointwise
    sampling never straddles a jump and the scheme keeps its fourth order for
    piecewise-smooth generators.  T carries -i h / 6 (-i h / 3 at midpoints),
    so a stage's product k = T z is its A increment over 6 (both of the
    midpoint's over 3), and its B increment is -P k.  The input of the third
    stage has z = P_m A + B exactly and that of the second differs from it
    by 3 (P_m - P_l) k1, so the two run as one product on [z2 | z3].  Where
    T vanishes A and B stay exactly as they are.  Updates y in place.
    """
    edges = [x_min] + sorted(b for b in set(breaks) if x_min < b < x_max) + [x_max]
    a, b = y
    c, m = a.shape
    z, k1, k4, s, w = (np.empty((c, m), dtype=complex) for _ in range(5))     # z: z1, then z4
    z23, k23 = np.empty((c, 2 * m), dtype=complex), np.empty((c, 2 * m), dtype=complex)
    z2, z3, k3 = z23[:, :m], z23[:, m:], k23[:, m:]
    # overflow is tolerated here: callers check finiteness and raise
    with np.errstate(over="ignore", invalid="ignore"):
        for p0, p1 in zip(edges, edges[1:]):
            n = max(1, round(steps * (p1 - p0) / (x_max - x_min)))
            h = (p1 - p0) / n
            nudge = (p1 - p0) * 1e-9
            left = p0 + np.arange(n) * h
            xs = np.empty(2 * n + 1)
            xs[0], xs[1::2], xs[2::2] = p0, left + h / 2, left + h
            scale = np.full(2 * n + 1, -1j * h / 6)
            scale[1::2] *= 2
            t_at, p, apply = tables(np.clip(xs, p0 + nudge, p1 - nudge), scale)
            p = p[:, :, None]
            dm, dr = 3 * (p[1::2] - p[:-1:2]), 3 * (p[2::2] - p[1::2])
            t_right = t_at(0)
            for i in range(n):
                pl, pm, pr = p[2 * i], p[2 * i + 1], p[2 * i + 2]
                np.multiply(pl, a, out=z)
                z += b
                apply(t_right, z, out=k1)
                np.multiply(pm, a, out=z3)
                z3 += b
                np.multiply(dm[i], k1, out=z2)
                z2 += z3
                apply(t_at(2 * i + 1), z23, out=k23)
                t_right = t_at(2 * i + 2)
                np.multiply(pr, a, out=z)
                z += b
                np.multiply(dr[i], k3, out=w)
                z += w
                apply(t_right, z, out=k4)
                np.add(k23[:, :m], k3, out=s)
                a += k1
                a += s
                a += k4
                np.multiply(pl, k1, out=w)
                b -= w
                np.multiply(pm, s, out=w)
                b -= w
                np.multiply(pr, k4, out=w)
                b -= w
    return y


def _evolution(pot, grid, members):
    """cfg -> the half state evolved from the identity: plus and minus rows of
    the C channels, columns (plus, minus) x (C channels, or one per channel
    without members, whose generator is diagonal)."""
    tables = _stage_tables(pot, grid, members)
    c = grid.size + 1
    eye = np.eye(c) if members else np.ones((c, 1))

    def evolve(cfg: EvolutionConfig) -> np.ndarray:
        y = np.zeros((2, c, 2, eye.shape[1]), dtype=complex)
        y[0, :, 0] = y[1, :, 1] = eye
        return _rk4(tables, y.reshape(2, c, -1), cfg.x_min, cfg.x_max, cfg.steps,
                     breaks=discontinuities(pot))

    return evolve


def _checked(evolve, cfg: EvolutionConfig) -> np.ndarray:
    """evolve(cfg), refused when non-finite and, with check_tolerance set,
    compared with evolve at half the steps."""
    u = evolve(cfg)
    if not np.all(np.isfinite(u)):
        raise DivergenceError("evolution produced non-finite values")
    if cfg.check_tolerance is not None and cfg.steps >= 2:
        half = EvolutionConfig(cfg.x_min, cfg.x_max, cfg.steps // 2)
        delta = float(np.max(np.abs(u - evolve(half))))
        if delta > cfg.check_tolerance:
            warnings.warn(AccuracyWarning(op="evolve_transfer", steps=cfg.steps,
                                          delta=delta), stacklevel=3)
    return u


def evolve_transfer(pot, grid: MomentumGrid | DiscGrid, cfg: EvolutionConfig) -> TransferOperator:
    """Transfer operator of the potential truncated to the config window.

    The full transfer operator requires the window to cover the potential's
    numeric x-support (see auto_config); a partial window yields the
    operator of the restriction, suitable for composition.

    Zero potential gives exactly the identity, and a y-independent one a
    purely multiplicative operator (kernel None).  On a DiscGrid any other
    potential raises UnsupportedEvaluationError, and more than
    MAX_CHANNELS_3D channels ResourceLimitError.  Non-finite values raise
    DivergenceError; with check_tolerance set, a step-halving comparison
    emits AccuracyWarning when the result is not converged.
    """
    if isinstance(grid, DiscGrid):
        if not is_y_independent(pot):
            raise UnsupportedEvaluationError(
                "3D numeric evolution supports transverse-uniform layered potentials only")
        if grid.size > MAX_CHANNELS_3D:
            raise ResourceLimitError(
                f"grid has {grid.size} channels; 3D evolution is capped at {MAX_CHANNELS_3D}")
    if is_x_singular(pot):
        raise UnsupportedEvaluationError(
            f"{type(pot).__name__} is singular in x; use its closed-form operator")
    members = smooth_members(pot)
    channels = _evolution(pot, grid, [])
    if not members:
        mult = _checked(channels, cfg).transpose(0, 2, 1)
        return TransferOperator(grid=grid, mult=mult, kernel=None)

    n = grid.size
    y = _checked(_evolution(pot, grid, members), cfg)
    mult = channels(cfg).transpose(0, 2, 1) if has_uniform_part(pot) else unit_mult(grid)

    # grid rows of both halves; columns (plus, minus) x (grid channels, beam)
    kernel = y[:, :n].reshape(2, n, 2, n + 1).transpose(0, 2, 1, 3)
    idx = np.arange(n)
    kernel[:, :, idx, idx] -= mult[:, :, :n]
    return TransferOperator(grid=grid, mult=mult, kernel=kernel if kernel.any() else None)


def evolve_transfer_3d(pot, grid: DiscGrid, z_min: float, z_max: float,
                       steps: int) -> TransferOperator:
    """evolve_transfer of a layered potential over [z_min, z_max] on a DiscGrid."""
    return evolve_transfer(pot, grid, EvolutionConfig(z_min, z_max, steps))
