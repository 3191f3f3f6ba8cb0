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
product (_rk4_step).  Every smooth member is separable, vt(x, q) =
profile(x) transform_y(q), so its transverse matrices (the Nystrom matrix
and the beam-source column) are built once per evolution and scaled by the
profiles and the phases at each stage point.  With the y-independent part
alone T is diagonal: every channel is then a 1D problem whose 2x2
transfer matrix is the product of its steps' matrices.  So a layered piece
advances by blocks of at most BLOCK steps: one batched RK4 step on
elementwise products evolves the identity through every step of a block at
once, and the block's per-channel 2x2 maps are multiplied pairwise and
applied to the state.  The dense path stays one step after another,
since its stage products are flop-bound and batching them measured no
faster (figures in _rk4).  Both paths run the one RK4 step of
_rk4_step.  effective_hamiltonian and potential_kernel assemble the dense
generator as the reference the factored form is tested against.
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
# most steps a layered piece advances per batched call (_advance_by_blocks)
BLOCK = 64


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


def _check_representable(pot, grid) -> None:
    """Refuse, with UnsupportedEvaluationError, what the generator cannot
    hold: a potential that is not y-independent on a DiscGrid, and any
    potential singular in x."""
    if isinstance(grid, DiscGrid) and not is_y_independent(pot):
        raise UnsupportedEvaluationError(
            "3D numeric evolution supports transverse-uniform layered potentials only")
    if is_x_singular(pot):
        raise UnsupportedEvaluationError(
            f"{type(pot).__name__} is singular in x; use its closed-form operator")


def potential_kernel(pot, x: float, grid: MomentumGrid | DiscGrid) -> np.ndarray:
    """Nystrom matrix of the transverse-transform operator at position x.

    Entry (j, l) is vt(x, p_j - p_l) grid.measure[l]; y-independent
    potentials contribute their value times the identity.  Point potentials
    (delta in x) are not representable here and raise; their operators have
    closed forms.  On a DiscGrid only y-independent potentials are
    representable; any other raises UnsupportedEvaluationError.
    """
    _check_representable(pot, grid)
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
    """(xs, scale) -> (t, P): the generator at the points xs, and one row of
    P per point.

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
    here.  With no members T is diagonal, and t is the array of its columns,
    one (C, 1) column per point, applied by np.multiply; otherwise t(i)
    builds the matrix at xs[i], applied by np.matmul.
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
            return (u[:, None] * rows * minus)[..., None], phase * phase
        weights = np.stack([m.profile(xs) for m in members] + ([u] if uniform else []), axis=1)

        def t_at(i):
            t = np.dot(weights[i], sources).reshape(c, c)
            t *= np.multiply.outer(rows[i], minus[i])
            return t

        return t_at, phase * phase

    return tables


def _rk4(tables, y: np.ndarray, x_min: float, x_max: float, steps: int,
         breaks=()) -> np.ndarray:
    """Classical fixed-step RK4 for dU/dx = -i H(x) U on the half state y = (A, B).

    The window is split at the interior breakpoints (known discontinuities of
    H); stage evaluations are clamped a hair inside each piece, so pointwise
    sampling never straddles a jump and the scheme keeps its fourth order for
    piecewise-smooth generators.  A piece whose T is diagonal (a layered
    potential) advances by blocks of at most BLOCK steps
    (_advance_by_blocks), any other one step after another
    (_advance_by_steps); both run the one step of _rk4_step.  The dense
    path stays sequential because its stage products are flop-bound:
    batching 2-8 of its steps measured neutral at N = 24 and 10-20 % slower
    at N = 32, and a shared loop over a size-1 batch axis cost a dense
    bump evolution 6 %.  Updates y in place.
    """
    edges = [x_min] + sorted(b for b in set(breaks) if x_min < b < x_max) + [x_max]
    a, b = y
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
            t, p = tables(np.clip(xs, p0 + nudge, p1 - nudge), scale)
            p = p[:, :, None]
            d = 3 * (p[1::2] - p[:-1:2]), 3 * (p[2::2] - p[1::2])
            advance = _advance_by_steps if callable(t) else _advance_by_blocks
            advance(t, p, d, a, b)
    return y


def _work(shape) -> tuple:
    """Scratch arrays of _rk4_step on a state of the given shape: z (z1, then
    z4), k1, k4, s, w, the pairs [z2 | z3] and [k2 | k3], and views of
    z2, z3, k2 and k3."""
    m = shape[-1]
    z, k1, k4, s, w = (np.empty(shape, dtype=complex) for _ in range(5))
    z23, k23 = (np.empty(shape[:-1] + (2 * m,), dtype=complex) for _ in range(2))
    return z, k1, k4, s, w, z23, k23, z23[..., :m], z23[..., m:], k23[..., :m], k23[..., m:]


def _rk4_step(apply, a, b, p, d, t, work) -> None:
    """One RK4 step of the half state (a, b), in place.

    p and t are P and T at the step's left, mid and right points, d is
    (3 (P_m - P_l), 3 (P_r - P_m)), apply(T, z, out=) is T z, and work
    is _work of the state's shape.  Every array may carry leading axes,
    over which the step is batched.

    T carries -i h / 6 (-i h / 3 at midpoints), so a stage's product k = T z
    is its A increment over 6 (both of the midpoint's over 3), and its B
    increment is -P k.  The input of the third stage has z = P_m A + B
    exactly and that of the second differs from it by 3 (P_m - P_l) k1, so
    the two run as one product on [z2 | z3].  Where T vanishes A and B stay
    exactly as they are.
    """
    (pl, pm, pr), (dm, dr), (tl, tm, tr) = p, d, t
    z, k1, k4, s, w, z23, k23, z2, z3, k2, k3 = work
    np.multiply(pl, a, out=z)
    z += b
    apply(tl, z, out=k1)
    np.multiply(pm, a, out=z3)
    z3 += b
    np.multiply(dm, k1, out=z2)
    z2 += z3
    apply(tm, z23, out=k23)
    np.multiply(pr, a, out=z)
    z += b
    np.multiply(dr, k3, out=w)
    z += w
    apply(tr, z, out=k4)
    np.add(k2, k3, out=s)
    a += k1
    a += s
    a += k4
    np.multiply(pl, k1, out=w)
    b -= w
    np.multiply(pm, s, out=w)
    b -= w
    np.multiply(pr, k4, out=w)
    b -= w


def _advance_by_steps(t_at, p, d, a, b) -> None:
    """Advance (a, b) through a piece one step after another, T a matrix."""
    (dm, dr), work = d, _work(a.shape)
    t_right = t_at(0)
    for i in range(len(dm)):
        t_left, t_right = t_right, t_at(2 * i + 2)
        _rk4_step(np.matmul, a, b, p[2 * i:2 * i + 3], (dm[i], dr[i]),
                  (t_left, t_at(2 * i + 1), t_right), work)


def _advance_by_blocks(t, p, d, a, b) -> None:
    """Advance (a, b) through a piece by blocks of at most BLOCK steps, T
    diagonal (given as columns).

    Each channel then evolves on its own, and a step is a 2x2 map per
    channel.  One _rk4_step batched over a block's steps evolves the
    identity, giving every step's maps at once; they are multiplied
    pairwise, later x earlier (_map_product), and the block's product is
    applied to the carried state.  The extra memory is O(BLOCK C).
    """
    dm, dr = d
    n = len(dm)
    maps = np.empty((2, min(n, BLOCK)) + a.shape[:-1] + (2,), dtype=complex)
    work = _work(maps.shape[1:])
    for i in range(0, n, BLOCK):
        j = min(i + BLOCK, n)
        ma, mb = maps[:, :j - i]
        ma[...], mb[...] = (1, 0), (0, 1)
        ps, ts = p[2 * i:2 * j + 1], t[2 * i:2 * j + 1]
        _rk4_step(np.multiply, ma, mb, (ps[:-1:2], ps[1::2], ps[2::2]), (dm[i:j], dr[i:j]),
                  (ts[:-1:2], ts[1::2], ts[2::2]), [w[:j - i] for w in work])
        a[...], b[...] = _times(*_map_product(ma, mb), a, b)


def _map_product(ma, mb):
    """Rows of M[-1] ... M[1] M[0] for per-channel 2x2 maps M with rows
    (ma, mb), stacked on the leading axis: each round multiplies neighbours,
    later x earlier, and carries an odd last map to the next round."""
    while len(ma) > 1:
        h = len(ma) // 2 * 2
        pa, pb = _times(ma[1:h:2], mb[1:h:2], ma[:h:2], mb[:h:2])
        ma, mb = np.concatenate([pa, ma[h:]]), np.concatenate([pb, mb[h:]])
    return ma[0], mb[0]


def _times(la, lb, ea, eb):
    """Rows of L E, for L with rows (la, lb) and E with rows (ea, eb), per
    channel as explicit elementwise products (einsum measured 3-4x slower)."""
    return la[..., :1] * ea + la[..., 1:] * eb, lb[..., :1] * ea + lb[..., 1:] * eb


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
    _check_representable(pot, grid)
    if isinstance(grid, DiscGrid) and grid.size > MAX_CHANNELS_3D:
        raise ResourceLimitError(
            f"grid has {grid.size} channels; 3D evolution is capped at {MAX_CHANNELS_3D}")
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
