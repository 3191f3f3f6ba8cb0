"""Numeric transfer operators by position-ordered evolution in x.

The coefficient pair of a wave obeys a two-level evolution equation in x
whose generator couples the channels through the potential's transverse
transform:

    H_ab(x; p_j, p_l) = s_a * e^{-i s_a omega_j x} V(x)_{jl} e^{i s_b omega_l x}
                        / (2 omega_j),        s_1 = +1, s_2 = -1,

with V the Nystrom matrix of the transverse transform (plain-measure
quadrature weights folded into the columns).  Integrating dU/dx = -i H U
across the potential's support with U = identity on the left yields the
transfer operator.  H is exactly zero wherever the potential vanishes, and
the evolution there is exactly the identity.

The coherent beam at p = 0 is evolved alongside the grid as one more
channel: its response becomes the kernel's last column, and the
y-independent part of the potential drives a per-channel 2x2 evolution
that becomes the operator's multiplication part.  A potential with no
y-dependent member runs only that evolution and carries no kernel.  On a
3D DiscGrid (x is then the layer axis z) only such potentials evolve, on
any number of channels: a channel's 2x2 evolution depends on it only
through omega, so a layered piece costs one 2x2 evolution per distinct
frequency, on the grid's distinct_omegas (found once, when the grid is
built): n_radial + 1 on a DiscGrid (61 channels of a 10 x 6 disc evolve
as 11, 257 of a 16 x 16 disc as 17), at most S + 1 on a MomentumGrid,
whose +-p frequencies agree only where k sin(theta) rounds alike.  Between
layer edges its steps differ by a phase conjugation, so a piece runs three
and O(log n) products, each the per-channel 2x2 product operators._times
that compose also uses.
Its mult becomes the operator's without a copy.

evolve_transfer chooses the path once: _layered_mult evolves mult and
_dense_state the dense half state, each over the pieces of _pieces, with
_advance_by_power and _advance_by_steps; _rk4_step is the one step of both.
It runs the four RK4 stages as two batched products, (k1, k3) and then
(k2, k4): at one point a stage leaves P A + B as it is, so the third
stage's input does not wait for the second.  Without a uniform part the
dense stage matrices have a zero beam row, so they are built with the N
grid rows only and the steps move only those rows of the state.
A real (lossless) potential, one whose every complex field has imaginary
part exactly 0 (potentials.is_real), evolves only the N + 1 plus columns
of the dense state; time reversal, M* = Sigma M Sigma with Sigma swapping
the plus and minus channels under the node reflection p -> -p, gives the
minus ones (_time_reversed), and the RK4 products run on half the
columns.  The built columns agree with evolved ones to 3e-15 relative
(real bumps centred, off-centre in y, strong, paired and next to a slab;
N = 5 to 24).  Gain or loss potentials run all 2N + 2 columns.
The RK4 never forms H: _sources and _phases factor it.
effective_hamiltonian and potential_kernel assemble the dense generator as
the reference the factored form is tested against.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (AccuracyWarning, DivergenceError, UnsupportedEvaluationError, finite,
                     integer)
from .grid import DiscGrid, MomentumGrid
from .operators import TransferOperator, _times, unit_mult
from .potentials import (discontinuities, has_uniform_part, is_real, is_x_singular,
                         is_y_independent, smooth_members, uniform_part, x_support)

# most bytes of stage matrices a dense piece builds per call (_advance_by_steps)
BLOCK_BYTES = 2 ** 18
# RK4 weights of a step's left, mid and right points, and the identity as
# (plus, minus) rows x steps x (plus, minus) columns x channels, for a layered piece
_RK4_WEIGHTS = np.array([[1], [2], [1]])
_EYE_MAPS = np.eye(2).reshape(2, 1, 2, 1)
for _a in (_RK4_WEIGHTS, _EYE_MAPS):
    _a.setflags(write=False)


@dataclass(frozen=True)
class EvolutionConfig:
    """Integration window and step count for the fixed-step RK4 scheme.

    check_tolerance, when set, re-runs the evolution at half the steps and
    emits an AccuracyWarning if any operator entry moves by more than it; a
    non-finite bound, a negative or non-finite tolerance, or a tolerance
    with fewer than 2 steps (which have no half to compare with) raises
    ValueError.
    """

    x_min: float
    x_max: float
    steps: int
    check_tolerance: float | None = None

    def __post_init__(self):
        if not finite("x_min", self.x_min) < finite("x_max", self.x_max):
            raise ValueError("x_min must be below x_max")
        object.__setattr__(self, "steps", integer("steps", self.steps, 1))
        tol = self.check_tolerance
        if tol is not None and not finite("check_tolerance", tol) >= 0:
            raise ValueError(f"check_tolerance must be >= 0, got {tol!r}")
        if tol is not None and self.steps < 2:
            raise ValueError(f"check_tolerance needs steps >= 2 to halve, got {self.steps}")


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
        vt = member.profile(x) * member.transform_y(q)
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


def _pieces(pot, cfg: EvolutionConfig):
    """The window split at the potential's interior discontinuities (the
    jumps of H), as (p0, n, h, lo, hi) per piece of length L: start,
    max(1, round(steps L / (x_max - x_min))) steps of size h, and the bounds,
    1e-9 L inside, that stage points are clamped to, so sampling never
    straddles a jump and RK4 keeps its order for piecewise-smooth H."""
    x_min, x_max = cfg.x_min, cfg.x_max
    edges = [x_min] + sorted(b for b in set(discontinuities(pot)) if x_min < b < x_max) + [x_max]
    for p0, p1 in zip(edges, edges[1:]):
        n = max(1, round(cfg.steps * (p1 - p0) / (x_max - x_min)))
        nudge = (p1 - p0) * 1e-9
        yield p0, n, (p1 - p0) / n, p0 + nudge, p1 - nudge


def _phases(omegas: np.ndarray, xs: np.ndarray, scale: np.ndarray) -> tuple:
    """(rows, minus, P) at the points xs (any shape) on channels at omegas:
    minus = e^{-i omega x}, rows = scale e^{-i omega x} / 2 omega, the left
    factor of T, and P = e^{2i omega x}."""
    phase = np.exp(1j * np.multiply.outer(xs, omegas))
    minus = phase.conj()
    return (scale[..., None] * (0.5 / omegas)) * minus, minus, phase * phase


def _sources(pot, grid, members) -> np.ndarray:
    """The S_m of the smooth members on the S + 1 channels, then the
    identity (weighted by u(x) as S_m by profile_m(x)) if pot has a uniform
    part.  S_m is transform_y at p_j - p_l with grid.measure (w_l omega_l /
    2 pi) in its columns and at p_j (the beam source) in its last column;
    its beam row is zero: nothing maps smooth channels into the beam."""
    n, uniform = grid.size, has_uniform_part(pot)
    sources = np.zeros((len(members) + uniform, n + 1, n + 1), dtype=complex)
    q = grid.nodes[:, None] - grid.nodes[None, :]
    for source, member in zip(sources, members):
        source[:n, :n] = member.transform_y(q) * grid.measure
        source[:n, n] = member.transform_y(grid.nodes)
    if uniform:
        sources[-1] = np.eye(n + 1)
    return sources


def _by_step(a, slots=3):
    """Read-only view v of a contiguous array of stage points with
    v[s, i] = a[2 i + s]: step i's left, mid and right points (2n + 1 of
    them), or with two slots its pair of intervals (2n), on a leading slot
    axis.  (np.ndarray builds it in a third of as_strided's time.)"""
    s = a.strides[0]
    v = np.ndarray((slots, len(a) // 2) + a.shape[1:], a.dtype, a, 0,
                   (s, 2 * s) + a.strides[1:])
    v.flags.writeable = False
    return v


def _work(y, rows=None) -> tuple:
    """Scratch and state views of _rk4_step on the half state y = (A, B).

    rows, when given, is the number of leading rows of A and B that the
    stages move (all of them otherwise).  The scratch is one stack of q + 4
    slots of those rows, laid out so that the multiplies' stacked slots are
    contiguous (numpy runs them in about half the time of strided ones):

        (z_l, z_m, z_r | b1, bs, b4), k1, k3 | s, w_m | k4, w_r | k2,

    a slot after its bar reused once its earlier use is over.  The first q
    slots hold the three z = P A + B, packed, each with every row, and later
    the B increments; then (k1, k3) is one pair of slots, k1, s and k4 are
    adjacent, and each increment of A sits q slots after its increment of B.
    """
    shape, moved = y.shape[1:], y.shape[1] if rows is None else rows
    q = -(-3 * shape[0] // moved)           # slots of moved rows that hold the three z
    st = np.empty((q + 4, moved) + shape[1:], dtype=complex)
    z = np.ndarray((3,) + shape, complex, st)
    return (y[0], y[1], y[:, :moved], z, z[:2], z[1:], z[1:, :moved], st[q:q + 2],
            st[q + 2:q + 4], st[q + 3:q + 1:-1], st[q + 1], st[q + 3], st[q:q + 3], st[:3],
            st[q::-q], st[q + 1::-q], st[q + 2::-q])


def _rk4_step(apply, pw, pn, d, t, work) -> None:
    """One RK4 step of the half state y = (A, B), in place.

    pw is (P_l, P_m, P_r), pn is -pw, d is (3 (P_m - P_l), 3 (P_r - P_m))
    and t is (T_l, T_m, T_r), at the step's left, mid and right points,
    each broadcast against A (pn, d and t on its moved rows); apply(T, z,
    out=) is T z, and work is _work of y.  A may carry leading axes, over
    which the step is batched.

    T carries -i h / 6 (-i h / 3 at midpoints), so a stage's product k = T z
    is its A increment over 6 (both of the midpoint's over 3), and its B
    increment is -P k.  The z slots start as P A + B at the three points,
    in one product.  At one point a stage moves P A + B by P k - P k = 0,
    so the third stage's input is P_m A + B as it stands, and k1 and k3
    run as one product of the pair (T_l, T_m).  The second and fourth
    inputs then differ from P_m A + B and P_r A + B by 3 (P_m - P_l) k1
    and 3 (P_r - P_m) k3, added in one multiply and one add, and k2 and k4
    run as one product of (T_m, T_r).  With s = k2 + k3 the increments of
    (A, B) are (k1, s, k4) and pn times them, added to A and B together in
    the order k1, s, k4.  Where T vanishes A and B stay exactly as they
    are.
    """
    a, b, y, z, zlm, zmr, zmr_moved, k13, w, k24, s, k2, ks, bs, *inc = work
    np.multiply(pw, a, out=z)
    z += b
    apply(t[:2], zlm, out=k13)
    np.multiply(d, k13, out=w)
    zmr_moved += w
    apply(t[1:], zmr, out=k24)
    s += k2
    np.multiply(pn, ks, out=bs)
    for i in inc:
        y += i


def _advance_by_steps(stage, phases, y) -> None:
    """Advance y through a piece one step after another, T a matrix.

    stage is (profiles, flat sources, rows, minus) at the piece's stage
    points (_dense_state); T has as many rows as rows has columns, the rows
    of y the stages move.  The stage matrices are built by blocks of as
    many steps as fit in BLOCK_BYTES (at least one) into the one buffer ts,
    each block by one product of its profiles with the sources and two
    scalings; a block's first point is the last of the block before,
    carried over in ts[0], so every point is built once.
    """
    profiles, flat, rows, minus = stage
    n, r, c = phases[0].shape[1], rows.shape[1], y.shape[1]
    # a block's 2 per + 1 stage matrices of at most 16 c^2 bytes each fit in BLOCK_BYTES
    per = max(1, (BLOCK_BYTES // (16 * c * c) - 1) // 2)
    work, ts = _work(y, r), np.empty((2 * per + 1, r, c), dtype=complex)
    for i in range(0, n, per):
        m = 2 * (min(i + per, n) - i)
        lo, hi = 2 * i + (i > 0), 2 * i + m + 1     # the first block builds point 0 too
        t = ts[lo - 2 * i:m + 1]
        np.matmul(profiles[lo:hi], flat, out=t.reshape(hi - lo, -1))
        t *= rows[lo:hi, :, None]
        t *= minus[lo:hi, None, :]
        block = [a[:, i:i + m // 2] for a in phases] + [_by_step(ts[:m + 1])]
        for step in zip(*(a.swapaxes(0, 1) for a in block)):
            _rk4_step(np.matmul, *step, work)
        ts[0] = ts[m]


def _advance_by_power(t, phases, y, n) -> None:
    """Advance y through a layered piece of n steps, T diagonal (rows of its
    diagonal) and tabulated at the first, second and last steps only.

    Each channel evolves on its own, a step being a 2x2 map per channel, and
    one _rk4_step batched over those (at most three) steps evolves the
    identity to their maps M_0, M_1 and M_{n-1}.  With D(a) = diag(1,
    e^{2i omega a}), read off the phase table P, step i's map is
    D((i - 1) h) M_1 D(-(i - 1) h), so steps 1 ... n - 2 multiply to
    D((n - 2) h) (D(-h) M_1)^(n - 2), applied by squaring.  The first and
    last steps, whose outer points are clamped, apply as they are.  Where
    T vanishes y stays exactly as it is.  Extra memory O(C).
    """
    if not t.any():
        return
    maps = np.empty((2, t.shape[1]) + y.shape[1:], dtype=complex)
    maps[...] = _EYE_MAPS
    _rk4_step(np.multiply, *phases, t, _work(maps))
    pw = phases[0]
    _times(maps[:, 0], y, out=y)
    if n > 2:
        maps[1, 1] *= pw[0, 1] / pw[2, 1]
        power, e = maps[:, 1], n - 2
        while e:
            if e & 1:
                _times(power, y, out=y)
            e >>= 1
            if e:
                power = _times(power, power)
        y[1] *= pw[0, 2] / pw[0, 1]
    if n > 1:
        _times(maps[:, -1], y, out=y)


def _dense_state(pot, grid, members, cfg: EvolutionConfig) -> np.ndarray:
    """The half state evolved from the identity: plus and minus rows of the
    S + 1 channels, columns (plus, minus) x channels.  For a real potential
    only the plus columns evolve; _time_reversed builds the minus ones.

    With P = e^{2i omega x}, the plus rows of H U are T (P A + B) and the
    minus rows -P times those, where A and B are the plus and minus rows of
    U and

        T = diag(e^{-i omega x} / 2 omega) (sum_m profile_m(x) S_m + u(x) I)
            diag(e^{-i omega x}),

    times -i h / 6 (-i h / 3 at midpoints).  Every smooth member is
    separable, vt(x, q) = profile(x) transform_y(q), so the S_m (_sources)
    are built once, and _advance_by_steps builds T from a piece's profiles,
    u and phases at its 2n + 1 stage points.  Without a uniform part the
    beam row of every S_m, and so of T, is zero: T keeps only its N grid
    rows, the steps move only those rows of A and B, and the beam rows stay
    the identity they start as, bitwise as if evolved.
    """
    c, omegas, uniform = grid.size + 1, grid.channel_omegas, has_uniform_part(pot)
    moved = c if uniform else c - 1
    sources = _sources(pot, grid, members)[:, :moved]
    flat = sources.reshape(len(sources), -1)
    halves = 1 if is_real(pot) else 2
    y = np.eye(2 * c, halves * c, dtype=complex).reshape(2, c, halves * c)
    # overflow is tolerated here: callers check finiteness and raise
    with np.errstate(over="ignore", invalid="ignore"):
        for p0, n, h, lo, hi in _pieces(pot, cfg):
            left = p0 + np.arange(n) * h
            xs = np.empty(2 * n + 1)
            xs[0], xs[1::2], xs[2::2] = p0, left + h / 2, left + h
            xs = np.clip(xs, lo, hi)
            scale = np.full(2 * n + 1, -1j * h / 6)
            scale[1::2] *= 2
            rows, minus, p = _phases(omegas, xs, scale)
            u = [uniform_part(pot, xs, grid.k)] if uniform else []
            profiles = np.stack([m.profile(xs) for m in members] + u, axis=1)
            pm = p[:, :moved, None]
            _advance_by_steps((profiles, flat, rows[:, :moved], minus),
                              (_by_step(p[:, :, None]), _by_step(-pm),
                               _by_step(3 * np.diff(pm, axis=0), 2)), y)
    return y if halves == 2 else _time_reversed(y, grid)


def _time_reversed(plus, grid) -> np.ndarray:
    """The whole half state of a real potential from its plus columns (A+,
    B+): A- = R conj(B+) R and B- = R conj(A+) R, R reversing the grid
    nodes (grid.reflection) and keeping the beam in place.

    For real v, conj(V) = R V R, so conj(-i H) = Sigma (-i H) Sigma with
    Sigma swapping the plus and minus blocks under R (M* = Sigma M Sigma,
    time reversal).  An RK4 step is a polynomial with real coefficients in
    the stage generators, so the discrete state keeps this symmetry, and the
    built columns differ from evolved ones by roundoff only.
    """
    c = plus.shape[1]
    r = np.append(grid.reflection, c - 1)
    y = np.empty((2, c, 2, c), dtype=complex)
    y[:, :, 0] = plus
    np.conjugate(plus[::-1][:, r[:, None], r], out=y[:, :, 1])
    return y.reshape(2, c, 2 * c)


def _layered_mult(pot, grid, cfg: EvolutionConfig) -> np.ndarray:
    """The uniform part's mult evolved from the identity, as a fresh array:
    (plus, minus) rows x (plus, minus) columns x the S + 1 channels.

    T is diagonal, so a channel evolves on its own and only through omega:
    once per grid.distinct_omegas (n_radial + 1 on a DiscGrid), gathered by
    grid.distinct_index, and bitwise as if per channel, every operation
    being elementwise.  u (a stack of slabs) is constant between
    discontinuities, so a step's map is the previous one's conjugated by a
    phase; a piece is tabulated only at its first, second and last steps,
    as (slot, step) rows, for _advance_by_power.
    """
    omegas = grid.distinct_omegas
    y = np.zeros((2, 2, omegas.size), dtype=complex)
    y[0, 0] = y[1, 1] = 1
    # overflow is tolerated here: callers check finiteness and raise
    with np.errstate(over="ignore", invalid="ignore"):
        for p0, n, h, lo, hi in _pieces(pot, cfg):
            left = [p0 + i * h for i in (0, 1, n - 1)[:n]]
            xs = np.array([[min(max(s + x, lo), hi) for x in left] for s in (0.0, h / 2, h)])
            rows, minus, p = _phases(omegas, xs, _RK4_WEIGHTS * (-1j * h / 6))
            t = (uniform_part(pot, xs, grid.k)[..., None] * rows * minus)[..., None, :]
            pw = p[..., None, :]
            _advance_by_power(t, (pw, -pw, 3 * (pw[1:] - pw[:-1])), y, n)
    return y.take(grid.distinct_index, axis=-1)


def _checked(path, *args) -> np.ndarray:
    """path(*args), refused when non-finite and, with check_tolerance set on
    the config (the last argument), compared with path at half the steps."""
    *head, cfg = args
    u = path(*args)
    if not np.isfinite(u).all():
        raise DivergenceError("evolution produced non-finite values")
    if cfg.check_tolerance is not None:
        half = EvolutionConfig(cfg.x_min, cfg.x_max, cfg.steps // 2)
        delta = float(np.max(np.abs(u - path(*head, half))))
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
    purely multiplicative operator (kernel None).  On a DiscGrid, of any
    size, any other potential raises UnsupportedEvaluationError.  Non-finite
    values raise DivergenceError; with check_tolerance set, a step-halving
    comparison emits AccuracyWarning when the result is not converged.
    """
    _check_representable(pot, grid)
    members = smooth_members(pot)
    if not members:
        return TransferOperator(grid, _checked(_layered_mult, pot, grid, cfg), None)

    n = grid.size
    y = _checked(_dense_state, pot, grid, members, cfg)
    mult = _layered_mult(pot, grid, cfg) if has_uniform_part(pot) else unit_mult(grid)

    # grid rows of both halves; columns (plus, minus) x (grid channels, beam)
    kernel = y[:, :n].reshape(2, n, 2, n + 1).transpose(0, 2, 1, 3)
    idx = np.arange(n)
    kernel[:, :, idx, idx] -= mult[:, :, :n]
    return TransferOperator(grid=grid, mult=mult, kernel=kernel if kernel.any() else None)


# read only by the benchmark's scripts; every other caller runs evolve_transfer
def evolve_transfer_3d(pot, grid: DiscGrid, z_min: float, z_max: float,
                       steps: int) -> TransferOperator:
    """evolve_transfer of a layered potential over [z_min, z_max] on a DiscGrid."""
    return evolve_transfer(pot, grid, EvolutionConfig(z_min, z_max, steps))
