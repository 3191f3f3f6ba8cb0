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
channel: its response becomes the kernel's last column.  The window is cut
at the layer edges into pieces (_pieces), and the operator is the product
of the pieces' operators in x order, the paper's composition rule.
_evolve runs one loop over them:

- a piece inside a layer (u(x) != 0 there) has a purely multiplicative
  operator, a 2x2 map per channel that depends on the channel only through
  omega.  So it costs one 2x2 evolution per distinct frequency, on the
  grid's distinct_omegas (found once, when the grid is built): n_radial + 1
  on a DiscGrid (61 channels of a 10 x 6 disc evolve as 11, 257 of a 16 x
  16 disc as 17), at most S + 1 on a MomentumGrid, whose +-p frequencies
  agree only where k sin(theta) rounds alike.  Between layer edges its steps
  differ by a phase conjugation, so a piece's map takes one RK4 of three
  steps and O(log n) products (_layer_map), each the per-channel 2x2
  product operators._times that compose also uses.  The map multiplies
  mult, the operator's multiplication part, and the dense state's rows,
  channel by channel, with the same _times;
- every other piece advances the dense half state by the smooth members
  alone (_advance_by_steps).

A potential with no smooth member has no dense state and carries no
kernel; one with no layer keeps mult = unit_mult.  On a 3D DiscGrid (x is
then the layer axis z) only layered potentials evolve, on any number of
channels.

_rk4_step is the one step of both kinds of piece.  It runs the four RK4
stages as two batched products, (k1, k3) and then (k2, k4): at one point a
stage leaves P A + B as it is, so the third stage's input does not wait
for the second.  A dense piece runs its n steps as m contiguous x-slices of
ceil(n / m) steps, side by side on a leading slice axis of the state: the
first slice from the state so far, the others from the identity, each of
the ceil(n / m) batched steps advancing every slice at once.  The slice
propagators then multiply in x order, as the transfer operators of a
potential's x-pieces do.  m is SLICES where the batch fits in BLOCK_BYTES
and 1 on larger states (_slices), a rule on the sizes alone, never on the
host.  Nothing maps the smooth channels into the beam, so the dense stage
matrices have the N grid rows only, and the stage products write only
those rows of their slots.
A real (lossless) potential, one whose every complex field has imaginary
part exactly 0 (potentials.is_real), evolves only the N + 1 plus columns
of the dense state; time reversal, M* = Sigma M Sigma with Sigma swapping
the plus and minus channels under the node reflection p -> -p, gives the
minus ones (_time_reversed), those of each later x-slice before the
product too, and the RK4 products run on half the columns.  The built
columns agree with evolved ones to 3e-15 relative (real bumps centred,
off-centre in y, strong, paired and next to a slab; N = 5 to 24).  Gain
or loss potentials run all 2N + 2 columns.
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
from .potentials import (discontinuities, is_real, is_x_singular, is_y_independent,
                         smooth_members, uniform_part, x_support)

# a dense piece runs SLICES slices side by side where their plus rows fit in
# BLOCK_BYTES, and one slice beyond (_slices)
BLOCK_BYTES = 2 ** 18
SLICES = 8
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


def _sources(grid, members) -> np.ndarray:
    """The S_m of the smooth members, N grid rows by S + 1 channels:
    transform_y at p_j - p_l with grid.measure (w_l omega_l / 2 pi) in its
    columns and at p_j (the beam source) in its last column.  There is no
    beam row: nothing maps the smooth channels into the beam."""
    n = grid.size
    sources = np.empty((len(members), n, n + 1), dtype=complex)
    q = grid.nodes[:, None] - grid.nodes[None, :]
    for source, member in zip(sources, members):
        source[:, :n] = member.transform_y(q) * grid.measure
        source[:, n] = member.transform_y(grid.nodes)
    return sources


def _work(y, rows=None) -> tuple:
    """Scratch and state views of _rk4_step on the half state y = (A, B).

    The scratch is one stack of seven slots shaped like A, laid out so that
    the multiplies' stacked slots are contiguous (numpy runs them in about
    half the time of strided ones):

        (z_l, z_m, z_r | b1, bs, b4), k1, k3 | s, w_m | k4, w_r | k2,

    a slot after its bar reused once its earlier use is over.  The first
    three slots hold the three z = P A + B and later the B increments; then
    (k1, k3) is one pair of slots, k1, s and k4 are adjacent, and each
    increment of A sits three slots after its increment of B.  A's leading
    axes (the slices of a dense piece) carry over to every slot.

    rows, when given, is the number of T's rows, the leading rows of A (the
    grid rows: a dense T has no beam row): the two stage products write
    only those rows of their slots, whose other rows start as zero and stay
    so, and every elementwise call runs on whole slots.
    """
    st = np.zeros((7,) + y.shape[1:], dtype=complex)
    z, written = st[:3], st[..., :rows, :]
    return (y[0], y[1], y, z, z[:2], z[1:], st[3:5], written[3:5], st[5:7], written[6:4:-1],
            st[4], st[6], st[3:6], st[:3], st[3::-3], st[4::-3], st[5::-3])


def _rk4_step(apply, pw, pn, d, t, work) -> None:
    """One RK4 step of the half state y = (A, B), in place.

    pw is (P_l, P_m, P_r), pn is -pw, d is (3 (P_m - P_l), 3 (P_r - P_m))
    and t is (T_l, T_m, T_r), at the step's left, mid and right points,
    each broadcast against A (t on the rows it has); a dense step's are
    contiguous rows of its piece's point tables.  apply(T, z, out=) is T z,
    and work is _work of y.  A may carry leading axes, over which the step
    is batched: the slices of a dense piece, or a layered piece's steps.

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
    a, b, y, z, zlm, zmr, k13, k13_rows, w, k24_rows, s, k2, ks, bs, *inc = work
    np.multiply(pw, a, out=z)
    z += b
    apply(t[:2], zlm, out=k13_rows)
    np.multiply(d, k13, out=w)
    zmr += w
    apply(t[1:], zmr, out=k24_rows)
    s += k2
    np.multiply(pn, ks, out=bs)
    for i in inc:
        y += i


def _advance_by_steps(stage, phases, y) -> None:
    """Advance the slices y[:, k] of a dense piece side by side, one batched
    step after another, T a matrix.

    stage is (profiles, flat sources, rows, minus, short): _evolve's tables
    at the slices' 2L + 1 stage points, as (point, slice) rows, and the
    real steps of the last slice, whose later steps are padding.  phases is
    (P, -P, 3 diff(P)) at those points, so step i's three points are the
    rows 2i ... 2i + 2 of the first two and its two intervals the rows 2i,
    2i + 1 of the third.  T has as many rows as rows has columns, the grid
    rows of y.  Each step builds the stage matrices of its mid and right
    points, by one product of their profiles with the sources and two
    scalings, and takes its left point over from the step before, so every
    point is built once.  At step short the last slice's carried point is
    zeroed: its later points have zero rows, so every stage matrix of a
    padded step is zero, and such a step leaves its slice exactly as it is.
    """
    profiles, flat, rows, minus, short = stage
    pw, pn, d = phases
    r, c = rows.shape[-1], minus.shape[-1]
    work = _work(y, r)
    ts = np.empty((3,) + rows.shape[1:-1] + (r, c), dtype=complex)
    for i in range(len(d) // 2):
        if i == short:      # only a padded last slice (of several) has short < L
            ts[0, -1] = 0
        lo, hi = 2 * i + (i > 0), 2 * i + 3     # the first step builds point 0 too
        t = ts[lo - 2 * i:]
        np.matmul(profiles[lo:hi].reshape(-1, len(flat)), flat, out=t.reshape(-1, r * c))
        t *= rows[lo:hi, ..., None]
        t *= minus[lo:hi, ..., None, :]
        _rk4_step(np.matmul, pw[2 * i:hi], pn[2 * i:hi], d[2 * i:hi - 1], ts, work)
        ts[0] = ts[2]


def _layer_map(t, phases, n) -> np.ndarray:
    """The 2x2 map per channel, (row, column, channel), of a layered piece
    of n steps, T diagonal (rows of its diagonal) and tabulated at the
    first, second and last steps only.

    Each channel evolves on its own, and one _rk4_step batched over those
    (at most three) steps evolves the identity to their maps M_0, M_1 and
    M_{n-1}.  With D(a) = diag(1, e^{2i omega a}), read off the phase table
    P, step i's map is D((i - 1) h) M_1 D(-(i - 1) h), so steps 1 ... n - 2
    multiply to D((n - 2) h) (D(-h) M_1)^(n - 2), applied to M_0 by
    squaring.  The last step, whose outer point is clamped as the first
    one's is, applies as it is.  Extra memory O(C).
    """
    maps = np.empty((2, t.shape[1], 2, t.shape[-1]), dtype=complex)
    maps[...] = _EYE_MAPS
    _rk4_step(np.multiply, *phases, t, _work(maps))
    pw, out = phases[0], maps[:, 0]
    if n > 2:
        maps[1, 1] *= pw[0, 1] / pw[2, 1]
        power, e = maps[:, 1], n - 2
        while e:
            if e & 1:
                out = _times(power, out)
            e >>= 1
            if e:
                power = _times(power, power)
        out[1] *= pw[0, 2] / pw[0, 1]
    return _times(maps[:, -1], out) if n > 1 else out


def _evolve(pot, grid, members, cfg: EvolutionConfig) -> tuple:
    """(mult, state), evolved from the identity piece by piece: the
    operator's multiplication part, unit_mult(grid) where no piece lies
    inside a layer, and for a potential with smooth members the dense half
    state, else None.

    Each piece tabulates T = u(x) diag(e^{-i omega x} / 2 omega)
    diag(e^{-i omega x}) at its first, second and last steps, as (slot,
    step) rows, on grid.distinct_omegas.  Where T does not vanish the piece
    lies inside a layer, which SumPotential keeps the smooth members' spans
    out of (their tails there are below e^-32 of their peak), so its
    operator is a 2x2 map per channel.  A channel evolves on its own and
    only through omega: once per distinct omega, gathered by
    grid.distinct_index, and bitwise as if per channel, every operation
    being elementwise.  u (a stack of slabs) is constant between
    discontinuities, so _layer_map builds the piece's map from three step
    maps and powers.  mult is the first layer piece's map, times each later
    one's on the left, and _times multiplies the state's rows by the same
    map, channel by channel.  A window of one layer piece keeps mult's bytes
    as if mult advanced step map by step map; with more, the pieces' maps
    multiply as products and mult moves by roundoff.

    Every other piece advances the state by the smooth members alone.  The
    state holds the plus and minus rows of the S + 1 channels, columns (plus,
    minus) x channels; for a real potential only the plus columns, and
    _time_reversed builds the minus ones.  With P = e^{2i omega x}, the
    plus rows of H U are T (P A + B) and the minus rows -P times those,
    where A and B are the plus and minus rows of U and

        T = diag(e^{-i omega x} / 2 omega) (sum_m profile_m(x) S_m) diag(e^{-i omega x}),

    on the N grid rows (_sources), times -i h / 6 (-i h / 3 at midpoints).
    Every smooth member is separable, vt(x, q) = profile(x) transform_y(q),
    so the S_m are built once, and _advance_by_steps builds T from a piece's
    profiles and phases at its 2n + 1 stage points.  The piece's n steps run
    as m contiguous slices of L = ceil(n / m) steps (_slices), evolved side
    by side on a leading slice axis, (2, m, S + 1, columns); the last slice
    is padded with steps whose stage matrices are zero.  The first slice
    starts from the state so far, the others from the identity, and their
    propagators then multiply in x order; for a real potential
    _time_reversed completes slices 2 ... m first.
    """
    omegas, mult, y = grid.distinct_omegas, None, None
    if members:
        c, real = grid.size + 1, is_real(pot)
        cols = c if real else 2 * c
        flat = _sources(grid, members).reshape(len(members), -1)
        y = np.eye(2 * c, cols, dtype=complex).reshape(2, c, cols)
    # overflow is tolerated here: callers check finiteness and raise
    with np.errstate(over="ignore", invalid="ignore"):
        for p0, n, h, lo, hi in _pieces(pot, cfg):
            starts = [p0 + i * h for i in (0, 1, n - 1)[:n]]
            xs = np.array([[min(max(s + x, lo), hi) for x in starts] for s in (0.0, h / 2, h)])
            rows, minus, p = _phases(omegas, xs, _RK4_WEIGHTS * (-1j * h / 6))
            t = (uniform_part(pot, xs, grid.k)[..., None] * rows * minus)[..., None, :]
            if t.any():
                pw = p[..., None, :]
                maps = _layer_map(t, (pw, -pw, 3 * (pw[1:] - pw[:-1])), n)
                mult = maps if mult is None else _times(maps, mult)
                if y is not None:       # the piece's maps multiply the state's rows
                    y_t = y.transpose(0, 2, 1)
                    _times(maps.take(grid.distinct_index, axis=-1), y_t, out=y_t)
            elif y is not None:
                m, length = _slices(n, c, cols)
                # the piece's 2n + 1 stage points, then the padding's, at hi with scale 0
                left = p0 + np.arange(n) * h
                xs = np.full(2 * m * length + 1, hi)
                xs[0], xs[1:2 * n:2], xs[2:2 * n + 1:2] = p0, left + h / 2, left + h
                scale = np.zeros(xs.size, dtype=complex)
                scale[:2 * n + 1] = -1j * h / 6
                scale[1:2 * n:2] *= 2
                # (point, slice) tables: slice k's point j is the piece's point 2 k L + j
                at = np.arange(2 * length + 1)[:, None] + 2 * length * np.arange(m)
                xs, scale = np.clip(xs, lo, hi)[at], scale[at]
                rows, minus, p = _phases(grid.channel_omegas, xs, scale)
                profiles = np.stack([member.profile(xs) for member in members], axis=-1)
                pt = p[..., None]
                ys = np.empty((2, m, c, cols), dtype=complex)
                ys[:, 0], ys[:, 1:] = y, np.eye(2 * c, cols).reshape(2, 1, c, cols)
                _advance_by_steps((profiles, flat, rows[..., :-1], minus, n - (m - 1) * length),
                                  (pt, -pt, 3 * np.diff(pt, axis=0)), ys)
                y = ys[:, 0]
                for k in range(1, m):
                    later = _time_reversed(ys[:, k], grid) if real else ys[:, k]
                    y = (later.reshape(2 * c, 2 * c) @ y.reshape(2 * c, cols)).reshape(2, c, cols)
    mult = unit_mult(grid) if mult is None else mult.take(grid.distinct_index, axis=-1)
    return mult, (_time_reversed(y, grid) if y is not None and real else y)


def _slices(n: int, c: int, cols: int) -> tuple:
    """(m, L): a dense piece of n steps, on c channels and cols columns,
    runs as m slices of L = ceil(n / m) steps.  m is SLICES where the
    slices' plus rows, SLICES c x cols complex numbers, fit in BLOCK_BYTES
    (N <= 44 for a real potential, N <= 31 for a complex one), and 1 on
    larger states, which such a batch would push out of the cache; then no
    more than ceil(n / L), so that no slice is all padding."""
    m = SLICES if SLICES * 16 * c * cols <= BLOCK_BYTES else 1
    length = -(-n // m)
    return -(-n // length), length


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


def _checked(pot, grid, members, cfg: EvolutionConfig) -> tuple:
    """_evolve's (mult, state), refused when the state, or mult where there
    is no state, is non-finite and, with check_tolerance set on the config,
    compared with _evolve at half the steps."""
    mult, y = _evolve(pot, grid, members, cfg)
    u = mult if y is None else y
    if not np.isfinite(u).all():
        raise DivergenceError("evolution produced non-finite values")
    if cfg.check_tolerance is not None:
        half_mult, half_y = _evolve(pot, grid, members,
                                    EvolutionConfig(cfg.x_min, cfg.x_max, cfg.steps // 2))
        delta = float(np.max(np.abs(u - (half_mult if half_y is None else half_y))))
        if delta > cfg.check_tolerance:
            warnings.warn(AccuracyWarning(op="evolve_transfer", steps=cfg.steps,
                                          delta=delta), stacklevel=3)
    return mult, y


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
    mult, y = _checked(pot, grid, smooth_members(pot), cfg)
    if y is None:
        return TransferOperator(grid, mult, None)

    n = grid.size
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
