"""Property tests of the operator algebra on small 2D and 3D grids (dense and
factored kernels, composed and extracted against their dense forms; compose's
mult against a per-channel matrix product, and its kernel affine in each
operand's kernel), of the factored evolution generator and its RK4, stage
matrices carried from step to step, x-slices evolved side by side and real
potentials' time-reversed columns included, against the dense ones, and of
the layered pieces' powered step maps against a per-channel RK4."""

from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tmscat import (GaussianBump, LowRank, Slab, SumPotential, TransferOperator,
                    auto_config, build_disc_grid, build_grid, compose,
                    EvolutionConfig, evolve_transfer, solve_outgoing)
import tmscat.evolution as evolution
import tmscat.operators as ops
from tmscat.evolution import _assemble_blocks, _phases, _sources, potential_kernel
from tmscat.operators import identity_operator
from tmscat.potentials import (discontinuities, is_y_independent, smooth_members,
                               uniform_part, x_support)

GRIDS = [pytest.param(build_grid(1.3, 3), id="2d"),
         pytest.param(build_disc_grid(1.3, 2, 2), id="3d")]
ENTRIES = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


def entries(shape):
    return hnp.arrays(complex, shape, elements=ENTRIES)


@st.composite
def low_rank(draw, s):
    """Rank 1-3 factors with a zero beam column; a drawn beam column k0 adds two
    ranks, left k0[:, b] against right the unit vector at (b, S), so the beam
    is independent of the grid factors."""
    r = draw(st.integers(1, 3))
    left = draw(entries((2, s, r)))
    right = np.zeros((r, 2, s + 1), dtype=complex)
    right[:, :, :s] = draw(entries((r, 2, s)))
    k0 = draw(st.none() | entries((2, 2, s)))
    if k0 is not None:
        unit = np.zeros((2, 2, s + 1), dtype=complex)
        unit[[0, 1], [0, 1], s] = 1.0
        left = np.concatenate([left, k0.transpose(0, 2, 1)], axis=2)
        right = np.concatenate([right, unit])
    return LowRank(left, right)


@st.composite
def operators(draw, grid, factored=False):
    """Operators whose kernel is None, dense or LowRank (only LowRank if factored)."""
    s = grid.size
    kernels = low_rank(s) if factored else st.none() | entries((2, 2, s, s + 1)) | low_rank(s)
    return TransferOperator(grid=grid, mult=draw(entries((2, 2, s + 1))), kernel=draw(kernels))


def dense(a, shape):
    return np.zeros(shape, dtype=complex) if a is None else np.asarray(a)


def densified(op):
    kernel = None if op.kernel is None else np.asarray(op.kernel)
    return TransferOperator(grid=op.grid, mult=op.mult, kernel=kernel)


def block_matrix(op):
    """The operator as a 2(S+1)-square matrix: diag(mult) + [K; 0] per channel block."""
    s = op.grid.size
    blocks = np.zeros((2, 2, s + 1, s + 1), dtype=complex)
    blocks[:, :, :s] = dense(op.kernel, (2, 2, s, s + 1))
    idx = np.arange(s + 1)
    blocks[:, :, idx, idx] += op.mult
    return blocks.transpose(0, 2, 1, 3).reshape(2 * s + 2, 2 * s + 2)


def assert_close(a, b, shape):
    a, b = dense(a, shape), dense(b, shape)
    scale = max(1.0, float(np.max(np.abs(a), initial=0.0)))
    assert np.max(np.abs(a - b), initial=0.0) <= 1e-12 * scale


def assert_same(a, b):
    assert (a is None) == (b is None)
    if a is not None:
        assert np.array_equal(a, b)


@pytest.mark.parametrize("grid", GRIDS)
@given(data=st.data())
def test_compose_is_associative(grid, data):
    a, b, c = (data.draw(operators(grid)) for _ in range(3))
    left = compose(a, compose(b, c))
    right = compose(compose(a, b), c)
    s = grid.size
    assert_close(left.mult, right.mult, (2, 2, s + 1))
    assert_close(left.kernel, right.kernel, (2, 2, s, s + 1))


@pytest.mark.parametrize("grid", GRIDS)
@given(data=st.data())
def test_identity_is_a_two_sided_unit(grid, data):
    op = data.draw(operators(grid))
    ident = identity_operator(grid)
    for prod in (compose(op, ident), compose(ident, op)):
        assert np.array_equal(prod.mult, op.mult)
        assert_same(prod.kernel, op.kernel)


@pytest.mark.parametrize("grid", GRIDS)
@settings(deadline=None)
@given(data=st.data())
def test_mixed_compose_matches_dense(grid, data):
    second, first = data.draw(operators(grid)), data.draw(operators(grid))
    got = compose(second, first)
    want = compose(densified(second), densified(first))
    s = grid.size
    assert_close(got.mult, want.mult, (2, 2, s + 1))
    assert_close(got.kernel, want.kernel, (2, 2, s, s + 1))
    # independent of compose: the product of the two block matrices
    product = block_matrix(second) @ block_matrix(first)
    assert_close(block_matrix(got), product, product.shape)


# Below the normal range, rounding is absolute: a product that underflows
# rounds by at most half a subnormal step, and a sum whose result is
# subnormal is exact.  An entry's real and imaginary parts each take four
# real products, so one side is off by at most 2 steps in each part, and
# the two sides (compose's separate products, np.matmul's possibly fused
# ones) by at most 4 sqrt(2) < 6 steps in modulus.
SUBNORMAL_FLOOR = 6 * np.finfo(float).smallest_subnormal


def assert_mult_is_the_channel_product(op, second, first):
    """op.mult against np.matmul of the operands' 2x2 mults channel by
    channel, to 1e-14 of the summed magnitudes of each entry's terms plus
    SUBNORMAL_FLOOR, where 1e-14 of subnormal terms underflows."""
    a, b = (m.transpose(2, 0, 1) for m in (second.mult, first.mult))
    want = np.matmul(a, b).transpose(1, 2, 0)
    terms = np.matmul(np.abs(a), np.abs(b)).transpose(1, 2, 0)
    assert np.all(np.abs(op.mult - want) <= 1e-14 * terms + SUBNORMAL_FLOOR)


def kernels(s, kind):
    return low_rank(s) if kind == "factored" else entries((2, 2, s, s + 1))


def mixed(alpha, a, b):
    """alpha a + (1 - alpha) b, factored if both kernels are."""
    if isinstance(a, LowRank):
        return LowRank(np.concatenate([alpha * a.left, (1 - alpha) * b.left], axis=2),
                       np.concatenate([a.right, b.right]))
    return alpha * a + (1 - alpha) * b


KERNEL_KINDS = ["factored", "dense"]


@pytest.mark.parametrize("kind", KERNEL_KINDS)
@pytest.mark.parametrize("grid", GRIDS)
@settings(deadline=None)
@given(data=st.data())
def test_compose_mult_is_the_per_channel_product(grid, kind, data):
    s = grid.size
    second, first = (TransferOperator(grid, data.draw(entries((2, 2, s + 1))),
                                      data.draw(kernels(s, kind))) for _ in range(2))
    assert_mult_is_the_channel_product(compose(second, first), second, first)


def test_compose_mult_with_subnormal_products_passes_the_product_check():
    # a row and a column whose products underflow: where np.matmul fuses a
    # multiply-add, it rounds the imaginary part of entry (0, 0) to 1418
    # steps of the smallest subnormal, and compose's separate products to 1417
    grid = build_grid(1.3, 3)
    row = np.array([-1e-320j, 1e-310 - 5e-324j])
    column = np.array([-0.7 - 1e-155j, -0.5 + 3.3e-313j])
    second, first = (TransferOperator(grid, np.repeat(m[:, :, None], 4, axis=2), None)
                     for m in (np.array([row, row[::-1]]), np.array([column, column[::-1]]).T))
    assert_mult_is_the_channel_product(compose(second, first), second, first)


def test_compose_with_swapped_mult_operands_fails_the_product_check(monkeypatch):
    grid = build_grid(1.3, 3)
    rng = np.random.default_rng(7)
    second, first = (TransferOperator(grid, rng.normal(size=(2, 2, 4))
                                      + 1j * rng.normal(size=(2, 2, 4)), None) for _ in range(2))
    assert_mult_is_the_channel_product(compose(second, first), second, first)
    times = ops._times
    monkeypatch.setattr(ops, "_times", lambda lhs, rhs, out=None: times(rhs, lhs, out=out))
    with pytest.raises(AssertionError):
        assert_mult_is_the_channel_product(compose(second, first), second, first)


@pytest.mark.parametrize("kind", KERNEL_KINDS)
@pytest.mark.parametrize("grid", GRIDS)
@settings(deadline=None)
@given(data=st.data(), alpha=st.floats(-2.0, 2.0))
def test_compose_kernel_is_affine_in_each_operand(grid, kind, data, alpha):
    s = grid.size
    m2, m1 = (data.draw(entries((2, 2, s + 1))) for _ in range(2))
    k2, k1, other = (data.draw(kernels(s, kind)) for _ in range(3))

    def kernel(second, first):
        return np.asarray(compose(TransferOperator(grid, m2, second),
                                  TransferOperator(grid, m1, first)).kernel)

    shape = (2, 2, s, s + 1)
    # K = M2 K1 + K2 M1 + K2 K1: the constant term's weights alpha and 1 - alpha sum to one
    assert_close(kernel(k2, mixed(alpha, k1, other)),
                 alpha * kernel(k2, k1) + (1 - alpha) * kernel(k2, other), shape)
    assert_close(kernel(mixed(alpha, k2, other), k1),
                 alpha * kernel(k2, k1) + (1 - alpha) * kernel(other, k1), shape)


@pytest.mark.parametrize("grid", GRIDS)
@settings(deadline=None)
@given(data=st.data())
def test_factored_solve_matches_dense(grid, data):
    s = grid.size
    op = data.draw(operators(grid, factored=True))
    a22 = densified(op).entries_on_grid()[1, 1]
    cond = np.linalg.cond(a22, 1)
    # beyond this, both solves lose more than the tolerance to roundoff
    assume(cond < 1e3)
    tp, tm, flag = solve_outgoing(op)
    tp_d, tm_d, flag_d = solve_outgoing(densified(op))
    assert flag.kind == flag_d.kind
    if flag.is_singular:
        return    # the values are undefined there, and may be non-finite
    for got, want in ((tp, tp_d), (tm, tm_d)):
        assert_close(got.smooth, want.smooth, (s,))
        assert_close(got.delta_coeff, want.delta_coeff, ())
    # exact on the LU, an estimate from the factors otherwise: never above it
    assert flag.condition <= cond * (1 + 1e-10)


def exact_condition(op):
    """The 1-norm condition number of diag(mult_22) + left_1 right_1 at 40
    digits, from the factors: np.linalg.cond on the densified system is off
    by more than the 1e-12 below, both through the rounding of each diagonal
    entry on densifying and through its inverse (relative error ~ cond eps)."""
    with mpmath.workdps(40):
        a = (mpmath.diag(op.mult[1, 1, :-1].tolist())
             + mpmath.matrix(op.kernel.left[1].tolist())
             * mpmath.matrix(op.kernel.right[:, 1, :-1].tolist()))
        return float(mpmath.mnorm(a, 1) * mpmath.mnorm(a ** -1, 1))


@pytest.mark.parametrize("grid", GRIDS)
@settings(deadline=None)
@given(data=st.data())
def test_factored_condition_is_bounded_by_exact(grid, data):
    op = data.draw(operators(grid, factored=True))
    with mock.patch.object(ops, "_lu_solve", wraps=ops._lu_solve) as lu:
        flag = solve_outgoing(op)[2]
    assume(not lu.called)
    exact = exact_condition(op)
    assert flag.condition <= exact * (1 + 1e-12)
    # two estimates that never exceed the exact value agree on the kind where
    # it is below the near-singular threshold; above it either may fall short
    if exact * (1 + 1e-12) < 1 / ops.RCOND_NEAR_SINGULAR:
        assert flag.kind == solve_outgoing(densified(op))[2].kind


def test_factored_condition_finds_a_cancelling_column():
    # rows 0, 1 and 3 of A^-1 cancel against the all-ones start vector, so
    # xLACN2 alone read 8.4e8 (kind none); the column with the largest
    # triangle-inequality bound holds the norm of A^-1, 942809041.99
    grid = build_disc_grid(1.3, 2, 2)
    s = grid.size
    mult = np.full((2, 2, s + 1), 1e-9 * (1 + 1j))
    mult[1, 1, 2] = 1
    right = np.zeros((1, 2, s + 1), dtype=complex)
    right[:, :, :s] = 0.5j
    op = TransferOperator(grid=grid, mult=mult, kernel=LowRank(np.full((2, s, 1), 1j), right))
    with mock.patch.object(ops, "_lu_solve", wraps=ops._lu_solve) as lu:
        flag = solve_outgoing(op)[2]
    assert not lu.called
    exact = exact_condition(op)
    assert exact * (1 - 1e-12) <= flag.condition <= exact * (1 + 1e-12)
    assert flag.kind == "near-singular" == solve_outgoing(densified(op))[2].kind


WINDOWS, STEPS = 8, 400
SLABS = st.tuples(st.floats(1.2, 3.0), st.floats(0.0, 0.1), st.floats(0.5, 1.2))


def windows(length):
    edges = np.linspace(0.0, length, WINDOWS + 1)
    return list(zip(edges, edges[1:]))


@settings(max_examples=10, deadline=None)
@given(slab=SLABS)
def test_windowed_slab_composes_to_whole_2d(slab):
    re, im, length = slab
    pot, grid = Slab(epsilon=complex(re, im), thickness=length), build_grid(1.7, 8)
    op = None
    for a, b in windows(length):
        piece = evolve_transfer(pot, grid, EvolutionConfig(a, b, STEPS // WINDOWS))
        op = piece if op is None else compose(piece, op)
    whole = evolve_transfer(pot, grid, EvolutionConfig(0.0, length, STEPS))
    assert op.kernel is None and op.kernel_at_zero is None
    assert np.max(np.abs(op.mult - whole.mult)) < 1e-6


@settings(max_examples=10, deadline=None)
@given(slab=SLABS)
def test_windowed_slab_composes_to_whole_3d(slab):
    re, im, length = slab
    pot, disc = Slab(epsilon=complex(re, im), thickness=length), build_disc_grid(1.7, 6, 4)
    op = None
    for a, b in windows(length):
        piece = evolve_transfer(pot, disc, EvolutionConfig(a, b, STEPS // WINDOWS))
        op = piece if op is None else compose(piece, op)
    whole = evolve_transfer(pot, disc, EvolutionConfig(0.0, length, STEPS))
    assert np.max(np.abs(op.mult - whole.mult)) < 1e-6


GENERATOR_POTENTIALS = [
    pytest.param(GaussianBump(0.4 + 0.1j, (0.2, 0.5), (0.6, 0.8)), id="bump"),
    pytest.param(SumPotential((GaussianBump(0.3, (-3.0, 0.0), (0.35, 0.7)),
                               GaussianBump(0.25 - 0.05j, (3.0, -0.4), (0.35, 0.6)))),
                 id="two-bumps"),
    pytest.param(SumPotential((Slab(2.0 + 0.1j, 1.0),
                               GaussianBump(0.3, (4.0, 0.2), (0.3, 0.7)))), id="slab+bump"),
    # real and y-asymmetric: the minus columns are built from the plus ones by
    # time reversal, whose node reflection a y-even bump would not see
    pytest.param(GaussianBump(0.4, (0.2, 0.5), (0.6, 0.8)), id="real-bump"),
    pytest.param(SumPotential((Slab(2.0, 1.0), GaussianBump(0.3, (4.0, 0.2), (0.3, 0.7)))),
                 id="real-slab+bump"),
    pytest.param(SumPotential((GaussianBump(0.3, (-3.0, 0.0), (0.35, 0.7)),
                               GaussianBump(0.25, (3.0, -0.4), (0.35, 0.6)))),
                 id="real-two-bumps"),
    # not real, however small its imaginary part: evolves every column
    pytest.param(GaussianBump(0.4 + 1e-300j, (0.2, 0.5), (0.6, 0.8)), id="tiny-imaginary-bump"),
]
HALVED = ["real-bump", "real-slab+bump", "real-two-bumps"]


def dense_generator(pot, x, grid):
    """(2N+2) x (2N+2) generator: grid blocks, beam-source columns, beam 2x2."""
    n, k = grid.size, grid.k
    h = np.zeros((2 * n + 2, 2 * n + 2), dtype=complex)
    blocks = _assemble_blocks(potential_kernel(pot, x, grid), x, grid.omegas)
    h[:2 * n, :2 * n] = np.block([[blocks[0, 0], blocks[0, 1]],
                                  [blocks[1, 0], blocks[1, 1]]])
    v0 = sum(m.profile(x) * m.transform_y(grid.nodes) for m in smooth_members(pot))
    dp = np.exp(1j * grid.omegas * x)
    ek = np.exp(1j * k * x)
    col = 0.5 / grid.omegas * v0
    h[:n, 2 * n] = col * dp.conj() * ek
    h[:n, 2 * n + 1] = col * dp.conj() / ek
    h[n:2 * n, 2 * n] = -col * dp * ek
    h[n:2 * n, 2 * n + 1] = -col * dp / ek
    pref, e2 = uniform_part(pot, x, k) / (2 * k), np.exp(2j * k * x)
    h[2 * n:, 2 * n:] = [[pref, pref / e2], [-pref * e2, -pref]]
    return h


@st.composite
def positions(draw, pot):
    """x inside the support, outside it, or exactly at a support or slab edge."""
    a, b = x_support(pot)
    return draw(st.floats(a, b) | st.floats(a - 10.0, a) | st.floats(b, b + 10.0)
                | st.sampled_from((a, b) + discontinuities(pot)))


@pytest.mark.parametrize("n", [5, 12])
@pytest.mark.parametrize("pot", GENERATOR_POTENTIALS)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_factored_generator_matches_dense(pot, n, data):
    # the dense pieces evolve by the smooth members alone (the layers' pieces
    # by their channel maps), so the reference is the smooth members' generator
    grid = build_grid(1.3, n)
    x = data.draw(positions(pot))
    u = data.draw(entries((2 * n + 2, 2 * n + 2)))
    members = smooth_members(pot)
    want = dense_generator(SumPotential(tuple(members)), x, grid) @ u
    # per point: grid plus rows T (P A + B), grid minus rows -P times them,
    # and beam rows zero
    rows, right, phases = _phases(grid.channel_omegas, np.array([x]), np.ones(1))
    t = sum(m.profile(x) * s for m, s in zip(members, _sources(grid, members)))
    t = rows[0][:n, None] * t * right[0][None, :]
    plus, minus = np.r_[0:n, 2 * n], np.r_[n:2 * n, 2 * n + 1]
    p = phases[0][:, None]
    got = np.zeros_like(u)
    got[:n] = t @ (p * u[plus] + u[minus])
    got[n:2 * n] = -p[:n] * got[:n]
    # far out in a Gaussian tail the profile is subnormal, with no relative precision
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)) + np.finfo(float).tiny


def plain_rk4(pot, grid, cfg):
    """Classical RK4 of dU/dx = -i H U on the (2N+2)-row state under
    dense_generator, with the engine's pieces and clamped stage points."""
    x_min, x_max = cfg.x_min, cfg.x_max
    edges = ([x_min] + sorted(b for b in set(discontinuities(pot)) if x_min < b < x_max)
             + [x_max])
    u = np.eye(2 * grid.size + 2, dtype=complex)
    for p0, p1 in zip(edges, edges[1:]):
        steps = max(1, round(cfg.steps * (p1 - p0) / (x_max - x_min)))
        h = (p1 - p0) / steps
        lo, hi = p0 + (p1 - p0) * 1e-9, p1 - (p1 - p0) * 1e-9

        def f(x, v):
            return -1j * (dense_generator(pot, min(max(x, lo), hi), grid) @ v)

        for i in range(steps):
            x = p0 + i * h
            k1 = f(x, u)
            k2 = f(x + h / 2, u + (h / 2) * k1)
            k3 = f(x + h / 2, u + (h / 2) * k2)
            k4 = f(x + h, u + h * k3)
            u = u + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return u


def assert_matches_plain_rk4(pot, n, steps=60, x_max=None):
    grid = build_grid(1.3, n)
    cfg = auto_config(pot, steps)
    if x_max is not None:
        cfg = EvolutionConfig(cfg.x_min, x_max, steps)
    op = evolve_transfer(pot, grid, cfg)
    u = plain_rk4(pot, grid, cfg)
    # grid rows; columns (plus, minus) x (grid channels, beam)
    cols = np.r_[0:n, 2 * n, n:2 * n, 2 * n + 1]
    want = u[:2 * n].take(cols, axis=1).reshape(2, n, 2, n + 1).transpose(0, 2, 1, 3)
    got = dense(op.kernel, want.shape).copy()
    idx = np.arange(n)
    got[:, :, idx, idx] += op.mult[:, :, :n]
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    beam = u[2 * n:, 2 * n:]
    assert np.max(np.abs(op.mult_at_zero() - beam)) <= 1e-12 * np.max(np.abs(beam))


@pytest.mark.parametrize("pot", GENERATOR_POTENTIALS)
def test_evolution_matches_plain_rk4_on_dense_generator(pot):
    assert_matches_plain_rk4(pot, 5)


@pytest.mark.parametrize("pot", GENERATOR_POTENTIALS)
def test_only_real_potentials_evolve_half_the_columns(pot, request, monkeypatch):
    n, widths = 5, set()
    advance = evolution._advance_by_steps

    def spy(stage, phases, y):
        widths.add(y.shape[-1])
        advance(stage, phases, y)

    monkeypatch.setattr(evolution, "_advance_by_steps", spy)
    evolve_transfer(pot, build_grid(1.3, n), auto_config(pot, 20))
    halved = request.node.callspec.id in HALVED
    assert widths == {(n + 1) * (1 if halved else 2)}


@pytest.mark.parametrize("pot", GENERATOR_POTENTIALS[1:])
def test_stage_matrix_blocks_match_plain_rk4(pot, monkeypatch):
    # each batched step's block of stage matrices (T_l, T_m, T_r) builds its
    # mid and right points and takes T_l over from the step before, zeroed in
    # the last slice where its padding begins.  At 7 slices a piece of 60
    # steps runs 7 slices of 9, the last of 6, and the bump piece of a
    # slab+bump (51 steps) 7 slices of 8, the last of 3
    monkeypatch.setattr(evolution, "SLICES", 7)
    assert_matches_plain_rk4(pot, 5)


# the slab's edges split the window in three pieces, with a bump on either side
SLICED_POTENTIALS = GENERATOR_POTENTIALS + [
    pytest.param(SumPotential((GaussianBump(0.3, (-3.0, 0.2), (0.3, 0.7)), Slab(2.0 + 0.1j, 1.0),
                               GaussianBump(0.25, (4.0, -0.4), (0.3, 0.6)))),
                 id="bump+slab+bump"),
    pytest.param(SumPotential((GaussianBump(0.3, (-3.0, 0.2), (0.3, 0.7)), Slab(2.0, 1.0),
                               GaussianBump(0.25, (4.0, -0.4), (0.3, 0.6)))),
                 id="real-bump+slab+bump"),
]


# at N = 5 a piece of n steps runs as ceil(n / ceil(n / 8)) slices: fewer
# steps than slices (1, 3: one step a slice), 7 slices of one step, a short
# last slice (9: 5 slices of 2, the last of 1; 61: 8 of 8, the last of 5),
# and an exact multiple (64: 8 of 8).  The window is the whole support, or
# ends at the last bump's centre, where the last stage matrix is far from
# zero, so a padded step that kept it would show.
@pytest.mark.parametrize("window", ["whole", "cut"])
@pytest.mark.parametrize("steps", [1, 3, 7, 9, 61, 64])
@pytest.mark.parametrize("pot", SLICED_POTENTIALS)
def test_slices_match_plain_rk4(pot, steps, window):
    x_max = smooth_members(pot)[-1].center[0] if window == "cut" else None
    assert_matches_plain_rk4(pot, 5, steps, x_max)


@pytest.mark.parametrize("n, slices", [(16, evolution.SLICES), (64, 1)])
@pytest.mark.parametrize("amplitude", [0.4, 0.4 + 0.1j], ids=["real", "complex"])
def test_slice_count_is_a_rule_on_sizes(amplitude, n, slices, monkeypatch):
    # the spy records each dense piece's slice count, the leading axis of its
    # batch of slices, which one slice has too
    counts, advance = [], evolution._advance_by_steps

    def spy(stage, phases, y):
        assert y.ndim == 4
        counts.append(y.shape[1])
        advance(stage, phases, y)

    monkeypatch.setattr(evolution, "_advance_by_steps", spy)
    pot, grid = GaussianBump(amplitude, (0.2, 0.5), (0.6, 0.8)), build_grid(1.3, n)
    ops = [evolve_transfer(pot, grid, auto_config(pot, 400)) for _ in range(2)]
    assert counts == [slices, slices] and (n > 16 or slices > 1)
    first, second = ([op.mult.tobytes(), op.kernel.tobytes()] for op in ops)
    assert first == second


@pytest.mark.parametrize("epsilon", [2.0 + 0.1j, 2.0], ids=["complex", "real"])
def test_a_layer_piece_runs_by_channel_maps_alone(epsilon, monkeypatch):
    # a slab next to a bump: the dense batched steps cover only the piece
    # outside the layer, and every dense stage matrix has the N grid rows
    n = 8
    pot = SumPotential((Slab(epsilon, 1.0), GaussianBump(0.3, (4.0, 0.2), (0.3, 0.7))))
    cfg = auto_config(pot, 400)
    dense_steps, stage_rows = [], set()
    advance, step = evolution._advance_by_steps, evolution._rk4_step

    def advance_spy(stage, phases, y):
        # (m - 1) L real steps in the full slices, short in the last one
        dense_steps.append((y.shape[1] - 1) * (len(phases[0]) // 2) + stage[4])
        advance(stage, phases, y)

    def step_spy(apply, pw, pn, d, t, work):
        if apply is np.matmul:
            stage_rows.add(t.shape[-2])
        step(apply, pw, pn, d, t, work)

    monkeypatch.setattr(evolution, "_advance_by_steps", advance_spy)
    monkeypatch.setattr(evolution, "_rk4_step", step_spy)
    evolve_transfer(pot, build_grid(1.3, n), cfg)
    outside = [steps for p0, steps, h, lo, hi in evolution._pieces(pot, cfg)
               if uniform_part(pot, (lo + hi) / 2, 1.3) == 0]
    # 400 steps on [0, 6.4]: 62 inside the slab, 338 beyond it
    assert dense_steps == outside == [338]
    assert stage_rows == {n}


@pytest.mark.parametrize("pot", [
    SumPotential((Slab(2.0 + 0.1j, 1.0), GaussianBump(0.3, (4.0, 0.2), (0.3, 0.7)))),
    SumPotential((GaussianBump(0.3, (-3.0, 0.2), (0.3, 0.7)), Slab(2.0 + 0.1j, 1.0),
                  GaussianBump(0.25, (4.0, -0.4), (0.3, 0.6)))),
    SumPotential((Slab(1.5, 0.4), Slab(2.2 + 0.05j, 1.1))),
], ids=["slab+bump", "bump+slab+bump", "two-slabs"])
def test_a_layer_piece_runs_one_rk4(pot, monkeypatch):
    # one batched RK4 of a layer piece's step maps serves both mult and the
    # dense state's rows
    layer_steps, step = [], evolution._rk4_step

    def spy(apply, *args):
        layer_steps.append(apply is np.multiply)
        step(apply, *args)

    monkeypatch.setattr(evolution, "_rk4_step", spy)
    cfg = auto_config(pot, 400)
    evolve_transfer(pot, build_grid(1.3, 8), cfg)
    layers = [n for p0, n, h, lo, hi in evolution._pieces(pot, cfg)
              if uniform_part(pot, (lo + hi) / 2, 1.3) != 0]
    assert sum(layer_steps) == len(layers) > 0


# ---------------------------------------------------------------------------
# layered evolution: three step maps per piece, the interior one powered
# ---------------------------------------------------------------------------

# pieces of one and two steps (no interior step), the first powers, and
# exponents n - 2 with many set bits (63 = 0b111111 at 65 steps); a window
# inside one layer is one piece of exactly the drawn count
STEP_COUNTS = st.sampled_from([1, 2, 3, 4, 63, 64, 65, 131, 1000])
PERMITTIVITY = st.builds(complex, st.floats(-1.0, 4.0), st.floats(-0.2, 0.2))


@st.composite
def layered(draw):
    """A slab, or a sum of two slabs (a stack of two layers on [0, L1] and
    [L1, L2], with permittivity eps1 + eps2 - 1 on the first)."""
    thickness = draw(st.floats(0.3, 1.5))
    slab = Slab(draw(PERMITTIVITY), thickness)
    if draw(st.booleans()):
        return slab
    return SumPotential((slab, Slab(draw(PERMITTIVITY), thickness + draw(st.floats(0.2, 1.0)))))


@st.composite
def layer_windows(draw, pot):
    """A window that cuts through a layer edge, or one inside the first layer."""
    edges = discontinuities(pot)
    if draw(st.booleans()):
        edge = draw(st.sampled_from(edges))
        return edge - draw(st.floats(0.05, 1.0)), edge + draw(st.floats(0.05, 1.0))
    inner = min(b - a for a, b in zip(edges, edges[1:]))
    return draw(st.floats(0.0, 0.4)) * inner, draw(st.floats(0.6, 1.0)) * inner


def channel_rk4(pot, grid, cfg):
    """Classical RK4, one step after another, of each channel's 2x2 generator
    (u(x) / 2 w) [[1, e^{-2iwx}], [-e^{2iwx}, -1]] on the grid channels and
    the beam, with the engine's pieces and clamped stage points; laid out
    (2, 2, C) like mult."""
    w = np.append(grid.omegas, grid.k)
    x_min, x_max = cfg.x_min, cfg.x_max
    edges = [x_min] + [b for b in discontinuities(pot) if x_min < b < x_max] + [x_max]
    u = np.tile(np.eye(2, dtype=complex), (w.size, 1, 1))
    for p0, p1 in zip(edges, edges[1:]):
        steps = max(1, round(cfg.steps * (p1 - p0) / (x_max - x_min)))
        h = (p1 - p0) / steps
        lo, hi = p0 + (p1 - p0) * 1e-9, p1 - (p1 - p0) * 1e-9

        def f(x, v):
            x = min(max(x, lo), hi)
            e = np.exp(2j * w * x)
            gen = np.empty((w.size, 2, 2), dtype=complex)
            gen[:, 0, 0], gen[:, 0, 1], gen[:, 1, 0], gen[:, 1, 1] = 1, 1 / e, -e, -1
            gen *= (uniform_part(pot, x, grid.k) / (2 * w))[:, None, None]
            return -1j * (gen @ v)

        for i in range(steps):
            x = p0 + i * h
            k1 = f(x, u)
            k2 = f(x + h / 2, u + (h / 2) * k1)
            k3 = f(x + h / 2, u + (h / 2) * k2)
            k4 = f(x + h, u + h * k3)
            u = u + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return u.transpose(1, 2, 0)


@pytest.mark.parametrize("grid", GRIDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_layered_pieces_match_a_per_channel_rk4(grid, data):
    pot = data.draw(layered())
    x_min, x_max = data.draw(layer_windows(pot))
    cfg = EvolutionConfig(x_min, x_max, data.draw(STEP_COUNTS))
    op = evolve_transfer(pot, grid, cfg)
    want = channel_rk4(pot, grid, cfg)
    assert op.kernel is None
    assert np.max(np.abs(op.mult - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("pot", [Slab(1.0, 1.0), SumPotential((Slab(1.0, 0.4), Slab(1.0, 1.0)))],
                         ids=["slab", "two-slabs"])
def test_zero_contrast_layers_evolve_to_the_exact_identity(grid, pot):
    # T vanishes at every stage point, so each piece leaves the state
    # exactly as it is, whatever its step count
    op = evolve_transfer(pot, grid, EvolutionConfig(-0.5, 1.5, 197))
    assert op.kernel is None
    assert np.array_equal(op.mult, np.broadcast_to(np.eye(2)[:, :, None], op.mult.shape))


@settings(max_examples=40, deadline=None)
@given(pot=layered(), data=st.data())
def test_layered_potentials_are_constant_between_their_discontinuities(pot, data):
    # the layered RK4 relies on it: within a piece each step's map is the
    # one before it conjugated by a phase only while u does not move
    assert is_y_independent(pot)
    edges = discontinuities(pot)
    for a, b in zip((edges[0] - 10.0,) + edges, edges + (edges[-1] + 10.0,)):
        inside = st.floats(a, b, exclude_min=True, exclude_max=True)
        x1, x2 = data.draw(inside), data.draw(inside)
        assert uniform_part(pot, x1, 1.3) == uniform_part(pot, x2, 1.3)


def test_bench_slab_windows_match_a_per_channel_rk4():
    # the 3D stack of the layer_stack bench: 8 windows of 50 steps on a
    # 10 x 6 disc, whose outermost radial channel grazes (omega ~ 0.024)
    grid = build_disc_grid(1.8, 10, 6)
    pot = Slab(2.5 + 0.02j, 0.6)
    edges = np.linspace(0.0, 0.6, 9)
    for x_min, x_max in zip(edges, edges[1:]):
        cfg = EvolutionConfig(x_min, x_max, 50)
        want = channel_rk4(pot, grid, cfg)
        got = evolve_transfer(pot, grid, cfg).mult
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
