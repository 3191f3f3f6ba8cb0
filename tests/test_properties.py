"""Property tests of the operator algebra on small 2D and 3D grids (dense and
factored kernels, composed and extracted against their dense forms), and of
the factored evolution generator against the dense one."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tmscat import (GaussianBump, LowRank, Slab, SumPotential, TransferOperator,
                    build_disc_grid, build_grid, compose,
                    EvolutionConfig, evolve_transfer, evolve_transfer_3d,
                    fourier_y, identity_operator, potential_kernel, solve_outgoing,
                    uniform_part, x_support)
import tmscat.operators as ops
from tmscat.evolution import _assemble_blocks, _channel_generator, _factored_generator
from tmscat.potentials import discontinuities, smooth_members

GRIDS = [pytest.param(build_grid(1.3, 3), id="2d"),
         pytest.param(build_disc_grid(1.3, 2, 2), id="3d")]
ENTRIES = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


def entries(shape):
    return hnp.arrays(complex, shape, elements=ENTRIES)


@st.composite
def low_rank(draw, s):
    r = draw(st.integers(1, 3))
    return LowRank(draw(entries((2, s, r))), draw(entries((r, 2, s))))


@st.composite
def operators(draw, grid, factored=False):
    """Operators whose kernel is None, dense or LowRank (only LowRank if factored)."""
    s = grid.size
    kernels = low_rank(s) if factored else st.none() | entries((2, 2, s, s)) | low_rank(s)
    return TransferOperator(grid=grid, mult=draw(entries((2, 2, s + 1))),
                            kernel=draw(kernels),
                            kernel_at_zero=draw(st.none() | entries((2, 2, s))))


def dense(a, shape):
    return np.zeros(shape, dtype=complex) if a is None else np.asarray(a)


def densified(op):
    kernel = None if op.kernel is None else np.asarray(op.kernel)
    return TransferOperator(grid=op.grid, mult=op.mult, kernel=kernel,
                            kernel_at_zero=op.kernel_at_zero)


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
    assert_close(left.kernel, right.kernel, (2, 2, s, s))
    assert_close(left.kernel_at_zero, right.kernel_at_zero, (2, 2, s))


@pytest.mark.parametrize("grid", GRIDS)
@given(data=st.data())
def test_identity_is_a_two_sided_unit(grid, data):
    op = data.draw(operators(grid))
    ident = identity_operator(grid)
    for prod in (compose(op, ident), compose(ident, op)):
        assert np.array_equal(prod.mult, op.mult)
        assert_same(prod.kernel, op.kernel)
        assert_same(prod.kernel_at_zero, op.kernel_at_zero)


@pytest.mark.parametrize("grid", GRIDS)
@settings(deadline=None)
@given(data=st.data())
def test_mixed_compose_matches_dense(grid, data):
    second, first = data.draw(operators(grid)), data.draw(operators(grid))
    got = compose(second, first)
    want = compose(densified(second), densified(first))
    s = grid.size
    assert_close(got.mult, want.mult, (2, 2, s + 1))
    assert_close(got.kernel, want.kernel, (2, 2, s, s))
    assert_close(got.kernel_at_zero, want.kernel_at_zero, (2, 2, s))


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
    with mock.patch.object(ops, "_lu_solve", wraps=ops._lu_solve) as lu:
        tp, tm, flag = solve_outgoing(op)
    tp_d, tm_d, flag_d = solve_outgoing(densified(op))
    assert flag.kind == flag_d.kind
    if flag.is_singular:
        return    # the values are undefined there, and may be non-finite
    for got, want in ((tp, tp_d), (tm, tm_d)):
        assert_close(got.smooth, want.smooth, (s,))
        assert_close(got.delta_coeff, want.delta_coeff, ())
    if lu.called:    # gecon's estimate
        assert flag.condition <= cond * (1 + 1e-10)
    else:            # the capacitance formula's exact value
        assert abs(flag.condition - cond) <= 1e-10 * cond


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
        piece = evolve_transfer_3d(pot, disc, a, b, STEPS // WINDOWS)
        op = piece if op is None else compose(piece, op)
    whole = evolve_transfer_3d(pot, disc, 0.0, length, STEPS)
    assert np.max(np.abs(op.mult - whole.mult)) < 1e-6


GENERATOR_POTENTIALS = [
    pytest.param(GaussianBump(0.4 + 0.1j, (0.2, 0.5), (0.6, 0.8)), id="bump"),
    pytest.param(SumPotential((GaussianBump(0.3, (-3.0, 0.0), (0.35, 0.7)),
                               GaussianBump(0.25 - 0.05j, (3.0, -0.4), (0.35, 0.6)))),
                 id="two-bumps"),
    pytest.param(SumPotential((Slab(2.0 + 0.1j, 1.0),
                               GaussianBump(0.3, (4.0, 0.2), (0.3, 0.7)))), id="slab+bump"),
]


def dense_generator(pot, x, grid):
    """(2N+2) x (2N+2) generator: grid blocks, beam-source columns, beam 2x2."""
    n, k = grid.size, grid.k
    h = np.zeros((2 * n + 2, 2 * n + 2), dtype=complex)
    blocks = _assemble_blocks(potential_kernel(pot, x, grid), x, grid.omegas)
    h[:2 * n, :2 * n] = np.block([[blocks[0, 0], blocks[0, 1]],
                                  [blocks[1, 0], blocks[1, 1]]])
    v0 = sum(fourier_y(m, x, grid.nodes) for m in smooth_members(pot))
    dp = np.exp(1j * grid.omegas * x)
    ek = np.exp(1j * k * x)
    col = 0.5 / grid.omegas * v0
    h[:n, 2 * n] = col * dp.conj() * ek
    h[:n, 2 * n + 1] = col * dp.conj() / ek
    h[n:2 * n, 2 * n] = -col * dp * ek
    h[n:2 * n, 2 * n + 1] = -col * dp / ek
    h[2 * n:, 2 * n:] = _channel_generator(uniform_part(pot, x, k), np.array([k]), x)[0]
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
    grid = build_grid(1.3, n)
    x = data.draw(positions(pot))
    u = data.draw(entries((2 * n + 2, 2 * n + 2)))
    want = dense_generator(pot, x, grid) @ u
    got = _factored_generator(pot, grid)(x) @ u
    # far out in a Gaussian tail the profile is subnormal, with no relative precision
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)) + np.finfo(float).tiny
