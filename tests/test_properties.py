"""Property tests of the operator algebra on small 2D and 3D grids."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tmscat import (Slab, TransferOperator, build_disc_grid, build_grid, compose,
                    EvolutionConfig, evolve_transfer, evolve_transfer_3d,
                    identity_operator)

GRIDS = [pytest.param(build_grid(1.3, 3), id="2d"),
         pytest.param(build_disc_grid(1.3, 2, 2), id="3d")]
ENTRIES = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


def entries(shape):
    return hnp.arrays(complex, shape, elements=ENTRIES)


@st.composite
def operators(draw, grid):
    s = grid.size
    return TransferOperator(grid=grid, mult=draw(entries((2, 2, s + 1))),
                            kernel=draw(st.none() | entries((2, 2, s, s))),
                            kernel_at_zero=draw(st.none() | entries((2, 2, s))))


def dense(a, shape):
    return np.zeros(shape, dtype=complex) if a is None else a


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
