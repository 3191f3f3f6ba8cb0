from unittest import mock

import numpy as np
import pytest

import tmscat.operators as ops
from tmscat import (DivergenceError, LowRank, SlabParams, TransferOperator, amplitude,
                    build_grid, compose, delta2d_amplitude, delta2d_operator,
                    identity_operator, scattering_result, slab_operator, solve_outgoing)
from tmscat.oracle import transfer_1d


@pytest.fixture
def grid():
    return build_grid(2.0, 24)


def test_identity_extraction_is_zero(grid):
    t_plus, t_minus, flag = solve_outgoing(identity_operator(grid))
    assert t_plus.delta_coeff == 0 and t_minus.delta_coeff == 0
    assert not t_plus.smooth.any() and not t_minus.smooth.any()
    assert flag.kind == "none"


def test_identity_laws(grid):
    m = delta2d_operator(0.7 - 0.2j, grid)
    ident = identity_operator(grid)
    for c in (compose(m, ident), compose(ident, m)):
        assert np.array_equal(c.kernel, m.kernel)
        assert np.array_equal(c.kernel_at_zero, m.kernel_at_zero)
        assert np.array_equal(c.mult_on_grid(), m.mult_on_grid())


def test_compose_rejects_grid_mismatch(grid):
    other = build_grid(2.0, 8)
    with pytest.raises(ValueError):
        compose(delta2d_operator(1.0, grid), delta2d_operator(1.0, other))


@pytest.mark.parametrize("n", [2, 24])
def test_point_potential_extraction_matches_closed_form(n):
    # T(p) = -2iz / ((4 + iz) omega(p)); the channel average behind it is
    # exact at any grid size, so this holds even at N = 2
    strength = 2.0 - 3.0j
    g = build_grid(1.5, n)
    t_plus, t_minus, flag = solve_outgoing(delta2d_operator(strength, g))
    want = -2j * strength / ((4 + 1j * strength) * g.omegas)
    assert np.max(np.abs(t_minus.smooth - want)) < 1e-10
    assert np.max(np.abs(t_plus.smooth - want)) < 1e-10
    assert t_plus.delta_coeff == 0 and t_minus.delta_coeff == 0
    assert flag.kind == "none"


def test_point_potential_singular_coupling_flagged(grid):
    _, _, flag = solve_outgoing(delta2d_operator(4.0j, grid))
    assert flag.is_singular


def test_near_singular_coupling_flagged(grid):
    _, _, flag = solve_outgoing(delta2d_operator(4.0j * (1 + 1e-11), grid))
    assert flag.kind in ("near-singular", "singular")
    assert flag.condition is not None and flag.condition > 1e9


def test_amplitude_of_zero_is_zero(grid):
    t_plus, t_minus, _ = solve_outgoing(identity_operator(grid))
    for _, f in amplitude(t_plus, t_minus, grid.k, np.linspace(0.1, 6.0, 17)):
        assert f == 0


def test_amplitude_excludes_grazing_angles(grid):
    t_plus, t_minus, _ = solve_outgoing(identity_operator(grid))
    for bad in (np.pi / 2, 3 * np.pi / 2, np.pi / 2 + 2 * np.pi):
        with pytest.raises(ValueError):
            amplitude(t_plus, t_minus, grid.k, [bad])


def test_point_potential_amplitude_is_isotropic(grid):
    strength = 1.0j - 0.5
    t_plus, t_minus, _ = solve_outgoing(delta2d_operator(strength, grid))
    want = delta2d_amplitude(strength)
    got = amplitude(t_plus, t_minus, grid.k, np.linspace(0.2, 6.1, 29))
    assert max(abs(f - want) for _, f in got) < 1e-12


def test_slab_is_purely_multiplicative(grid):
    sp = SlabParams(epsilon=2 + 0.01j, thickness=1.0, k=grid.k)
    op = slab_operator(sp, grid)
    assert op.kernel is None and op.kernel_at_zero is None
    t_plus, t_minus, flag = solve_outgoing(op)
    assert not t_plus.smooth.any() and not t_minus.smooth.any()
    # delta coefficients match the 1D reflection/transmission of the barrier
    zt = grid.k ** 2 * (1 - sp.epsilon)
    m = transfer_1d(lambda x: zt, (0.0, 1.0), grid.k, steps=4000).matrix
    assert abs(t_minus.delta_coeff - (-m[1, 0] / m[1, 1])) < 1e-8
    assert abs(t_plus.delta_coeff - (1.0 / m[1, 1] - 1.0)) < 1e-8
    assert flag.kind == "none"


def test_extraction_linearity(grid):
    op = delta2d_operator(0.9 + 0.4j, grid)
    tp1, tm1, _ = solve_outgoing(op)
    c = -1.5 + 2.0j
    tpc, tmc, _ = solve_outgoing(op, incident=c)
    assert np.allclose(tpc.smooth, c * tp1.smooth, rtol=1e-12, atol=1e-15)
    assert np.allclose(tmc.smooth, c * tm1.smooth, rtol=1e-12, atol=1e-15)
    assert abs(tpc.delta_coeff - c * tp1.delta_coeff) < 1e-14
    assert abs(tmc.delta_coeff - c * tm1.delta_coeff) < 1e-14


def test_composition_associativity(grid):
    a = slab_operator(SlabParams(1.6 + 0.05j, 0.5, grid.k), grid, x0=1.0)
    b = delta2d_operator(0.6 - 0.1j, grid)
    c = slab_operator(SlabParams(2.2, 0.3, grid.k), grid, x0=-2.0)
    left = compose(a, compose(b, c)).entries_on_grid()
    right = compose(compose(a, b), c).entries_on_grid()
    assert np.max(np.abs(left - right)) < 1e-12


def test_scattering_result_pipeline(grid):
    res = scattering_result(delta2d_operator(1.0, grid), np.array([0.4, 2.0, 4.2]))
    assert len(res.f_samples) == 3
    assert res.singularity_flag.kind == "none"
    want = delta2d_amplitude(1.0)
    assert all(abs(f - want) < 1e-12 for _, f in res.f_samples)

    res_sing = scattering_result(delta2d_operator(4.0j, grid), np.array([0.4]))
    assert res_sing.singularity_flag.is_singular
    assert res_sing.f_samples == []


def test_scattering_result_serialization(grid):
    res = scattering_result(delta2d_operator(0.5, grid), np.array([0.4, 2.0]))
    rows = res.csv_rows()
    assert len(rows) == 2
    theta_deg, re_f, im_f, abs_sq = rows[0]
    assert abs(theta_deg - np.degrees(0.4)) < 1e-12
    assert abs(complex(re_f, im_f) - delta2d_amplitude(0.5)) < 1e-12
    assert abs(abs_sq - abs(delta2d_amplitude(0.5)) ** 2) < 1e-12
    meta = res.metadata()
    assert meta["k"] == grid.k and meta["n"] == grid.size
    assert meta["singularity_flag"] == "none"
    assert meta["t_minus_delta"] == {"re": 0.0, "im": 0.0}


def densified(op):
    return TransferOperator(grid=op.grid, mult=op.mult, kernel=np.asarray(op.kernel),
                            kernel_at_zero=op.kernel_at_zero)


def assert_same_solution(op):
    """The factored solve of op against the LU of its densified copy; the
    condition number is exact on the factored path and gecon's estimate,
    never above it, on the LU."""
    got, want = solve_outgoing(op), solve_outgoing(densified(op))
    assert got[2].kind == want[2].kind == "none"
    for a, b in zip(got[:2], want[:2]):
        assert np.allclose(a.smooth, b.smooth, rtol=1e-12, atol=1e-14)
        assert a.delta_coeff == b.delta_coeff
    assert got[2].condition >= want[2].condition * (1 - 1e-12)
    return got[2], want[2]


def exact_condition(op):
    return np.linalg.cond(densified(op).entries_on_grid()[1, 1], 1)


def test_factored_solve_of_slab_and_defect(grid):
    op = compose(slab_operator(SlabParams(1.6 + 0.05j, 0.5, grid.k), grid),
                 delta2d_operator(0.7 - 0.2j, grid))
    assert isinstance(op.kernel, LowRank) and op.kernel.left.shape[2] == 1
    flag, _ = assert_same_solution(op)
    assert abs(flag.condition - exact_condition(op)) <= 1e-10 * flag.condition


def test_factored_solve_falls_back_where_m22_vanishes(grid):
    # a zero of mult_22 at one channel: no capacitance matrix, so the
    # factored kernel is densified and solved by LU
    op = compose(slab_operator(SlabParams(1.6 + 0.05j, 0.5, grid.k), grid),
                 delta2d_operator(0.7 - 0.2j, grid))
    mult = op.mult.copy()
    mult[1, 1, 5] = 0.0
    op = TransferOperator(grid=grid, mult=mult, kernel=op.kernel,
                          kernel_at_zero=op.kernel_at_zero)
    assert isinstance(op.kernel, LowRank)
    flag, flag_dense = assert_same_solution(op)
    assert flag.condition == flag_dense.condition


def test_factored_solve_hands_a_small_diagonal_to_the_lu():
    # mult_22 = 1e-9 at one channel against a rank-one part of size 1: the
    # capacitance formula would cancel to ~1e-7 there, so the dense LU runs
    g = build_grid(1.3, 4)
    mult = np.ones((2, 2, 5), dtype=complex)
    mult[1, 1, 0] = 1e-9
    ones = np.ones(4)
    k0 = np.linspace(0.5, 2.0, 16).reshape(2, 2, 4) + 0.3j
    op = TransferOperator(grid=g, mult=mult, kernel_at_zero=k0,
                          kernel=LowRank(np.stack([ones, ones])[:, :, None],
                                         np.stack([ones, ones])[None]))
    with mock.patch.object(ops, "_lu_solve", wraps=ops._lu_solve) as lu:
        solve_outgoing(op)
    lu.assert_called_once()
    flag, flag_dense = assert_same_solution(op)
    assert flag.condition == flag_dense.condition


def test_point_kernel_is_stored_factored():
    op = delta2d_operator(1.0, build_grid(2.0, 2048))
    assert op.kernel.shape == (2, 2, 2048, 2048)
    assert op.kernel.nbytes < 1e6


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_factor_is_a_divergence(grid, bad):
    kernel = delta2d_operator(1.0, grid).kernel
    left = kernel.left.copy()
    left[1, 3, 0] = bad
    with pytest.raises(DivergenceError):
        TransferOperator(grid=grid, mult=identity_operator(grid).mult,
                         kernel=LowRank(left, kernel.right), kernel_at_zero=None)
