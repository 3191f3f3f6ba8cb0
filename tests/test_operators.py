import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import tmscat.operators as ops
from tmscat import (DivergenceError, EvolutionConfig, GaussianBump, LowRank, SlabParams,
                    SpectralAmplitude, TransferOperator, amplitude, auto_config,
                    build_disc_grid, build_grid, compose, delta2d_amplitude, evolve_transfer,
                    point_operator, scattering_result, slab_operator, solve_outgoing)
from tmscat.operators import identity_operator
from tmscat.oracle import transfer_1d


@pytest.fixture
def grid():
    return build_grid(2.0, 24)


def test_identity_extraction_is_zero(grid):
    t_plus, t_minus, flag = solve_outgoing(identity_operator(grid))
    assert t_plus.delta_coeff == 0 and t_minus.delta_coeff == 0
    assert not t_plus.smooth.any() and not t_minus.smooth.any()
    assert flag.kind == "none"


@pytest.mark.parametrize("make", [
    pytest.param(lambda: point_operator(0.7 - 0.2j, build_grid(2.0, 24)), id="2d"),
    pytest.param(lambda: point_operator(0.7 - 0.2j, build_disc_grid(1.7, 6, 5)), id="3d"),
])
def test_point_operator_row_is_the_grid_measure(make):
    # both column channels carry the channel average, then a unit beam weight
    op = make()
    right = op.kernel.right
    assert np.array_equal(right[0, 0, :-1], op.grid.measure)
    assert np.array_equal(right[0, 1, :-1], op.grid.measure)
    assert np.array_equal(right[0, :, -1], [1.0, 1.0])


def test_identity_laws(grid):
    m = point_operator(0.7 - 0.2j, grid)
    ident = identity_operator(grid)
    for c in (compose(m, ident), compose(ident, m)):
        assert np.array_equal(c.kernel, m.kernel)
        assert np.array_equal(c.kernel_at_zero, m.kernel_at_zero)
        assert np.array_equal(c.mult_on_grid(), m.mult_on_grid())


def test_compose_rejects_grid_mismatch(grid):
    other = build_grid(2.0, 8)
    with pytest.raises(ValueError):
        compose(point_operator(1.0, grid), point_operator(1.0, other))


@pytest.mark.parametrize("n", [2, 24])
def test_point_potential_extraction_matches_closed_form(n):
    # T(p) = -2iz / ((4 + iz) omega(p)); the channel average behind it is
    # exact at any grid size, so this holds even at N = 2
    strength = 2.0 - 3.0j
    g = build_grid(1.5, n)
    t_plus, t_minus, flag = solve_outgoing(point_operator(strength, g))
    want = -2j * strength / ((4 + 1j * strength) * g.omegas)
    assert np.max(np.abs(t_minus.smooth - want)) < 1e-10
    assert np.max(np.abs(t_plus.smooth - want)) < 1e-10
    assert t_plus.delta_coeff == 0 and t_minus.delta_coeff == 0
    assert flag.kind == "none"


def test_point_potential_singular_coupling_flagged(grid):
    _, _, flag = solve_outgoing(point_operator(4.0j, grid))
    assert flag.is_singular


def test_near_singular_coupling_flagged(grid):
    _, _, flag = solve_outgoing(point_operator(4.0j * (1 + 1e-11), grid))
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_amplitude_rejects_non_finite_angles(grid, bad):
    t_plus, t_minus, _ = solve_outgoing(point_operator(1.0j - 0.5, grid))
    with pytest.raises(ValueError, match="theta must be finite"):
        amplitude(t_plus, t_minus, grid.k, [0.3, bad])


@pytest.mark.parametrize("side", ["t_plus", "t_minus"])
def test_amplitude_rejects_non_finite_smooth_samples(grid, side):
    # a SpectralAmplitude takes nan samples, so the reader checks them: one
    # nan sample among finite ones returned f = nan+nanj without an error
    amps = dict(zip(("t_plus", "t_minus"), solve_outgoing(point_operator(1.0j - 0.5, grid))))
    smooth = amps[side].smooth.copy()
    smooth[5] = np.nan
    amps[side] = SpectralAmplitude(grid, 0j, smooth)
    with pytest.raises(ValueError, match=f"{side} smooth must be finite"):
        amplitude(amps["t_plus"], amps["t_minus"], grid.k, [0.3, 3.0])


@pytest.mark.parametrize("incident", [np.nan, np.inf, complex(1.0, np.nan)])
def test_solve_outgoing_rejects_a_non_finite_incident(grid, incident):
    # not a spectral singularity: the input is at fault
    with pytest.raises(ValueError, match="incident must be finite"):
        solve_outgoing(point_operator(1.0j - 0.5, grid), incident)


def test_point_potential_amplitude_is_isotropic(grid):
    strength = 1.0j - 0.5
    t_plus, t_minus, _ = solve_outgoing(point_operator(strength, grid))
    want = delta2d_amplitude(strength)
    got = amplitude(t_plus, t_minus, grid.k, np.linspace(0.2, 6.1, 29))
    assert max(abs(f - want) for _, f in got) < 1e-12


def test_slab_is_purely_multiplicative(grid):
    sp = SlabParams(epsilon=2 + 0.01j, thickness=1.0, k=grid.k)
    op = slab_operator(sp, grid)
    assert op.kernel is None and op.kernel_at_zero is None
    with mock.patch.object(ops, "_lu_solve", wraps=ops._lu_solve) as lu:
        t_plus, t_minus, flag = solve_outgoing(op)
    assert not lu.called    # a diagonal system, with its exact condition
    m22 = op.mult_on_grid()[1, 1]
    exact = np.linalg.cond(np.diag(m22), 1)
    assert abs(flag.condition - exact) <= 1e-12 * exact
    assert not t_plus.smooth.any() and not t_minus.smooth.any()
    # delta coefficients match the 1D reflection/transmission of the barrier
    zt = grid.k ** 2 * (1 - sp.epsilon)
    m = transfer_1d(lambda x: zt, (0.0, 1.0), grid.k, steps=4000).matrix
    assert abs(t_minus.delta_coeff - (-m[1, 0] / m[1, 1])) < 1e-8
    assert abs(t_plus.delta_coeff - (1.0 / m[1, 1] - 1.0)) < 1e-8
    assert flag.kind == "none"


def test_extraction_linearity(grid):
    op = point_operator(0.9 + 0.4j, grid)
    tp1, tm1, _ = solve_outgoing(op)
    c = -1.5 + 2.0j
    tpc, tmc, _ = solve_outgoing(op, incident=c)
    assert np.allclose(tpc.smooth, c * tp1.smooth, rtol=1e-12, atol=1e-15)
    assert np.allclose(tmc.smooth, c * tm1.smooth, rtol=1e-12, atol=1e-15)
    assert abs(tpc.delta_coeff - c * tp1.delta_coeff) < 1e-14
    assert abs(tmc.delta_coeff - c * tm1.delta_coeff) < 1e-14


def test_composition_associativity(grid):
    a = slab_operator(SlabParams(1.6 + 0.05j, 0.5, grid.k), grid, x0=1.0)
    b = point_operator(0.6 - 0.1j, grid)
    c = slab_operator(SlabParams(2.2, 0.3, grid.k), grid, x0=-2.0)
    left = compose(a, compose(b, c)).entries_on_grid()
    right = compose(compose(a, b), c).entries_on_grid()
    assert np.max(np.abs(left - right)) < 1e-12


def test_scattering_result_pipeline(grid):
    res = scattering_result(point_operator(1.0, grid), np.array([0.4, 2.0, 4.2]))
    assert len(res.f_samples) == 3
    assert res.singularity_flag.kind == "none"
    want = delta2d_amplitude(1.0)
    assert all(abs(f - want) < 1e-12 for _, f in res.f_samples)

    res_sing = scattering_result(point_operator(4.0j, grid), np.array([0.4]))
    assert res_sing.singularity_flag.is_singular
    assert res_sing.f_samples == []


def test_scattering_result_serialization(grid):
    res = scattering_result(point_operator(0.5, grid), np.array([0.4, 2.0]))
    meta = res.metadata()
    assert meta["k"] == grid.k and meta["n"] == grid.size
    assert meta["singularity_flag"] == "none"
    assert meta["condition"] == res.singularity_flag.condition > 0
    assert meta["t_minus_delta"] == {"re": 0.0, "im": 0.0}


def densified(op):
    return TransferOperator(grid=op.grid, mult=op.mult, kernel=np.asarray(op.kernel))


def exact_condition(op):
    return np.linalg.cond(densified(op).entries_on_grid()[1, 1], 1)


def assert_same_solution(op):
    """The factored solve of op against the LU of its densified copy; the
    condition number is never above the exact value on either (an estimate
    on the first, exact up to rounding on the second)."""
    got, want = solve_outgoing(op), solve_outgoing(densified(op))
    assert got[2].kind == want[2].kind == "none"
    for a, b in zip(got[:2], want[:2]):
        assert np.allclose(a.smooth, b.smooth, rtol=1e-12, atol=1e-14)
        assert a.delta_coeff == b.delta_coeff
    exact = exact_condition(op)
    assert got[2].condition <= exact * (1 + 1e-12)
    assert want[2].condition <= exact * (1 + 1e-12)
    return got[2], want[2]


def test_factored_solve_of_slab_and_defect(grid):
    op = compose(slab_operator(SlabParams(1.6 + 0.05j, 0.5, grid.k), grid),
                 point_operator(0.7 - 0.2j, grid))
    assert isinstance(op.kernel, LowRank) and op.kernel.left.shape[2] == 1
    flag, _ = assert_same_solution(op)
    assert flag.condition >= exact_condition(op) / 2


@pytest.mark.parametrize("op", [
    pytest.param(compose(slab_operator(SlabParams(2.0 + 0.01j, 1.0, 2.0), build_grid(2.0, 256)),
                         point_operator(1.0, build_grid(2.0, 256))), id="slab-defect-256"),
    pytest.param(point_operator(1.0 + 0.5j, build_disc_grid(2.0, 16, 12)), id="delta3d"),
])
def test_condition_estimate_against_onenormest(op):
    # scipy's block estimator (Higham and Tisseur) on the dense system and its
    # inverse: an independent estimate, also never above the exact value
    from scipy.sparse.linalg import onenormest

    a22 = densified(op).entries_on_grid()[1, 1]
    reference = onenormest(a22) * onenormest(np.linalg.inv(a22))
    with mock.patch.object(ops, "_lu_solve", wraps=ops._lu_solve) as lu:
        flag = solve_outgoing(op)[2]
    assert not lu.called
    assert abs(flag.condition - reference) <= 0.1 * reference
    assert flag.condition <= exact_condition(op) * (1 + 1e-12)


def test_capacitance_solve_rejects_a_cancelling_right_hand_side():
    # the a priori bound reads 616 here, but this rhs's terms cancel to 4e-12
    # against |phi| ~ 1 (a posteriori 4e4): the dense LU must run
    g = build_grid(1.3, 3)
    mult = np.full((2, 2, 4), 0.03125, dtype=complex)
    mult[1, 0, 3] = 0.0
    mult[1, 1, 1] = 5e-5
    left = np.array([[1, 1, 1], [0, 1, 1]], dtype=complex)[:, :, None]
    op = TransferOperator(grid=g, mult=mult, kernel=LowRank(left, np.ones((1, 2, 4))))
    with mock.patch.object(ops, "_lu_solve", wraps=ops._lu_solve) as lu:
        got = solve_outgoing(op)
    lu.assert_called_once()
    want = solve_outgoing(densified(op))
    for a, b in zip(got[:2], want[:2]):
        assert np.max(np.abs(a.smooth - b.smooth)) <= 1e-12
        assert abs(a.delta_coeff - b.delta_coeff) <= 1e-12


def test_factored_solve_falls_back_where_m22_vanishes(grid):
    # a zero of mult_22 at one channel: no capacitance matrix, so the
    # factored kernel is densified and solved by LU
    op = compose(slab_operator(SlabParams(1.6 + 0.05j, 0.5, grid.k), grid),
                 point_operator(0.7 - 0.2j, grid))
    mult = op.mult.copy()
    mult[1, 1, 5] = 0.0
    op = TransferOperator(grid=grid, mult=mult, kernel=op.kernel)
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
    # a beam column k0 independent of the grid part: two ranks, k0[:, b] against
    # the unit vector at (b, S)
    right = np.zeros((3, 2, 5), dtype=complex)
    right[0, :, :4] = 1.0
    right[[1, 2], [0, 1], 4] = 1.0
    left = np.concatenate([np.stack([ones, ones])[:, :, None], k0.transpose(0, 2, 1)], axis=2)
    op = TransferOperator(grid=g, mult=mult, kernel=LowRank(left, right))
    assert np.array_equal(op.kernel_at_zero, k0)
    with mock.patch.object(ops, "_lu_solve", wraps=ops._lu_solve) as lu:
        solve_outgoing(op)
    lu.assert_called_once()
    flag, flag_dense = assert_same_solution(op)
    assert flag.condition == flag_dense.condition


def dense_system(a22, beam=None):
    """An operator with a dense kernel whose reflected-channel system is a22
    (the identity mult) and whose beam column is beam (zero if None)."""
    s = a22.shape[0]
    kernel = np.zeros((2, 2, s, s + 1), dtype=complex)
    kernel[1, 1, :, :-1] = a22 - np.eye(s)
    if beam is not None:
        kernel[..., -1] = beam
    return TransferOperator(grid=build_grid(1.3, s), mult=np.ones((2, 2, s + 1)), kernel=kernel)


def test_exactly_singular_dense_system_is_flagged():
    # all ones: the LU meets an exact zero pivot, and LAPACK reports it
    a22 = np.ones((4, 4), dtype=complex)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(a22, np.ones(4))
    with mock.patch.object(ops, "_lu_solve", wraps=ops._lu_solve) as lu:
        _, t_minus, flag = solve_outgoing(dense_system(a22))
    lu.assert_called_once()
    assert flag.is_singular and flag.condition is None
    assert np.all(np.isnan(t_minus.smooth))


def test_non_finite_right_hand_side_is_flagged():
    # a finite, well-conditioned system whose beam column times the incident
    # amplitude overflows: rhs holds an inf, and numpy says nothing of it
    beam = np.zeros((2, 2, 4), dtype=complex)
    beam[1, 0, 2] = 1e10
    op = dense_system(np.eye(4, dtype=complex), beam)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, t_minus, flag = solve_outgoing(op, incident=1e300)
    assert flag.is_singular
    assert not np.all(np.isfinite(t_minus.smooth))


@pytest.mark.parametrize("part", ["delta", "smooth"])
def test_overflowing_transmitted_amplitude_is_flagged(part):
    # finite, well-conditioned and with a finite reflected amplitude, but the
    # transmitted one overflows at incident 1e300: in its delta coefficient
    # (kernel-free, the beam's mult 1e10) or in its smooth part (a beam
    # column entry 1e10)
    if part == "delta":
        mult = np.ones((2, 2, 5), dtype=complex)
        mult[0, 0] = 1e10
        mult[0, 1] = mult[1, 0] = 0
        op = TransferOperator(grid=build_grid(1.3, 4), mult=mult, kernel=None)
    else:
        beam = np.zeros((2, 2, 4), dtype=complex)
        beam[0, 0, 2] = 1e10
        op = dense_system(np.eye(4, dtype=complex), beam)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t_plus, t_minus, flag = solve_outgoing(op, incident=1e300)
    assert np.all(np.isfinite(t_minus.smooth)) and flag.condition == 1.0
    assert flag.is_singular
    assert not np.isfinite(t_plus.delta_coeff)


def test_non_finite_beam_column_is_a_divergence():
    beam = np.zeros((2, 2, 4), dtype=complex)
    beam[1, 0, 2] = np.inf
    with pytest.raises(DivergenceError):
        dense_system(np.eye(4, dtype=complex), beam)


def test_kernel_free_system_is_solved_on_its_diagonal():
    rng = np.random.default_rng(7)
    d = rng.normal(size=9) + 1j * rng.normal(size=9)
    rhs = rng.normal(size=9) + 1j * rng.normal(size=9)
    phi, condition = ops._diagonal_solve(d, rhs)
    assert np.array_equal(phi, rhs / d)
    exact = np.linalg.cond(np.diag(d), 1)
    assert abs(condition - exact) <= 1e-12 * exact


def test_kernel_free_zero_on_the_diagonal_is_flagged(grid):
    op = slab_operator(SlabParams(1.6 + 0.05j, 0.5, grid.k), grid)
    mult = op.mult.copy()
    mult[1, 1, 5] = 0.0
    _, _, flag = solve_outgoing(TransferOperator(grid=grid, mult=mult, kernel=None))
    assert flag.is_singular and flag.condition is None


ENTRIES = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


@settings(deadline=None)
@given(data=st.data())
def test_lu_solve_is_numpy_solve_with_the_exact_condition(data):
    n = data.draw(st.integers(1, 6))
    a22 = data.draw(hnp.arrays(complex, (n, n), elements=ENTRIES))
    rhs = data.draw(hnp.arrays(complex, (n,), elements=ENTRIES))
    phi, condition = ops._lu_solve(a22, rhs)
    try:
        want = np.linalg.solve(a22, rhs)
    except np.linalg.LinAlgError:
        assert np.all(np.isnan(phi)) and condition is None
        return
    assert np.array_equal(phi, want, equal_nan=True)
    exact = np.linalg.cond(a22, 1)
    if np.isfinite(exact) and exact > 0:
        assert abs(condition - exact) <= 1e-10 * exact
    else:
        assert condition is None


def test_point_kernel_is_stored_factored():
    op = point_operator(1.0, build_grid(2.0, 2048))
    assert op.kernel.shape == (2, 2, 2048, 2049)
    assert op.kernel.nbytes < 1e6


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_factor_is_a_divergence(grid, bad):
    kernel = point_operator(1.0, grid).kernel
    left = kernel.left.copy()
    left[1, 3, 0] = bad
    with pytest.raises(DivergenceError):
        TransferOperator(grid=grid, mult=identity_operator(grid).mult,
                         kernel=LowRank(left, kernel.right))


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_low_rank_refuses_non_finite_factors(grid, side, bad):
    factors = {"left": np.ones((2, grid.size, 1)), "right": np.ones((1, 2, grid.size + 1))}
    factors[side][0, 1, 0] = bad
    with pytest.raises(DivergenceError):
        LowRank(**factors)


def test_operator_keeps_a_complex_mult():
    g = build_grid(1.3, 6)
    m = np.ones((2, 2, 7), dtype=complex)
    op = TransferOperator(g, m, None)
    assert op.mult is m and not m.flags.writeable


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_dense_kernel_is_a_divergence(bad):
    g = build_grid(1.3, 6)
    kernel = np.zeros((2, 2, 6, 7), dtype=complex)
    kernel[0, 1, 2, 3] = bad
    with pytest.raises(DivergenceError):
        TransferOperator(g, ops.unit_mult(g), kernel)


@pytest.mark.parametrize("kernel", [
    pytest.param(lambda: np.full((2, 2, 6, 7), 1e200, dtype=complex), id="dense"),
    pytest.param(lambda: LowRank(np.full((2, 6, 1), 1e200 + 0j), np.full((1, 2, 7), 1e200 + 0j)),
                 id="factored"),
])
def test_overflowing_compose_is_a_divergence(kernel):
    # K2 K1 sums products of 1e200 entries: each form overflows to inf and
    # must raise, not hand an inf kernel to the extraction
    g = build_grid(1.3, 6)
    second, first = (TransferOperator(g, ops.unit_mult(g), kernel()) for _ in range(2))
    with pytest.raises(DivergenceError):
        compose(second, first)


def test_every_operator_array_is_read_only():
    # products reuse their operands, so no array of an operator may change
    g, disc = build_grid(1.3, 8), build_disc_grid(1.3, 4, 3)
    bump = GaussianBump(0.4, (0.0, 0.2), (0.7, 0.9))
    cfg = auto_config(bump, 80)
    left, right = (evolve_transfer(bump, g, EvolutionConfig(a, b, 40))
                   for a, b in ((cfg.x_min, 0.0), (0.0, cfg.x_max)))
    sp = SlabParams(2.0 + 0.1j, 1.0, 1.3)
    dense = [evolve_transfer(bump, g, cfg), compose(right, left)]
    factored = [point_operator(1.0, g), point_operator(0.5j, disc),
                compose(point_operator(1.0, g), point_operator(-0.3j, g))]
    multiplicative = [slab_operator(sp, g), slab_operator(sp, disc)]
    assert all(isinstance(op.kernel, np.ndarray) for op in dense)
    assert all(isinstance(op.kernel, LowRank) for op in factored)
    assert all(op.kernel is None for op in multiplicative)
    arrays = ([op.mult for op in dense + factored + multiplicative]
              + [op.kernel for op in dense]
              + [f for op in factored for f in (op.kernel.left, op.kernel.right)])
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] += 1


def test_low_rank_rejects_mismatched_factors():
    with pytest.raises(ValueError, match="factor shapes"):
        LowRank(np.ones((2, 4, 1)), np.ones((1, 2, 4)))     # needs S + 1 = 5 columns
    with pytest.raises(ValueError, match="factor shapes"):
        LowRank(np.ones((3, 4, 1)), np.ones((1, 2, 5)))


def test_low_rank_densifies_only_with_a_copy(grid):
    kernel = point_operator(1.0, grid).kernel
    with pytest.raises(ValueError, match="copy"):
        np.asarray(kernel, copy=False)
    assert np.asarray(kernel).shape == kernel.shape


def test_operator_rejects_mult_and_kernel_of_another_grid(grid):
    small = build_grid(grid.k, grid.size - 2)
    with pytest.raises(ValueError, match="mult shape"):
        TransferOperator(grid=grid, mult=identity_operator(small).mult, kernel=None)
    for kernel in (point_operator(1.0, small).kernel,
                   np.asarray(point_operator(1.0, small).kernel)):
        with pytest.raises(ValueError, match="kernel shape"):
            TransferOperator(grid=grid, mult=identity_operator(grid).mult, kernel=kernel)


def test_amplitude_refuses_disc_grid_amplitudes():
    disc = build_disc_grid(1.3, 4, 4)
    t_plus, t_minus, _ = solve_outgoing(point_operator(1.0, disc))
    with pytest.raises(ValueError, match="MomentumGrid"):
        amplitude(t_plus, t_minus, disc.k, [0.3])
