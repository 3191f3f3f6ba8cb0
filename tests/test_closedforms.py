import numpy as np
import pytest

from tmscat import (ConsistencyError, NearResonanceError, NoRootError,
                    SlabParams, SpectralSingularityError, born2d_amplitude,
                    build_grid, delta2d_amplitude, slab_defect_amplitudes,
                    slab_entries, slab_operator, slab_xyz, slab_y,
                    spectral_singularity, threshold_gain, threshold_gain_curve,
                    wire_modes)
from tmscat import closedforms as cf
from tmscat.closedforms import DefectParams


# ---------------------------------------------------------------------------
# 2D point potential
# ---------------------------------------------------------------------------

def test_point_amplitude_values():
    assert delta2d_amplitude(0.0) == 0.0
    want = -np.sqrt(2 / np.pi) * (4 - 1j) / 17
    assert abs(delta2d_amplitude(1.0) - want) < 1e-15


def test_point_amplitude_weak_coupling_limit():
    z = 1e-3
    rel = abs(delta2d_amplitude(z) - born2d_amplitude(z)) / abs(born2d_amplitude(z))
    assert rel < 3e-4


def test_point_amplitude_singular():
    with pytest.raises(SpectralSingularityError):
        delta2d_amplitude(4.0j)


def test_channel_factor_is_nilpotent():
    # the 2x2 factor behind every point kernel squares to zero, which is why
    # the evolution series for point potentials stops at first order
    from tmscat.closedforms import CHANNEL_FACTOR
    assert not (CHANNEL_FACTOR @ CHANNEL_FACTOR).any()


def test_born_values():
    assert born2d_amplitude(0.0) == 0.0
    assert abs(born2d_amplitude(1.0) + 1 / (2 * np.sqrt(2 * np.pi))) < 1e-16


def test_wire_modes():
    assert wire_modes(-1.0, "lasing") == 2.0
    assert wire_modes(4.0, "CPA") == 1.0
    with pytest.raises(ValueError):
        wire_modes(1.0, "lasing")
    with pytest.raises(ValueError):
        wire_modes(-1.0, "CPA")
    with pytest.raises(ValueError):
        wire_modes(-1.0, "nope")


def test_wire_lasing_round_trip_hits_singularity():
    for zeta in (-1.0, -0.37, -12.0):
        k = wire_modes(zeta, "lasing")
        coupling = DefectParams.from_wire(zeta, k).strength
        if zeta == -1.0:
            assert coupling == 4.0j
        with pytest.raises(SpectralSingularityError):
            delta2d_amplitude(coupling)


# ---------------------------------------------------------------------------
# slab transfer matrix
# ---------------------------------------------------------------------------

def test_empty_slab_is_identity():
    sp = SlabParams(epsilon=1.0, thickness=1.0, k=2.0)
    m = slab_entries(sp, np.linspace(0.1, 1.9, 7).astype(complex))
    assert np.allclose(m[0, 0], 1.0, atol=1e-14)
    assert np.allclose(m[1, 1], 1.0, atol=1e-14)
    assert np.allclose(m[0, 1], 0.0, atol=1e-15)
    assert np.allclose(m[1, 0], 0.0, atol=1e-15)


def test_slab_entries_match_textbook_form():
    # direct evaluation with the principal-branch index
    sp = SlabParams(epsilon=2.0 + 0.1j, thickness=0.8, k=1.7)
    omega = np.array([0.3, 0.9, 1.5], dtype=complex)
    n = sp.refraction(omega)
    npl, nmi = (n + 1 / n) / 2, (n - 1 / n) / 2
    arg = n * sp.thickness * omega
    phase = np.exp(-1j * omega * sp.thickness)
    want11 = (np.cos(arg) + 1j * npl * np.sin(arg)) * phase
    want12 = 1j * nmi * np.sin(arg) * phase
    m = slab_entries(sp, omega)
    assert np.max(np.abs(m[0, 0] - want11)) < 1e-12
    assert np.max(np.abs(m[0, 1] - want12)) < 1e-12
    # m22(w) = m11(-w), m21(w) = m12(-w)
    want22 = (np.cos(arg) - 1j * npl * np.sin(arg)) / phase
    assert np.max(np.abs(m[1, 1] - want22)) < 1e-12


def test_slab_determinant_is_one():
    sp = SlabParams(epsilon=2 + 0.01j, thickness=1.0, k=2.0)
    g = build_grid(2.0, 16)
    m = slab_operator(sp, g).mult_on_grid()
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    assert np.max(np.abs(det - 1)) < 1e-12


def test_derived_slab_parameters():
    sp = SlabParams(epsilon=2.0 + 0.2j, thickness=1.0, k=1.5)
    assert abs(sp.z_tilde - 1.5 ** 2 * (1 - sp.epsilon)) < 1e-15
    # at omega = k the channel index is the refractive index sqrt(epsilon)
    assert abs(complex(sp.refraction(sp.k)) - sp.sqrt_epsilon) < 1e-14
    npl = (sp.sqrt_epsilon + 1 / sp.sqrt_epsilon) / 2
    nmi = (sp.sqrt_epsilon - 1 / sp.sqrt_epsilon) / 2
    assert abs(npl ** 2 - nmi ** 2 - 1.0) < 1e-14
    assert sp.gain == -2 * sp.k * sp.kappa


@pytest.mark.parametrize("field, value", [
    ("epsilon", complex(np.nan, 0.01)), ("epsilon", complex(2.0, np.inf)),
    ("thickness", np.inf), ("thickness", np.nan), ("k", np.inf), ("k", np.nan),
])
def test_slab_params_reject_non_finite_fields(field, value):
    params = {"epsilon": 2 + 0.01j, "thickness": 1.0, "k": 2.0, field: value}
    with pytest.raises(ValueError, match="finite"):
        SlabParams(**params)


def test_slab_operator_checks_wavenumber():
    with pytest.raises(ValueError):
        slab_operator(SlabParams(2.0, 1.0, 1.0), build_grid(2.0, 8))


# ---------------------------------------------------------------------------
# X, Y, Z surface factors
# ---------------------------------------------------------------------------

def test_xz_for_empty_slab():
    sp = SlabParams(epsilon=1.0, thickness=0.7, k=2.0)
    x, z = slab_xyz(sp, 1.3)
    assert abs(x - 1.0) < 1e-14
    assert abs(z - np.exp(-2j * 0.7 * 1.3)) < 1e-14


def test_x_cross_check_runs():
    # the quotient and closed forms agree internally to 1e-10
    x, z = slab_xyz(SlabParams(2.0 + 0.1j, 1.0, 2.0), 1.3)
    assert np.isfinite(x) and np.isfinite(z)


def test_x_cross_check_raises_on_mismatch(monkeypatch):
    # a quotient X off by 1e-8 relative no longer matches the closed form
    x_of = cf._x_of
    monkeypatch.setattr(cf, "_x_of", lambda m: x_of(m) * (1 + 1e-8))
    with pytest.raises(ConsistencyError, match="X factor"):
        slab_xyz(SlabParams(2.0 + 0.1j, 1.0, 2.0), 1.3)


def test_y_without_coupling_is_two():
    sp = SlabParams(epsilon=2.0 + 0.05j, thickness=1.0, k=2.0)
    assert slab_y(sp, 0.0) == 2.0


def test_y_for_empty_slab():
    # X == 1, so Y = 2 + i z / 2 exactly (the rule integrates constants exactly)
    sp = SlabParams(epsilon=1.0, thickness=1.0, k=2.0)
    z = 0.8 - 0.3j
    assert abs(slab_y(sp, z) - (2 + 0.5j * z)) < 1e-12


def test_y_quadrature_converged():
    sp = SlabParams(epsilon=2 + 0.01j, thickness=1.0, k=2.0)
    assert abs(slab_y(sp, 1.0, 200) - slab_y(sp, 1.0, 400)) < 1e-10


def test_y_rejects_single_quadrature_point():
    with pytest.raises(ValueError, match="quad_points"):
        slab_y(SlabParams(epsilon=2 + 0.01j, thickness=1.0, k=2.0), 1.0, quad_points=1)


def _self_consistent_interior_root(eta, length, m):
    """Real frequency root of the channel condition via magnitude/phase fixed point."""
    kappa = -0.05
    omega = 1.0
    for _ in range(200):
        n = eta + 1j * kappa
        r2 = ((n - 1) / (n + 1)) ** 2
        omega = (2 * np.pi * m - np.angle(r2)) / (2 * eta * length)
        kappa = np.log(abs(r2)) / (2 * length * omega)
    return omega, eta + 1j * kappa


def test_y_detects_interior_pole():
    # place a real root of Z at a channel frequency inside (0, k): the fixed
    # point gives the channel index n0 at omega*, and the dispersion relation
    # n(w)^2 = 1 - k^2 (1 - eps) / w^2 then fixes the permittivity
    eta, length, m = 1.5, 10.0, 5
    omega_star, n0 = _self_consistent_interior_root(eta, length, m)
    k = 1.6 * omega_star
    eps = 1 - (1 - n0 ** 2) * omega_star ** 2 / k ** 2
    sp = SlabParams(epsilon=eps, thickness=length, k=k)
    # the construction really is a root of Z at fixed potential: polish and check
    res = spectral_singularity(sp, "omega", guess=complex(omega_star))
    assert res.z_abs < 1e-10
    assert abs(res.root.imag) < 1e-8
    assert 0 < res.root.real < k
    with pytest.raises(NearResonanceError):
        slab_y(sp, 1.0)


def test_y_pole_scan_ignores_a_dip_it_cannot_polish(monkeypatch):
    # the scan raises only for a root the secant polish finds; a polish that
    # does not converge leaves slab_y to integrate
    eta, length, m = 1.5, 10.0, 5
    omega_star, n0 = _self_consistent_interior_root(eta, length, m)
    k = 1.6 * omega_star
    sp = SlabParams(epsilon=1 - (1 - n0 ** 2) * omega_star ** 2 / k ** 2, thickness=length, k=k)

    def no_root(*args, **kwargs):
        raise NoRootError("no convergence", residual=1.0)

    monkeypatch.setattr(cf, "_secant", no_root)
    assert np.isfinite(slab_y(sp, 1.0))


# ---------------------------------------------------------------------------
# slab with a surface line defect
# ---------------------------------------------------------------------------

def test_defect_amplitudes_without_coupling():
    sp = SlabParams(epsilon=2 + 0.01j, thickness=1.0, k=2.0)
    res = slab_defect_amplitudes(sp, 0.0, np.array([0.3, -1.1]))
    assert not res.smooth_minus.any() and not res.smooth_plus.any()
    m = slab_entries(sp, np.array([sp.k], dtype=complex))[:, :, 0]
    assert abs(res.delta_minus - (-m[1, 0] / m[1, 1])) < 1e-14
    assert abs(res.delta_plus - (1 / m[1, 1] - 1)) < 1e-14


def test_defect_amplitudes_reduce_to_point_potential():
    # empty slab: T+- = -2iz / ((4 + iz) omega)
    sp = SlabParams(epsilon=1.0, thickness=1.0, k=2.0)
    strength = 0.9 - 0.4j
    p = np.array([0.25, 1.2, -1.7])
    omega = np.sqrt(sp.k ** 2 - p ** 2)
    res = slab_defect_amplitudes(sp, strength, p)
    want = -2j * strength / ((4 + 1j * strength) * omega)
    assert np.max(np.abs(res.smooth_minus - want)) < 1e-12
    assert np.max(np.abs(res.smooth_plus - want)) < 1e-12
    assert abs(res.delta_minus) < 1e-14
    assert abs(res.delta_plus) < 1e-14


def test_defect_amplitudes_rejects_outside_channels():
    sp = SlabParams(epsilon=2.0, thickness=1.0, k=2.0)
    with pytest.raises(ValueError):
        slab_defect_amplitudes(sp, 1.0, np.array([2.5]))


def test_angular_amplitude_matches_direct_closed_form():
    # pipeline f(theta) by interpolation vs the closed form at the same
    # momenta; the endpoint cusp of the reflected channel limits this to
    # algebraic accuracy, measured ~4e-6 at N = 128
    from tmscat import amplitude, build_grid, compose, delta2d_operator, \
        slab_operator, solve_outgoing
    sp = SlabParams(epsilon=2 + 0.01j, thickness=1.0, k=2.0)
    strength = 1.0
    g = build_grid(2.0, 128)
    op = compose(slab_operator(sp, g), delta2d_operator(strength, g))
    t_plus, t_minus, _ = solve_outgoing(op)
    thetas = np.radians(np.array([10.0, 30.0, 55.0, 110.0, 200.0, 340.0]))
    got = np.array([f for _, f in amplitude(t_plus, t_minus, 2.0, thetas)])
    p = 2.0 * np.sin(thetas)
    ex = slab_defect_amplitudes(sp, strength, p)
    omega = np.sqrt(4.0 - p ** 2)
    smooth = np.where(np.cos(thetas) > 0, ex.smooth_plus, ex.smooth_minus)
    want = -1j * omega * smooth / np.sqrt(2 * np.pi)
    assert np.max(np.abs(got - want)) < 1e-5


def test_xz_singular_at_interior_root():
    eta, length, m = 1.5, 10.0, 5
    omega_star, n0 = _self_consistent_interior_root(eta, length, m)
    k = 1.6 * omega_star
    eps = 1 - (1 - n0 ** 2) * omega_star ** 2 / k ** 2
    sp = SlabParams(epsilon=eps, thickness=length, k=k)
    with pytest.raises(SpectralSingularityError):
        slab_xyz(sp, omega_star)


def test_defect_amplitudes_propagate_near_resonance():
    eta, length, m = 1.5, 10.0, 5
    omega_star, n0 = _self_consistent_interior_root(eta, length, m)
    k = 1.6 * omega_star
    eps = 1 - (1 - n0 ** 2) * omega_star ** 2 / k ** 2
    sp = SlabParams(epsilon=eps, thickness=length, k=k)
    with pytest.raises(NearResonanceError):
        slab_defect_amplitudes(sp, 1.0, np.array([0.2]))


def test_defect_amplitudes_raise_where_y_vanishes():
    # Y(k) = 2 + z I is linear in the strength: its root z = -2 / I is the
    # defect-induced lasing threshold
    sp = SlabParams(epsilon=2 + 0.01j, thickness=1.0, k=2.0)
    strength = -2.0 / (slab_y(sp, 1.0) - 2.0)
    assert abs(slab_y(sp, strength)) <= 1e-12 * (2.0 + abs(strength))
    with pytest.raises(SpectralSingularityError, match="Y"):
        slab_defect_amplitudes(sp, strength, np.array([0.3, -1.1]))


def test_defect_amplitudes_raise_where_m22_vanishes_at_k():
    # a real root of the normal-incidence condition, found by
    # spectral_singularity in k, taken as the wavenumber of the slab
    eta, length, m = 1.5, 10.0, 5
    omega_star, n0 = _self_consistent_interior_root(eta, length, m)
    res = spectral_singularity(SlabParams(n0 ** 2, length, omega_star), "k",
                               guess=complex(omega_star))
    assert abs(res.root.imag) < 1e-12 and res.m22_abs <= 1e-13
    sp = SlabParams(epsilon=n0 ** 2, thickness=length, k=res.root.real)
    assert abs(slab_entries(sp, np.array([sp.k], dtype=complex))[1, 1, 0]) <= 1e-13
    with pytest.raises(SpectralSingularityError, match="m22"):
        slab_defect_amplitudes(sp, 1.0, np.array([0.3]))


def test_defect_amplitudes_raise_where_m22_vanishes_at_a_channel():
    # a real root of Z midway between two frequencies of slab_y's pole scan,
    # whose dip test then does not fire: the requested channel at the root
    # meets the m22(omega) guard
    scan = np.sin(np.linspace(1e-3, np.pi / 2 - 1e-3, 1024))
    j = np.searchsorted(scan, 0.6)
    eta, length, m = 1.5, 60.0, 20
    omega_star, n0 = _self_consistent_interior_root(eta, length, m)
    k = omega_star / (0.5 * (scan[j] + scan[j + 1]))
    sp = SlabParams(epsilon=1 - (1 - n0 ** 2) * omega_star ** 2 / k ** 2, thickness=length, k=k)
    root = spectral_singularity(sp, "omega", guess=complex(omega_star)).root
    assert abs(root.imag) < 1e-12
    p = np.sqrt(k * k - root.real ** 2)
    with pytest.raises(SpectralSingularityError, match=r"m22\(omega\)"):
        slab_defect_amplitudes(sp, 1.0, np.array([0.3 * k, p]))


def test_defect_amplitudes_raise_on_identity_mismatch(monkeypatch):
    # Y(k) off by 1e-6 relative breaks the independently recomputed identity
    y = cf.slab_y
    monkeypatch.setattr(cf, "slab_y", lambda *args: y(*args) * (1 + 1e-6))
    with pytest.raises(ConsistencyError, match="identity"):
        slab_defect_amplitudes(SlabParams(epsilon=2 + 0.01j, thickness=1.0, k=2.0), 1.0,
                               np.array([0.3, -1.1]))


# ---------------------------------------------------------------------------
# threshold gain
# ---------------------------------------------------------------------------

def test_threshold_gain_normal_direction():
    eta, length = 1.5, 2.0
    want = (4 / length) * np.log((eta + 1) / np.sqrt(eta ** 2 - 1))
    assert abs(threshold_gain(eta, 0.0, length) - want) < 1e-15


def test_threshold_gain_zero_at_grazing():
    g = threshold_gain_curve(1.8, 1.0, np.array([90.0, 270.0]))
    assert g[0] == 0.0 and g[1] == 0.0


@pytest.mark.parametrize("eta", [1.2, 1.5, 3.0])
def test_threshold_gain_curve_exact_beyond_one_turn(eta):
    # grazing in every turn, and the normal-direction closed form exactly
    # (L = 2 makes eta L exact, so 4 eta / (eta L) is 4 / L)
    length = 2.0
    grazing = threshold_gain_curve(eta, length, 90.0 + 180.0 * np.arange(-4, 5))
    assert np.all(grazing == 0.0)
    want = (4 / length) * np.log((eta + 1) / np.sqrt(eta ** 2 - 1))
    assert np.all(threshold_gain_curve(eta, length, np.array([0.0, 180.0, 360.0])) == want)


def test_threshold_gain_symmetries():
    theta = np.linspace(5.0, 85.0, 17)
    eta, length = 2.2, 0.7
    a = threshold_gain_curve(eta, length, theta)
    b = threshold_gain_curve(eta, length, 180.0 - theta)
    c = threshold_gain_curve(eta, length, -theta)
    assert np.max(np.abs(a - b)) < 1e-12
    assert np.max(np.abs(a - c)) < 1e-12


def test_threshold_gain_monotone_decreasing():
    theta = np.linspace(0.0, 90.0, 91)
    for eta in (1.2, 1.5, 3.0):
        g = threshold_gain_curve(eta, 1.0, theta)
        assert np.all(np.diff(g) < 0)


def test_threshold_gain_rejects_eta_below_one():
    with pytest.raises(ValueError):
        threshold_gain(1.0, 0.3, 1.0)
    with pytest.raises(ValueError):
        threshold_gain_curve(0.9, 1.0, np.array([10.0]))


def test_threshold_gain_rejects_zero_thickness():
    with pytest.raises(ValueError, match="thickness"):
        threshold_gain_curve(1.5, 0.0, np.array([10.0]))


# ---------------------------------------------------------------------------
# spectral singularities
# ---------------------------------------------------------------------------

def test_singularity_root_matches_log_formula():
    eps = (1.5 - 0.05j) ** 2
    sp = SlabParams(epsilon=eps, thickness=10.0, k=1.0)
    n = np.sqrt(eps)
    r2 = ((n - 1) / (n + 1)) ** 2
    k_exact = (np.log(r2) - 2j * np.pi * 15) / (-2j * n * 10.0)
    assert k_exact.real > 0
    res = spectral_singularity(sp, "k", guess=k_exact * 1.001)
    assert abs(res.root - k_exact) < 1e-12
    assert res.z_abs < 1e-10
    assert res.m22_abs < 1e-8


def test_singularity_no_root_for_passive_slab():
    # Z = e^{-2iLw} never vanishes at finite w
    with pytest.raises(NoRootError) as exc:
        spectral_singularity(SlabParams(1.0, 1.0, 2.0), "omega", guess=1.0 + 0.0j)
    assert exc.value.residual is not None


def test_singularity_root_continuous_in_epsilon():
    eps = (1.5 - 0.05j) ** 2
    sp = SlabParams(epsilon=eps, thickness=10.0, k=1.0)
    n = np.sqrt(eps)
    k0 = (np.log(((n - 1) / (n + 1)) ** 2) - 2j * np.pi * 15) / (-2j * n * 10.0)
    root = spectral_singularity(sp, "k", guess=k0).root
    sp2 = SlabParams(epsilon=eps * (1 + 1e-6), thickness=10.0, k=1.0)
    root2 = spectral_singularity(sp2, "k", guess=root).root
    assert abs(root2 - root) / abs(root) < 1e-4


def test_singularity_seeded_by_threshold_gain():
    # build the gain from the closed-form threshold at normal direction,
    # pick the phase-matching wavenumber, and let the solver polish it;
    # the seed is within a percent of the true (complex) root
    eta, length, m = 1.5, 10.0, 10
    g = threshold_gain(eta, 0.0, length)
    k0 = np.pi * m / (eta * length)
    kappa = -g / (2 * k0)
    assert abs(kappa) < (eta - 1) / 2  # regime the formula assumes
    sp = SlabParams(epsilon=(eta + 1j * kappa) ** 2, thickness=length, k=k0)
    res = spectral_singularity(sp, "k", guess=complex(k0))
    assert res.z_abs < 1e-6  # converged residual, far below the gate
    assert abs(res.root - k0) / k0 < 0.02
    assert abs(res.root.imag) / abs(res.root) < 0.02


def test_singularity_stops_where_z_is_flat():
    # far down the imaginary axis the round-trip phase underflows, so Z is
    # the constant -r^2 to the last bit: the secant stops instead of dividing
    # by a zero difference
    with pytest.raises(NoRootError):
        spectral_singularity(SlabParams((1.5 - 0.05j) ** 2, 1.0, 1.0), "k", guess=1.0 - 1000j)


def test_singularity_rejects_bad_unknown():
    with pytest.raises(ValueError):
        spectral_singularity(SlabParams(2.0, 1.0, 2.0), "K", guess=1.0)
