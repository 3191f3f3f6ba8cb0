import warnings

import numpy as np
import pytest

from tmscat import (Delta3D, GaussianBump, ResourceLimitError, Slab, SlabParams,
                    SpectralAmplitude, UnsupportedEvaluationError, amplitude3d,
                    build_disc_grid, build_grid, compose_3d, delta3d_amplitude,
                    delta3d_operator, evolve_transfer_3d, identity_operator,
                    quadrature, scattering_length, slab_entries, solve_outgoing_3d)
from tmscat.threed import _trig_interpolate


@pytest.fixture
def disc():
    return build_disc_grid(1.7, 12, 8)


def test_grid_nodes_inside_disc(disc):
    rho = np.hypot(disc.px, disc.py)
    assert np.all(rho < disc.k)
    assert np.all(disc.omegas > 0)
    assert np.allclose(disc.omegas ** 2 + rho ** 2, disc.k ** 2, rtol=1e-14)


def test_disc_integral_identities(disc):
    # int_disc d2p / omega = 2 pi k and area = pi k^2, both to machine precision
    total = quadrature(disc, 1.0 / disc.omegas) * 4 * np.pi ** 2
    assert abs(total - 2 * np.pi * disc.k) < 1e-12
    area = quadrature(disc, np.ones(disc.size)) * 4 * np.pi ** 2
    assert abs(area - np.pi * disc.k ** 2) < 1e-12


def test_constant_average(disc):
    # f == 1 -> k^2 / (4 pi)
    assert abs(quadrature(disc, np.ones(disc.size)) - disc.k ** 2 / (4 * np.pi)) < 1e-14


def test_odd_integrand_vanishes(disc):
    assert abs(quadrature(disc, disc.px)) < 1e-14
    assert abs(quadrature(disc, disc.px / disc.omegas)) < 1e-14


def test_disc_quadrature_validates_length(disc):
    with pytest.raises(ValueError):
        quadrature(disc, np.ones(3))


def test_grid_validation():
    with pytest.raises(ValueError):
        build_disc_grid(0.0, 4, 4)
    with pytest.raises(ValueError):
        build_disc_grid(1.0, 1, 4)


@pytest.mark.parametrize("n_radial, n_azimuthal", [(2.7, 3.9), (4, 4.5), (4.5, 4)])
def test_grid_rejects_non_integer_sizes(n_radial, n_azimuthal):
    with pytest.raises(ValueError):
        build_disc_grid(1.0, n_radial, n_azimuthal)
    assert build_disc_grid(1.0, 4.0, 6.0).size == 24


def test_point_operator_zero_coupling_is_identity(disc):
    op = delta3d_operator(0.0, disc)
    assert op.kernel is None and op.kernel_at_zero is None


def test_point_extraction_matches_self_consistent_solution(disc):
    strength = 0.8 - 0.3j
    t_plus, t_minus, flag = solve_outgoing_3d(delta3d_operator(strength, disc))
    b_plus_1 = 4 * np.pi / (4 * np.pi + 1j * strength * disc.k)
    want = -1j * strength * b_plus_1 / (2 * disc.omegas)
    assert np.max(np.abs(t_minus.smooth - want)) < 1e-10
    assert np.max(np.abs(t_plus.smooth - want)) < 1e-10
    assert flag.kind == "none"
    # isotropy: azimuthal variation of omega T stays at roundoff
    ring = (disc.omegas * t_minus.smooth).reshape(disc.n_radial, disc.n_azimuthal)
    assert np.max(np.abs(ring - ring[:, :1])) < 1e-10


def test_point_extraction_grid_size_independent():
    strength = 1.1 + 0.2j
    k = 1.3
    vals = []
    for nr, na in ((8, 4), (16, 10)):
        d = build_disc_grid(k, nr, na)
        tp, tm, _ = solve_outgoing_3d(delta3d_operator(strength, d))
        vals.append(complex(tm.smooth[0] * d.omegas[0]))  # omega T is constant
    assert abs(vals[0] - vals[1]) < 1e-12


def test_extraction_linearity(disc):
    op = delta3d_operator(0.9j, disc)
    tp1, tm1, _ = solve_outgoing_3d(op)
    c = 2.0 - 0.5j
    tpc, tmc, _ = solve_outgoing_3d(op, incident=c)
    assert np.allclose(tmc.smooth, c * tm1.smooth, rtol=1e-13, atol=1e-16)
    assert np.allclose(tpc.smooth, c * tp1.smooth, rtol=1e-13, atol=1e-16)


def test_compose_rejects_grid_mismatch(disc):
    other = build_disc_grid(disc.k, disc.n_radial, disc.n_azimuthal + 2)
    with pytest.raises(ValueError):
        compose_3d(delta3d_operator(1.0, disc), delta3d_operator(1.0, other))
    with pytest.raises(ValueError):
        compose_3d(delta3d_operator(1.0, disc), identity_operator(build_grid(disc.k, disc.size)))


def test_amplitude_zero_and_exclusion(disc):
    tp, tm, _ = solve_outgoing_3d(identity_operator(disc))
    assert amplitude3d(tp, tm, disc.k, 0.5, 1.0) == 0
    with pytest.raises(ValueError):
        amplitude3d(tp, tm, disc.k, np.pi / 2, 0.0)


def test_amplitude_interpolation_exact_on_band_limited_data(disc):
    # manufactured smooth part: low azimuthal modes over a polynomial in
    # omega, resolved exactly by the radial x trigonometric interpolant
    a, b, c = 0.7 - 0.2j, 0.3 + 0.1j, -0.15j
    phi_pts = np.arctan2(disc.py, disc.px)
    smooth = (a + b * np.exp(1j * phi_pts) + c * np.exp(-2j * phi_pts)) / disc.omegas
    amp = SpectralAmplitude(grid=disc, delta_coeff=0.0, smooth=smooth)
    for theta, phi in [(0.4, 0.9), (1.1, 2.2), (2.5, 5.0)]:
        got = amplitude3d(amp, amp, disc.k, theta, phi)
        want = -1j / (2 * np.pi) * (a + b * np.exp(1j * phi) + c * np.exp(-2j * phi))
        assert abs(got - want) < 1e-13


def test_amplitude_interpolation_exact_on_odd_azimuthal_grid():
    # an odd azimuth count has no Nyquist mode: the highest modes +-3 of a
    # 7-point ring are resolved like the others
    disc = build_disc_grid(1.7, 8, 7)
    a, b, c, d = 0.7 - 0.2j, 0.3 + 0.1j, -0.15j, 0.2 - 0.05j
    phi_pts = np.arctan2(disc.py, disc.px)
    smooth = (a + b * np.exp(1j * phi_pts) + c * np.exp(-2j * phi_pts)
              + d * np.exp(3j * phi_pts)) / disc.omegas
    amp = SpectralAmplitude(grid=disc, delta_coeff=0.0, smooth=smooth)
    for theta, phi in [(0.4, 0.9), (1.1, 2.2), (2.5, 5.0)]:
        got = amplitude3d(amp, amp, disc.k, theta, phi)
        want = -1j / (2 * np.pi) * (a + b * np.exp(1j * phi) + c * np.exp(-2j * phi)
                                    + d * np.exp(3j * phi))
        assert abs(got - want) < 1e-13


def _theta_on_radial_node(disc):
    """(theta, j) with k |cos theta| equal to the radial node omega_j exactly."""
    for j, w in enumerate(disc.omega_radial):
        for toward in (np.inf, -np.inf):
            theta = np.arccos(w / disc.k)
            for _ in range(64):
                if disc.k * abs(np.cos(theta)) == w:
                    return float(theta), j
                theta = np.nextafter(theta, toward)
    raise AssertionError("no angle hits a radial node exactly")


def test_amplitude_on_a_radial_node_is_the_ring_interpolant(disc):
    theta, j = _theta_on_radial_node(disc)
    rng = np.random.default_rng(7)
    smooth = (rng.standard_normal(disc.size) + 1j * rng.standard_normal(disc.size)) / disc.omegas
    amp = SpectralAmplitude(grid=disc, delta_coeff=0.0, smooth=smooth)
    ring = (disc.omegas * smooth).reshape(disc.n_radial, disc.n_azimuthal)[j]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for phi in (0.0, 1.3, 4.1):
            got = amplitude3d(amp, amp, disc.k, theta, phi)
            assert got == -1j / (2 * np.pi) * _trig_interpolate(ring, phi)


def test_point_amplitude_matches_closed_form(disc):
    strength = 1.7
    tp, tm, _ = solve_outgoing_3d(delta3d_operator(strength, disc))
    want = delta3d_amplitude(strength, disc.k)
    for theta in (0.3, 1.2, 2.0, 2.8):
        for phi in (0.0, 1.1, 4.4):
            assert abs(amplitude3d(tp, tm, disc.k, theta, phi) - want) < 1e-10


def test_amplitude_checks_wavenumber_and_grid(disc):
    tp, tm, _ = solve_outgoing_3d(delta3d_operator(1.7, disc))
    with pytest.raises(ValueError, match="wavenumber"):
        amplitude3d(tp, tm, 2 * disc.k, 0.7, 0.4)
    # same channel count, different grid
    _, other, _ = solve_outgoing_3d(delta3d_operator(1.7, build_disc_grid(disc.k, 8, 12)))
    with pytest.raises(ValueError, match="different grids"):
        amplitude3d(tp, other, disc.k, 0.7, 0.4)


def test_scattering_length_and_cross_section_scale():
    strength = 2.4
    assert abs(scattering_length(strength) - strength / (4 * np.pi)) < 1e-16
    mu = 4 * np.pi / abs(strength)
    vals = [abs(delta3d_amplitude(strength, k)) ** 2 * (k * k + mu * mu)
            for k in (0.3, 1.0, 3.0)]
    assert max(abs(v - 1) for v in vals) < 1e-12


# ---------------------------------------------------------------------------
# layered potentials along z
# ---------------------------------------------------------------------------

def test_layer_evolution_matches_channel_closed_form(disc):
    eps, length = 2 + 0.01j, 1.0
    op = evolve_transfer_3d(Slab(epsilon=eps, thickness=length), disc, 0.0, length, 600)
    got = op.mult_on_grid()
    sp = SlabParams(epsilon=eps, thickness=length, k=disc.k)
    want = slab_entries(sp, disc.omegas.astype(complex))
    assert np.max(np.abs(got - want)) < 1e-8
    # beam channel too
    want0 = slab_entries(sp, np.array([disc.k], dtype=complex))[:, :, 0]
    assert np.max(np.abs(op.mult_at_zero() - want0)) < 1e-8


def test_stacked_layers_compose(disc):
    pot = Slab(epsilon=2 + 0.01j, thickness=1.0)
    full = evolve_transfer_3d(pot, disc, 0.0, 1.0, 800)
    upper = evolve_transfer_3d(pot, disc, 0.5, 1.0, 400)
    lower = evolve_transfer_3d(pot, disc, 0.0, 0.5, 400)
    got = compose_3d(upper, lower).mult_on_grid()
    assert np.max(np.abs(got - full.mult_on_grid())) < 1e-6


def test_resource_limit_and_unsupported():
    big = build_disc_grid(1.0, 20, 10)
    with pytest.raises(ResourceLimitError):
        evolve_transfer_3d(Slab(epsilon=2.0, thickness=1.0), big, 0.0, 1.0, 10)
    small = build_disc_grid(1.0, 4, 4)
    # neither is transverse-uniform; the axis-singular point defect is
    # rejected by the same guard as the bump
    for pot in (GaussianBump(amplitude=1.0, center=(0, 0), widths=(1, 1)),
                Delta3D(strength=1.7 + 0.2j)):
        with pytest.raises(UnsupportedEvaluationError, match="transverse-uniform"):
            evolve_transfer_3d(pot, small, 0.0, 1.0, 10)
    with pytest.raises(ValueError, match="below"):
        evolve_transfer_3d(Slab(epsilon=2.0, thickness=1.0), small, 1.0, 0.0, 10)
