import warnings

import numpy as np
import pytest

from tmscat import (Delta3D, EvolutionConfig, GaussianBump, Slab, SlabParams,
                    SpectralAmplitude, UnsupportedEvaluationError, amplitude3d,
                    build_disc_grid, build_grid, compose, delta3d_amplitude,
                    evolve_transfer, point_operator, quadrature, scattering_length,
                    slab_entries, slab_operator, solve_outgoing)
from tmscat.evolution import potential_kernel
from tmscat.operators import _trig_interpolate, identity_operator


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
    op = point_operator(0.0, disc)
    assert op.kernel is None and op.kernel_at_zero is None


def test_point_extraction_matches_self_consistent_solution(disc):
    strength = 0.8 - 0.3j
    t_plus, t_minus, flag = solve_outgoing(point_operator(strength, disc))
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
        tp, tm, _ = solve_outgoing(point_operator(strength, d))
        vals.append(complex(tm.smooth[0] * d.omegas[0]))  # omega T is constant
    assert abs(vals[0] - vals[1]) < 1e-12


def test_extraction_linearity(disc):
    op = point_operator(0.9j, disc)
    tp1, tm1, _ = solve_outgoing(op)
    c = 2.0 - 0.5j
    tpc, tmc, _ = solve_outgoing(op, incident=c)
    assert np.allclose(tmc.smooth, c * tm1.smooth, rtol=1e-13, atol=1e-16)
    assert np.allclose(tpc.smooth, c * tp1.smooth, rtol=1e-13, atol=1e-16)


def test_compose_rejects_grid_mismatch(disc):
    other = build_disc_grid(disc.k, disc.n_radial, disc.n_azimuthal + 2)
    with pytest.raises(ValueError):
        compose(point_operator(1.0, disc), point_operator(1.0, other))
    with pytest.raises(ValueError):
        compose(point_operator(1.0, disc), identity_operator(build_grid(disc.k, disc.size)))


def test_amplitude_zero_and_exclusion(disc):
    tp, tm, _ = solve_outgoing(identity_operator(disc))
    assert amplitude3d(tp, tm, disc.k, 0.5, 1.0) == 0
    with pytest.raises(ValueError):
        amplitude3d(tp, tm, disc.k, np.pi / 2, 0.0)


@pytest.mark.parametrize("theta, phi", [(np.nan, 0.0), (0.5, np.nan), (np.inf, 0.0),
                                        (0.5, -np.inf)])
def test_amplitude_rejects_non_finite_angles(disc, theta, phi):
    tp, tm, _ = solve_outgoing(point_operator(1.0 + 0.5j, disc))
    name = "theta" if not np.isfinite(theta) else "phi"
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        amplitude3d(tp, tm, disc.k, theta, phi)


@pytest.mark.parametrize("side, theta", [("t_plus", 0.5), ("t_minus", np.pi - 0.5)],
                         ids=["t_plus", "t_minus"])
def test_amplitude_rejects_non_finite_smooth_samples(disc, side, theta):
    # the amplitude read at theta holds one nan sample: ValueError, not nan
    amps = dict(zip(("t_plus", "t_minus"), solve_outgoing(point_operator(1.0 + 0.5j, disc))))
    smooth = amps[side].smooth.copy()
    smooth[5] = np.nan
    amps[side] = SpectralAmplitude(disc, 0j, smooth)
    with pytest.raises(ValueError, match=f"{side} smooth must be finite"):
        amplitude3d(amps["t_plus"], amps["t_minus"], disc.k, theta, 0.4)


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
    tp, tm, _ = solve_outgoing(point_operator(strength, disc))
    want = delta3d_amplitude(strength, disc.k)
    for theta in (0.3, 1.2, 2.0, 2.8):
        for phi in (0.0, 1.1, 4.4):
            assert abs(amplitude3d(tp, tm, disc.k, theta, phi) - want) < 1e-10


def test_amplitude_checks_wavenumber_and_grid(disc):
    tp, tm, _ = solve_outgoing(point_operator(1.7, disc))
    with pytest.raises(ValueError, match="wavenumber"):
        amplitude3d(tp, tm, 2 * disc.k, 0.7, 0.4)
    # same channel count, different grid
    _, other, _ = solve_outgoing(point_operator(1.7, build_disc_grid(disc.k, 8, 12)))
    with pytest.raises(ValueError, match="different grids"):
        amplitude3d(tp, other, disc.k, 0.7, 0.4)


def test_amplitude3d_refuses_momentum_grid_amplitudes():
    grid = build_grid(1.7, 12)
    t_plus, t_minus, _ = solve_outgoing(point_operator(1.0, grid))
    with pytest.raises(ValueError, match="DiscGrid"):
        amplitude3d(t_plus, t_minus, grid.k, 0.7, 0.4)


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
    op = evolve_transfer(Slab(epsilon=eps, thickness=length), disc,
                         EvolutionConfig(0.0, length, 600))
    got = op.mult_on_grid()
    sp = SlabParams(epsilon=eps, thickness=length, k=disc.k)
    want = slab_entries(sp, disc.omegas.astype(complex))
    assert np.max(np.abs(got - want)) < 1e-8
    # beam channel too
    want0 = slab_entries(sp, np.array([disc.k], dtype=complex))[:, :, 0]
    assert np.max(np.abs(op.mult_at_zero() - want0)) < 1e-8


def test_stacked_layers_compose(disc):
    pot = Slab(epsilon=2 + 0.01j, thickness=1.0)
    full = evolve_transfer(pot, disc, EvolutionConfig(0.0, 1.0, 800))
    upper = evolve_transfer(pot, disc, EvolutionConfig(0.5, 1.0, 400))
    lower = evolve_transfer(pot, disc, EvolutionConfig(0.0, 0.5, 400))
    got = compose(upper, lower).mult_on_grid()
    assert np.max(np.abs(got - full.mult_on_grid())) < 1e-6


def test_windowed_layer_evolution_matches_slab_operator_on_the_disc(disc):
    # any disc evolves, 256 channels included: a layer costs one 2x2
    # evolution per distinct frequency, 17 on the 16 x 16 disc
    edges = np.linspace(-0.3, 1.2, 6)
    for grid in (disc, build_disc_grid(1.8, 16, 16)):
        sp = SlabParams(epsilon=2.2 + 0.03j, thickness=0.9, k=grid.k)
        pot = Slab(epsilon=sp.epsilon, thickness=sp.thickness)
        op = identity_operator(grid)
        for a, b in zip(edges, edges[1:]):
            op = compose(evolve_transfer(pot, grid, EvolutionConfig(a, b, 120)), op)
        want = slab_operator(sp, grid)
        assert want.kernel is None and op.kernel is None
        assert np.max(np.abs(op.mult - want.mult)) < 1e-8
    # two translated halves glue to the whole slab on the disc's channels
    sp = SlabParams(epsilon=2.2 + 0.03j, thickness=0.9, k=disc.k)
    half = SlabParams(epsilon=sp.epsilon, thickness=sp.thickness / 2, k=disc.k)
    glued = compose(slab_operator(half, disc, x0=sp.thickness / 2), slab_operator(half, disc))
    assert np.max(np.abs(glued.mult - slab_operator(sp, disc).mult)) < 1e-12


def test_potential_kernel_on_the_disc_takes_layers_only(disc):
    with pytest.raises(UnsupportedEvaluationError, match="transverse-uniform"):
        potential_kernel(GaussianBump(amplitude=1.0, center=(0, 0), widths=(1, 1)), 0.0, disc)
    zt = disc.k ** 2 * (1 - 2.0)
    assert np.array_equal(potential_kernel(Slab(epsilon=2.0, thickness=1.0), 0.5, disc),
                          zt * np.eye(disc.size))


def test_resource_limit_and_unsupported():
    # no channel cap: the 20 x 10 disc (200 channels) evolves a layer and
    # matches the slab's closed form
    big = build_disc_grid(1.0, 20, 10)
    sp = SlabParams(epsilon=2.0, thickness=1.0, k=big.k)
    op = evolve_transfer(Slab(epsilon=2.0, thickness=1.0), big, EvolutionConfig(-0.5, 1.5, 400))
    assert op.kernel is None
    assert np.max(np.abs(op.mult - slab_operator(sp, big).mult)) < 1e-8
    small = build_disc_grid(1.0, 4, 4)
    # neither is transverse-uniform; the axis-singular point defect is
    # rejected by the same guard as the bump
    for pot in (GaussianBump(amplitude=1.0, center=(0, 0), widths=(1, 1)),
                Delta3D(strength=1.7 + 0.2j)):
        with pytest.raises(UnsupportedEvaluationError, match="transverse-uniform"):
            evolve_transfer(pot, small, EvolutionConfig(0.0, 1.0, 10))
    with pytest.raises(ValueError, match="below"):
        EvolutionConfig(1.0, 0.0, 10)


def test_evolve_transfer_applies_the_disc_grid_rules():
    # the engine itself refuses what a disc grid cannot evolve
    cfg = EvolutionConfig(-4.0, 4.0, 10)
    bump = GaussianBump(amplitude=1.0, center=(0, 0), widths=(1, 1))
    with pytest.raises(UnsupportedEvaluationError, match="transverse-uniform"):
        evolve_transfer(bump, build_disc_grid(1.3, 4, 4), cfg)
