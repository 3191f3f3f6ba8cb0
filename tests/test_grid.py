import math
import re

import numpy as np
import pytest

from tmscat import (EvolutionConfig, Slab, SumPotential, build_disc_grid, build_grid,
                    evolve_transfer, quadrature)
from tmscat.grid import SpectralAmplitude, barycentric_interpolate


def test_nodes_are_chebyshev_points():
    g = build_grid(1.0, 4)
    assert g.size == 4
    assert np.all(np.abs(g.nodes) < 1.0)
    assert np.allclose(g.weights, np.pi / 4)
    j = np.arange(1, 5)
    assert np.allclose(g.nodes, np.cos((2 * j - 1) * np.pi / 8))


def test_nodes_symmetric_and_consistent():
    g = build_grid(2.5, 9)
    assert np.allclose(np.sort(g.nodes), np.sort(-g.nodes), atol=1e-15)
    assert np.allclose(g.omegas ** 2 + g.nodes ** 2, g.k ** 2, rtol=1e-14)
    assert np.all(g.omegas > 0)
    # reversing the node order negates p and leaves omega invariant
    assert np.allclose(g.nodes[::-1], -g.nodes, atol=1e-15)
    assert np.allclose(g.omegas[::-1], g.omegas, rtol=1e-14)


@pytest.mark.parametrize("k, n", [(1.0, 2), (1.3, 5), (2.5, 16), (1.6, 33)])
def test_reflection_reverses_the_nodes(k, n):
    g = build_grid(k, n)
    r = g.reflection
    assert np.array_equal(np.sort(r), np.arange(n))
    eps = np.finfo(float).eps
    assert np.max(np.abs(g.nodes[r] + g.nodes)) <= 4 * eps * k
    for even in (g.omegas, g.measure):
        assert np.max(np.abs(even[r] - even)) <= 4 * eps * np.max(even)


def test_weighted_rule_integrates_constant_to_pi():
    for n in (2, 7, 64):
        g = build_grid(3.0, n)
        assert math.isclose(g.weights.sum(), np.pi, rel_tol=1e-15)


def test_channel_average_of_inverse_omega_is_half():
    # (1/2pi) int dp / sqrt(k^2 - p^2) = 1/2, exactly reproduced at any N
    for n in (2, 5, 33):
        g = build_grid(1.7, n)
        assert abs(quadrature(g, 1 / g.omegas) - 0.5) < 1e-15


def test_odd_integrand_vanishes():
    g = build_grid(1.0, 16)
    assert abs(quadrature(g, g.nodes / g.omegas)) < 1e-16
    assert abs(quadrature(g, g.nodes)) < 1e-16


def test_plain_average_converges_to_analytic_value():
    # (1/2pi) int_{-1}^{1} dp = 1/pi; the plain-measure rule is second order
    err = [abs(quadrature(build_grid(1.0, n), np.ones(n)) - 1 / np.pi)
           for n in (128, 256)]
    assert err[0] < 1e-4
    assert err[1] < err[0] / 3.5  # ~4x reduction per doubling


@pytest.mark.parametrize("m", range(0, 13))
def test_monomial_exactness(m):
    # quadrature of f / omega is a Gauss rule: exact for p^m, m < 2N - 1
    k, n = 1.3, 8
    g = build_grid(k, n)
    got = quadrature(g, g.nodes.astype(complex) ** m / g.omegas)
    if m % 2 == 1:
        want = 0.0
    else:
        half = m // 2
        want = k ** m * math.comb(m, half) / (2.0 * 4 ** half)
    assert abs(got - want) < 1e-14 * max(1.0, abs(want))


def test_quadrature_rejects_wrong_length():
    g = build_grid(1.0, 4)
    with pytest.raises(ValueError):
        quadrature(g, np.ones(5))


@pytest.mark.parametrize("k,n", [(0.0, 4), (-1.0, 4), (1.0, 1), (np.inf, 4)])
def test_build_grid_rejects_bad_arguments(k, n):
    with pytest.raises(ValueError):
        build_grid(k, n)


@pytest.mark.parametrize("call, message", [
    (lambda: build_grid(0.0, 8), "k must be positive, got 0.0"),
    (lambda: build_grid("1.3", 8), "k must be finite, got '1.3'"),
    (lambda: build_grid(1.3, "8"), "n must be an integer >= 2, got '8'"),
    (lambda: build_disc_grid(1.3, 1, 4), "n_radial must be an integer >= 2, got 1"),
    (lambda: build_disc_grid(1.3, 4, None), "n_azimuthal must be an integer >= 2, got None"),
], ids=["k-zero", "k-string", "n-string", "n_radial-one", "n_azimuthal-none"])
def test_grid_builders_word_each_rule_and_name_the_argument(call, message):
    # one wording per rule, naming the argument; a string is not a number
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_zero_amplitude():
    g = build_grid(1.0, 6)
    with pytest.raises(ValueError):
        SpectralAmplitude(grid=g, delta_coeff=0.0, smooth=np.zeros(5))


def test_barycentric_reproduces_polynomials():
    g = build_grid(1.0, 12)
    coeffs = np.array([0.3, -1.2, 0.7, 2.1, -0.4])
    vals = np.polyval(coeffs, g.nodes).astype(complex)
    x = np.linspace(-0.95, 0.95, 40)
    got = barycentric_interpolate(g.nodes, g.bary, vals, x)
    assert np.allclose(got, np.polyval(coeffs, x), atol=1e-13)


def test_barycentric_exact_at_nodes():
    g = build_grid(2.0, 7)
    vals = np.exp(1j * g.nodes)
    got = barycentric_interpolate(g.nodes, g.bary, vals, g.nodes[3])
    assert got[0] == vals[3]


def test_barycentric_node_hit_among_other_points():
    # the hit row returns the stored value, without a divide warning, and
    # leaves the other rows as they are without it
    g = build_grid(2.0, 9)
    vals = np.exp(1j * g.nodes) / (1.0 + g.nodes ** 2)
    x = np.array([-1.7, g.nodes[4], 0.3, g.nodes[0]])
    got = barycentric_interpolate(g.nodes, g.bary, vals, x)
    assert got[1] == vals[4] and got[3] == vals[0]
    assert np.array_equal(got[[0, 2]], barycentric_interpolate(g.nodes, g.bary, vals, x[[0, 2]]))


def test_barycentric_matrix_values_match_columns():
    # a row of samples per node interpolates column by column; a node hit
    # returns the stored row exactly
    g = build_grid(2.0, 9)
    rng = np.random.default_rng(5)
    vals = rng.standard_normal((9, 3)) + 1j * rng.standard_normal((9, 3))
    x = np.array([-1.7, g.nodes[4], 0.3, 1.1, g.nodes[0]])
    got = barycentric_interpolate(g.nodes, g.bary, vals, x)
    cols = np.stack([barycentric_interpolate(g.nodes, g.bary, vals[:, c], x)
                     for c in range(3)], axis=1)
    assert got.shape == (5, 3)
    assert np.array_equal(got[[1, 4]], vals[[4, 0]])
    assert np.array_equal(got[[1, 4]], cols[[1, 4]])
    assert np.allclose(got, cols, rtol=1e-14, atol=0.0)


# ---------------------------------------------------------------------------
# channel frequencies held on the grid
# ---------------------------------------------------------------------------

FREQUENCY_GRIDS = [pytest.param(lambda: build_grid(1.8, 9), id="2d-9"),
                   pytest.param(lambda: build_grid(1.8, 16), id="2d-16"),
                   pytest.param(lambda: build_grid(1.6, 24), id="2d-24"),
                   pytest.param(lambda: build_disc_grid(1.8, 10, 6), id="disc-10x6"),
                   pytest.param(lambda: build_disc_grid(1.3, 8, 7), id="disc-8x7"),
                   pytest.param(lambda: build_disc_grid(1.1, 3, 4), id="disc-3x4")]


@pytest.mark.parametrize("make", FREQUENCY_GRIDS)
def test_grid_holds_its_channel_frequencies(make):
    grid = make()
    channel = np.append(grid.omegas, grid.k)
    assert np.array_equal(grid.channel_omegas, channel)
    assert np.array_equal(grid.distinct_omegas[grid.distinct_index], channel)
    assert np.array_equal(grid.distinct_omegas, np.unique(channel))
    for a in (grid.channel_omegas, grid.distinct_omegas, grid.distinct_index):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = a[1]
    if hasattr(grid, "n_radial"):
        # the points of a ring share its frequency, and the beam adds k
        assert grid.distinct_omegas.size == grid.n_radial + 1


@pytest.mark.parametrize("make", FREQUENCY_GRIDS)
def test_layered_evolution_runs_no_unique(make, monkeypatch):
    grid = make()
    pot = SumPotential((Slab(1.5, 0.4), Slab(2.2 + 0.05j, 1.1)))
    cfg = EvolutionConfig(-0.2, 1.3, 60)
    want = evolve_transfer(pot, grid, cfg).mult

    def unique(*args, **kwargs):
        raise AssertionError("np.unique ran during a layered evolution")

    monkeypatch.setattr(np, "unique", unique)
    assert np.array_equal(evolve_transfer(pot, grid, cfg).mult, want)
