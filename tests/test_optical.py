"""The optical theorem, sigma_ext - sigma_sc = sigma_abs, read on f(theta) from
`amplitude`: one identity that checks the evolution, the extraction of
`solve_outgoing` and the interpolation of omega T together, with no
reference solution.

In the paper's normalisation f(theta) = -(i / sqrt(2 pi)) [omega T](k sin
theta), sigma_sc = int_0^{2 pi} |f|^2 dtheta and sigma_ext = 2 sqrt(2 pi)
Im f(0); sigma_abs is 0 for a real potential, > 0 for loss and < 0 for
gain.  For the 2D point, f = -sqrt(2 / pi) z / (4 + iz), both sides are
4 z^2 / (16 + z^2) at real z.  The identity does not hold as written with a
y-independent member (a slab), whose coherent beam enters the balance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmscat import (GaussianBump, SumPotential, amplitude, auto_config, build_grid,
                    evolve_transfer, point_operator, solve_outgoing)


def cross_sections(op, points=200):
    """(sigma_sc, sigma_ext) of the operator's outgoing wave for a unit beam:
    sigma_sc by Gauss-Legendre on each half circle, where f is smooth in
    theta, and sigma_ext from the forward amplitude."""
    t_plus, t_minus, _ = solve_outgoing(op)
    x, w = np.polynomial.legendre.leggauss(points)
    thetas = np.concatenate((x, x + 2)) * (np.pi / 2)
    f = np.array([v for _, v in amplitude(t_plus, t_minus, op.grid.k, thetas)])
    sigma_sc = np.pi / 2 * np.sum(np.tile(w, 2) * np.abs(f) ** 2)
    (_, forward), = amplitude(t_plus, t_minus, op.grid.k, 0.0)
    return sigma_sc, 2 * np.sqrt(2 * np.pi) * forward.imag


def defect(op) -> float:
    sigma_sc, sigma_ext = cross_sections(op)
    return abs(sigma_sc - sigma_ext) / sigma_ext


def evolved(pot, n, steps, k=1.3):
    return evolve_transfer(pot, build_grid(k, n), auto_config(pot, steps))


def point_cross_sections(z):
    """(sigma_sc, sigma_ext) of the point z in closed form, from
    f = -sqrt(2 / pi) z / (4 + iz)."""
    return 4 * abs(z) ** 2 / abs(4 + 1j * z) ** 2, -4 * (z / (4 + 1j * z)).imag


def point(z):
    return point_operator(z, build_grid(1.3, 32))


# A point's T+ and T- have the same modulus at every p (at x = 0 they are
# equal), so an amplitude that read T+ at backward angles would give it the
# same |f| and forward f: the point tests check the extraction, the bump and
# pair tests the choice of T+ or T- as well.
@pytest.mark.parametrize("z", [0.7, 2.0])
def test_a_real_point_meets_the_optical_theorem(z):
    sigma_sc, sigma_ext = cross_sections(point(z))
    both = 4 * z * z / (16 + z * z)
    assert abs(sigma_sc - sigma_ext) <= 1e-12 * both
    assert abs(sigma_ext - both) <= 1e-12 * both


# the ranges of the benchmark's real single bumps (bench/workloads.py)
@settings(max_examples=12, deadline=None)
@given(amp=st.floats(0.05, 0.4), sign=st.sampled_from([1.0, -1.0]),
       center=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
       widths=st.tuples(st.floats(0.6, 0.9), st.floats(0.6, 0.9)), k=st.floats(1.1, 1.5))
def test_real_bumps_meet_the_optical_theorem(amp, sign, center, widths, k):
    # the defect is the grid's quadrature error: 1e-4 at most here at N = 32
    assert defect(evolved(GaussianBump(sign * amp, center, widths), 32, 800, k)) < 1e-3


@pytest.mark.parametrize("kind", ["bump", "point"])
def test_absorption_has_the_sign_of_minus_im_amplitude(kind):
    # sigma_abs = sigma_ext - sigma_sc: > 0 for loss (Im < 0), < 0 for gain
    absorbed = {}
    for imag in (0.05, -0.05):
        if kind == "bump":
            op = evolved(GaussianBump(complex(0.4, imag), (0.2, 0.5), (0.6, 0.8)), 32, 800)
        else:
            z = complex(1.0, 10 * imag)
            sigma_sc, sigma_ext = point_cross_sections(z)
            op = point(z)
        got_sc, got_ext = cross_sections(op)
        absorbed[imag] = got_ext - got_sc
        if kind == "point":
            assert abs(got_sc - sigma_sc) <= 1e-12 and abs(got_ext - sigma_ext) <= 1e-12
    assert absorbed[0.05] < 0 < absorbed[-0.05]
    if kind == "bump":
        # odd in Im(amplitude) at first order: -0.165 and +0.155
        assert abs(absorbed[0.05] + absorbed[-0.05]) <= 0.1 * (absorbed[-0.05] - absorbed[0.05])


def test_the_defect_of_a_pair_falls_with_the_grid():
    # f oscillates in theta with the pair's separation, so N = 32 resolves it
    # poorly; the defect is a resolution indicator that needs no reference
    pot = SumPotential((GaussianBump(0.4, (0.0, 0.0), (0.7, 0.9)),
                        GaussianBump(-0.3, (12.0, 0.0), (0.7, 0.9))))
    coarse, fine = (defect(evolved(pot, n, 1600)) for n in (32, 64))
    assert fine * 6 <= coarse
