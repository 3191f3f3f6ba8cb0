"""Acceptance checks: one callable per criterion, usable from tests or the CLI.

Each criterion returns a CriterionResult with the measured figure of merit in
`detail`; `run_all` never raises (failures and exceptions are recorded).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import closedforms as cf
from . import oracle, threed
from .errors import SpectralSingularityError
from .evolution import EvolutionConfig, auto_config, evolve_transfer
from .grid import build_grid, quadrature
from .operators import amplitude, compose, identity_operator, solve_outgoing
from .potentials import GaussianBump, Slab


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} criterion {self.index:2d} {self.name}: {self.detail} [{self.seconds:.2f}s]"


def _angles(count: int) -> np.ndarray:
    """count angles in [0, 2 pi) bounded away from the excluded quadrants."""
    t = np.linspace(0.0, 2 * np.pi, count, endpoint=False) + 0.11
    return t[np.abs(np.cos(t)) > 0.05][:count]


def criterion_1() -> CriterionResult:
    """2D point potential: operator pipeline equals the closed form."""
    t0 = time.perf_counter()
    grid = build_grid(2.0, 32)
    thetas = _angles(60)[:50]
    worst = 0.0
    for strength in (1.0, 1.0j, 2.0 - 3.0j):
        op = cf.delta2d_operator(strength, grid)
        t_plus, t_minus, _ = solve_outgoing(op)
        exact = cf.delta2d_amplitude(strength)
        for _, f in amplitude(t_plus, t_minus, grid.k, thetas):
            worst = max(worst, abs(f - exact))
    dt = time.perf_counter() - t0
    ok = worst < 1e-10 and dt < 1.0
    return CriterionResult(1, "2D delta exactness", ok,
                           f"max |df| = {worst:.2e} (tol 1e-10), runtime {dt:.2f}s (< 1 s)", dt)


def criterion_2() -> CriterionResult:
    """Weak-coupling remainder of the exact amplitude is second order."""
    t0 = time.perf_counter()
    ratios = [abs(cf.delta2d_amplitude(z) - cf.born2d_amplitude(z)) / abs(z) ** 2
              for z in (1e-2, 1e-3, 1e-4)]
    spread = max(ratios) / min(ratios) - 1.0
    ok = spread < 0.05
    return CriterionResult(2, "Born limit", ok,
                           f"remainder/|z|^2 spread = {spread:.2e} (tol 5e-2)",
                           time.perf_counter() - t0)


def criterion_3() -> CriterionResult:
    """strength = 4i is singular in closed form and pipeline; wire round trip."""
    t0 = time.perf_counter()
    closed_raises = False
    try:
        cf.delta2d_amplitude(4.0j)
    except SpectralSingularityError:
        closed_raises = True
    grid = build_grid(1.5, 24)
    _, _, flag = solve_outgoing(cf.delta2d_operator(4.0j, grid))
    k = cf.wire_modes(-1.0, "lasing")
    strength = cf.DefectParams.from_wire(-1.0, k).strength
    exact_roundtrip = (k == 2.0) and (strength == 4.0j)
    k_cpa = cf.wire_modes(4.0, "CPA")
    raises_at_k = False
    try:
        cf.delta2d_amplitude(strength)
    except SpectralSingularityError:
        raises_at_k = True
    ok = closed_raises and flag.is_singular and exact_roundtrip and raises_at_k and k_cpa == 1.0
    detail = (f"closed-form raises: {closed_raises}, pipeline flag: {flag.kind}, "
              f"round trip exact: {exact_roundtrip}, CPA k(zeta=4) = {k_cpa}")
    return CriterionResult(3, "spectral singularity", ok, detail, time.perf_counter() - t0)


def criterion_4() -> CriterionResult:
    """Numeric slab evolution matches the closed form entrywise."""
    t0 = time.perf_counter()
    grid = build_grid(2.0, 16)
    sp = cf.SlabParams(epsilon=2 + 0.01j, thickness=1.0, k=2.0)
    num = evolve_transfer(Slab(epsilon=2 + 0.01j, thickness=1.0), grid,
                          EvolutionConfig(0.0, 1.0, 4000))
    idx = np.arange(grid.size)
    got = num.entries_on_grid()[:, :, idx, idx]
    want = cf.slab_operator(sp, grid).entries_on_grid()[:, :, idx, idx]
    rel = float(np.max(np.abs(got - want) / np.abs(want)))
    dt = time.perf_counter() - t0
    ok = rel < 1e-6 and dt < 10.0
    return CriterionResult(4, "slab numeric vs analytic", ok,
                           f"max rel err = {rel:.2e} (tol 1e-6), runtime {dt:.2f}s (< 10 s)", dt)


def criterion_5() -> CriterionResult:
    """Slab closed form at p = 0 equals the 1D rectangular-barrier oracle."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(10):
        eps = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
        if abs(eps) > 5:
            eps *= 4.9 / abs(eps)
        length = float(rng.uniform(0.3, 1.2))
        k = float(rng.uniform(0.8, 2.0))
        sp = cf.SlabParams(epsilon=eps, thickness=length, k=k)
        want = cf.slab_entries(sp, np.array([k], dtype=complex))[:, :, 0]
        zt = k * k * (1 - eps)
        got = oracle.transfer_1d(lambda x: zt, (0.0, length), k, steps=4000).matrix
        worst = max(worst, float(np.max(np.abs(got - want)) / np.max(np.abs(want))))
    ok = worst < 1e-8
    return CriterionResult(5, "1D reduction", ok,
                           f"worst rel err over 10 draws = {worst:.2e} (tol 1e-8)",
                           time.perf_counter() - t0)


def criterion_6() -> CriterionResult:
    """Half-layer products equal full layers: closed form, numeric, 3D."""
    t0 = time.perf_counter()
    eps, length, k = 2 + 0.01j, 1.0, 2.0
    grid = build_grid(k, 16)
    full = cf.slab_operator(cf.SlabParams(eps, length, k), grid).mult_on_grid()
    half = cf.SlabParams(eps, length / 2, k)
    closed = compose(cf.slab_operator(half, grid, x0=length / 2),
                     cf.slab_operator(half, grid)).mult_on_grid()
    err_closed = float(np.max(np.abs(closed - full)))

    pot = Slab(epsilon=eps, thickness=length)
    num_full = evolve_transfer(pot, grid, EvolutionConfig(0.0, length, 1600))
    num_halves = compose(
        evolve_transfer(pot, grid, EvolutionConfig(length / 2, length, 800)),
        evolve_transfer(pot, grid, EvolutionConfig(0.0, length / 2, 800)))
    err_num = float(np.max(np.abs(num_halves.entries_on_grid() - num_full.entries_on_grid())))

    disc = threed.build_disc_grid(k, 10, 6)
    full3 = threed.evolve_transfer_3d(pot, disc, 0.0, length, 800).mult_on_grid()
    halves3 = compose(
        threed.evolve_transfer_3d(pot, disc, length / 2, length, 400),
        threed.evolve_transfer_3d(pot, disc, 0.0, length / 2, 400)).mult_on_grid()
    err_3d = float(np.max(np.abs(halves3 - full3)))

    ok = err_closed < 1e-12 and err_num < 1e-6 and err_3d < 1e-6
    return CriterionResult(6, "composition", ok,
                           f"closed {err_closed:.2e} (1e-12), numeric {err_num:.2e} (1e-6), "
                           f"3D {err_3d:.2e} (1e-6)", time.perf_counter() - t0)


def criterion_7(n: int = 2048) -> CriterionResult:
    """Slab-with-defect closed form against the compose+solve pipeline."""
    t0 = time.perf_counter()
    sp = cf.SlabParams(epsilon=2 + 0.01j, thickness=1.0, k=2.0)
    strength = 1.0
    grid = build_grid(sp.k, n)
    op = compose(cf.slab_operator(sp, grid), cf.delta2d_operator(strength, grid))
    t_plus, t_minus, _ = solve_outgoing(op)
    exact = cf.slab_defect_amplitudes(sp, strength, grid.nodes)
    err = max(float(np.max(np.abs(t_minus.smooth - exact.smooth_minus))),
              float(np.max(np.abs(t_plus.smooth - exact.smooth_plus))),
              abs(t_minus.delta_coeff - exact.delta_minus),
              abs(t_plus.delta_coeff - exact.delta_plus))
    # the identity check inside slab_defect_amplitudes enforces 1e-10; measure it
    x_k, _ = cf.slab_xyz(sp, sp.k)
    ident = cf.defect_identity_residual(sp, strength, x_k, cf.slab_y(sp, strength))
    ok = err < 1e-8 and ident < 1e-10
    return CriterionResult(7, "slab + defect consistency", ok,
                           f"pipeline vs direct (N={n}) {err:.2e} (tol 1e-8), "
                           f"identity {ident:.2e} (tol 1e-10)", time.perf_counter() - t0)


def criterion_8() -> CriterionResult:
    """Threshold-gain curve shape and normal-direction value."""
    t0 = time.perf_counter()
    length = 1.0
    theta = np.arange(0.0, 180.5, 1.0)
    ok = True
    details = []
    for eta in (1.2, 1.5, 3.0):
        g = cf.threshold_gain_curve(eta, length, theta)
        interior = g[(theta > 0) & (theta < 90)]
        decreasing = bool(np.all(np.diff(interior) < 0)) and g[0] > interior[0]
        zero_at_90 = g[theta == 90.0][0] == 0.0
        maximal = g[0] == np.max(g)
        sym = float(np.max(np.abs(g - g[::-1])))
        want = (4.0 / length) * np.log((eta + 1) / np.sqrt(eta * eta - 1))
        normal_err = abs(g[0] - want)
        ok = ok and decreasing and zero_at_90 and maximal and sym < 1e-12 and normal_err < 1e-12
        details.append(f"eta={eta}: g(0) err {normal_err:.1e}, sym {sym:.1e}, "
                       f"monotone {decreasing}, g(90)=0 {zero_at_90}")
    return CriterionResult(8, "threshold-gain curve", ok, "; ".join(details),
                           time.perf_counter() - t0)


def criterion_9() -> CriterionResult:
    """3D point potential: pipeline exactness, isotropy, scattering length."""
    t0 = time.perf_counter()
    strength = 1.7
    k = 1.3
    disc = threed.build_disc_grid(k, 16, 8)
    t_plus, t_minus, _ = solve_outgoing(threed.delta3d_operator(strength, disc))
    exact = threed.delta3d_amplitude(strength, k)
    thetas = np.concatenate([np.linspace(0.25, 1.35, 4), np.linspace(1.85, 2.9, 4)])
    phis = np.linspace(0.0, 2 * np.pi, 4, endpoint=False)
    samples = [threed.amplitude3d(t_plus, t_minus, k, th, ph)
               for th in thetas for ph in phis]
    err = max(abs(f - exact) for f in samples)
    iso = max(abs(f - samples[0]) for f in samples)

    def pipeline_f(kk: float) -> complex:
        d = threed.build_disc_grid(kk, 12, 6)
        tp, tm, _ = solve_outgoing(threed.delta3d_operator(strength, d))
        return threed.amplitude3d(tp, tm, kk, 0.7, 0.3)

    f1, f2 = pipeline_f(1e-4), pipeline_f(5e-5)
    xi = -(2 * f2 - f1)
    xi_err = abs(xi - threed.scattering_length(strength))

    mu = 4 * np.pi / abs(strength)
    vals = [abs(threed.delta3d_amplitude(strength, kk)) ** 2 * (kk * kk + mu * mu)
            for kk in (0.5, 1.0, 2.0, 4.0)]
    const_err = max(abs(v - 1.0) for v in vals)
    ok = err < 1e-10 and iso < 1e-10 and xi_err < 1e-10 and const_err < 1e-10
    return CriterionResult(9, "3D delta", ok,
                           f"pipeline err {err:.2e}, isotropy {iso:.2e}, xi err {xi_err:.2e}, "
                           f"|f|^2 (k^2+mu^2) dev {const_err:.2e} (all tol 1e-10)",
                           time.perf_counter() - t0)


def criterion_10() -> CriterionResult:
    """Quadrature identities: channel average of 1/omega and the disc integral."""
    t0 = time.perf_counter()
    grid = build_grid(3.0, 16)
    err_half = abs(quadrature(grid, 1.0 / grid.omegas) - 0.5)
    disc = threed.build_disc_grid(1.7, 12, 8)
    err_disc = abs(quadrature(disc, 1.0 / disc.omegas) * (4 * np.pi ** 2)
                   - 2 * np.pi * disc.k)
    ok = err_half < 1e-14 and err_disc < 1e-12
    return CriterionResult(10, "quadrature identities", ok,
                           f"1/2 identity err {err_half:.1e} (1e-14), "
                           f"disc 2 pi k err {err_disc:.1e} (1e-12)",
                           time.perf_counter() - t0)


def criterion_11() -> CriterionResult:
    """Property suite: free region, associativity, linearity, parity."""
    t0 = time.perf_counter()
    grid = build_grid(1.5, 14)

    # free region: zero potential evolves to exactly the identity
    off = evolve_transfer(GaussianBump(amplitude=0.0, center=(0.0, 0.0), widths=(0.8, 0.8)),
                          grid, EvolutionConfig(-2.0, 2.0, 50))
    free_ok = (off.kernel is None and off.kernel_at_zero is None
               and np.array_equal(off.mult_at_zero(), np.eye(2)))

    # associativity of composition
    sp = cf.SlabParams(epsilon=1.4 + 0.1j, thickness=0.7, k=1.5)
    a = cf.slab_operator(sp, grid, x0=1.0)
    b = cf.delta2d_operator(0.8 - 0.2j, grid)
    c = cf.slab_operator(cf.SlabParams(1.8, 0.4, 1.5), grid, x0=-1.0)
    left = compose(a, compose(b, c)).entries_on_grid()
    right = compose(compose(a, b), c).entries_on_grid()
    assoc = float(np.max(np.abs(left - right)))

    # extraction linearity in the incident coefficient
    op = compose(cf.slab_operator(sp, grid, x0=1.0), cf.delta2d_operator(0.5j, grid))
    tp1, tm1, _ = solve_outgoing(op)
    tpc, tmc, _ = solve_outgoing(op, incident=2.0 - 1.0j)
    scale = 2.0 - 1.0j
    lin = max(float(np.max(np.abs(tpc.smooth - scale * tp1.smooth))),
              float(np.max(np.abs(tmc.smooth - scale * tm1.smooth))),
              abs(tmc.delta_coeff - scale * tm1.delta_coeff))

    # parity: a centered y-even bump scatters symmetrically
    pot = GaussianBump(amplitude=0.5, center=(0.0, 0.0), widths=(0.8, 0.8))
    num = evolve_transfer(pot, grid, auto_config(pot, 600))
    t_plus, t_minus, _ = solve_outgoing(num)
    thetas = np.array([0.3, 0.8, 2.4, 2.9])
    f_pos = amplitude(t_plus, t_minus, grid.k, thetas)
    f_neg = amplitude(t_plus, t_minus, grid.k, -thetas)
    parity = max(abs(fp[1] - fn[1]) for fp, fn in zip(f_pos, f_neg))

    dt = time.perf_counter() - t0
    ok = free_ok and assoc < 1e-12 and lin < 1e-12 and parity < 1e-6 and dt < 60.0
    return CriterionResult(11, "property suite", ok,
                           f"free-region exact {free_ok}, associativity {assoc:.2e} (1e-12), "
                           f"linearity {lin:.2e}, parity {parity:.2e} (1e-6), "
                           f"runtime {dt:.1f}s (< 60 s)", dt)


CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
            criterion_11)


def run_all() -> list[CriterionResult]:
    results = []
    for i, fn in enumerate(CRITERIA, start=1):
        t0 = time.perf_counter()
        try:
            results.append(fn())
        except Exception as exc:  # a criterion must never abort the sweep
            results.append(CriterionResult(i, fn.__name__, False,
                                           f"raised {type(exc).__name__}: {exc}",
                                           time.perf_counter() - t0))
    return results
