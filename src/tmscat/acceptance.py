"""Acceptance checks: one measurement per criterion, one runner for them all.

Each criterion returns its figures, (label, value, tol): a number that must
stay below tol or, with tol None, a fact that must be true.  `run` times a
criterion, passes it only if every figure holds, and reports each figure
with its tolerance; it never raises (an exception is a failure).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import closedforms as cf
from . import oracle
from .errors import SpectralSingularityError
from .evolution import EvolutionConfig, auto_config, evolve_transfer
from .grid import build_disc_grid, build_grid, quadrature
from .operators import amplitude, amplitude3d, compose, solve_outgoing
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


def _raises(call, *args) -> bool:
    try:
        call(*args)
    except SpectralSingularityError:
        return True
    return False


def criterion_1():
    """2D point potential: operator pipeline equals the closed form."""
    grid = build_grid(2.0, 32)
    thetas = _angles(60)[:50]
    worst = 0.0
    for strength in (1.0, 1.0j, 2.0 - 3.0j):
        op = cf.point_operator(strength, grid)
        t_plus, t_minus, _ = solve_outgoing(op)
        exact = cf.delta2d_amplitude(strength)
        for _, f in amplitude(t_plus, t_minus, grid.k, thetas):
            worst = max(worst, abs(f - exact))
    return [("max |df|", worst, 1e-10)]


def criterion_2():
    """Weak-coupling remainder of the exact amplitude is second order."""
    ratios = [abs(cf.delta2d_amplitude(z) - cf.born2d_amplitude(z)) / abs(z) ** 2
              for z in (1e-2, 1e-3, 1e-4)]
    return [("remainder/|z|^2 spread", max(ratios) / min(ratios) - 1.0, 5e-2)]


def criterion_3():
    """strength = 4i is singular in closed form and pipeline; wire round trip."""
    grid = build_grid(1.5, 24)
    _, _, flag = solve_outgoing(cf.point_operator(4.0j, grid))
    k = cf.wire_modes(-1.0, "lasing")
    strength = cf.wire_strength(-1.0, k)
    return [("closed-form raises", _raises(cf.delta2d_amplitude, 4.0j), None),
            ("pipeline flag singular", flag.is_singular, None),
            ("round trip exact", k == 2.0 and strength == 4.0j, None),
            ("raises at lasing k", _raises(cf.delta2d_amplitude, strength), None),
            ("CPA k(zeta=4) = 1", cf.wire_modes(4.0, "CPA") == 1.0, None)]


def criterion_4():
    """Numeric slab evolution matches the closed form entrywise."""
    grid = build_grid(2.0, 16)
    sp = cf.SlabParams(epsilon=2 + 0.01j, thickness=1.0, k=2.0)
    num = evolve_transfer(Slab(epsilon=2 + 0.01j, thickness=1.0), grid,
                          EvolutionConfig(0.0, 1.0, 4000))
    idx = np.arange(grid.size)
    got = num.entries_on_grid()[:, :, idx, idx]
    want = cf.slab_operator(sp, grid).entries_on_grid()[:, :, idx, idx]
    return [("max rel err", float(np.max(np.abs(got - want) / np.abs(want))), 1e-6)]


def criterion_5():
    """Slab closed form at p = 0 equals the 1D rectangular-barrier oracle."""
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(10):
        eps = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
        length = float(rng.uniform(0.3, 1.2))
        k = float(rng.uniform(0.8, 2.0))
        sp = cf.SlabParams(epsilon=eps, thickness=length, k=k)
        want = cf.slab_entries(sp, np.array([k], dtype=complex))[:, :, 0]
        zt = k * k * (1 - eps)
        got = oracle.transfer_1d(lambda x: zt, (0.0, length), k, steps=4000).matrix
        worst = max(worst, float(np.max(np.abs(got - want)) / np.max(np.abs(want))))
    return [("worst rel err over 10 draws", worst, 1e-8)]


def criterion_6():
    """Half-layer products equal full layers: closed form, numeric, 3D."""
    eps, length, k = 2 + 0.01j, 1.0, 2.0
    grid = build_grid(k, 16)
    full = cf.slab_operator(cf.SlabParams(eps, length, k), grid).mult_on_grid()
    half = cf.SlabParams(eps, length / 2, k)
    closed = compose(cf.slab_operator(half, grid, x0=length / 2),
                     cf.slab_operator(half, grid)).mult_on_grid()

    pot = Slab(epsilon=eps, thickness=length)
    num_full = evolve_transfer(pot, grid, EvolutionConfig(0.0, length, 1600))
    num_halves = compose(
        evolve_transfer(pot, grid, EvolutionConfig(length / 2, length, 800)),
        evolve_transfer(pot, grid, EvolutionConfig(0.0, length / 2, 800)))

    disc = build_disc_grid(k, 10, 6)
    full3 = evolve_transfer(pot, disc, EvolutionConfig(0.0, length, 800)).mult_on_grid()
    halves3 = compose(
        evolve_transfer(pot, disc, EvolutionConfig(length / 2, length, 400)),
        evolve_transfer(pot, disc, EvolutionConfig(0.0, length / 2, 400))).mult_on_grid()

    return [("closed", float(np.max(np.abs(closed - full))), 1e-12),
            ("numeric", float(np.max(np.abs(num_halves.entries_on_grid()
                                            - num_full.entries_on_grid()))), 1e-6),
            ("3D", float(np.max(np.abs(halves3 - full3))), 1e-6)]


def criterion_7():
    """Slab-with-defect closed form against the compose+solve pipeline."""
    sp = cf.SlabParams(epsilon=2 + 0.01j, thickness=1.0, k=2.0)
    strength = 1.0
    grid = build_grid(sp.k, 2048)
    op = compose(cf.slab_operator(sp, grid), cf.point_operator(strength, grid))
    t_plus, t_minus, _ = solve_outgoing(op)
    exact = cf.slab_defect_amplitudes(sp, strength, grid.nodes)
    err = max(float(np.max(np.abs(t_minus.smooth - exact.smooth_minus))),
              float(np.max(np.abs(t_plus.smooth - exact.smooth_plus))),
              abs(t_minus.delta_coeff - exact.delta_minus),
              abs(t_plus.delta_coeff - exact.delta_plus))
    # the identity check inside slab_defect_amplitudes enforces 1e-10; measure it
    x_k, _ = cf.slab_xyz(sp, sp.k)
    ident = cf.defect_identity_residual(sp, strength, x_k, cf.slab_y(sp, strength))
    return [(f"pipeline vs direct (N={grid.size})", err, 1e-8), ("identity", ident, 1e-10)]


def criterion_8():
    """Threshold-gain curve shape and normal-direction value."""
    length = 1.0
    theta = np.arange(0.0, 180.5, 1.0)
    figures = []
    for eta in (1.2, 1.5, 3.0):
        g = cf.threshold_gain_curve(eta, length, theta)
        interior = g[(theta > 0) & (theta < 90)]
        want = (4.0 / length) * np.log((eta + 1) / np.sqrt(eta * eta - 1))
        figures += [
            (f"eta={eta} g(0) err", abs(g[0] - want), 1e-12),
            (f"eta={eta} sym", float(np.max(np.abs(g - g[::-1]))), 1e-12),
            (f"eta={eta} monotone", np.all(np.diff(interior) < 0) and g[0] > interior[0], None),
            (f"eta={eta} g(90)=0", g[theta == 90.0][0] == 0.0, None),
            (f"eta={eta} max at 0", g[0] == np.max(g), None)]
    return figures


def criterion_9():
    """3D point potential: pipeline exactness, isotropy, scattering length."""
    strength = 1.7
    k = 1.3
    disc = build_disc_grid(k, 16, 8)
    t_plus, t_minus, _ = solve_outgoing(cf.point_operator(strength, disc))
    exact = cf.delta3d_amplitude(strength, k)
    thetas = np.concatenate([np.linspace(0.25, 1.35, 4), np.linspace(1.85, 2.9, 4)])
    phis = np.linspace(0.0, 2 * np.pi, 4, endpoint=False)
    samples = [amplitude3d(t_plus, t_minus, k, th, ph)
               for th in thetas for ph in phis]

    def pipeline_f(kk: float) -> complex:
        d = build_disc_grid(kk, 12, 6)
        tp, tm, _ = solve_outgoing(cf.point_operator(strength, d))
        return amplitude3d(tp, tm, kk, 0.7, 0.3)

    f1, f2 = pipeline_f(1e-4), pipeline_f(5e-5)
    xi = -(2 * f2 - f1)

    mu = 4 * np.pi / abs(strength)
    vals = [abs(cf.delta3d_amplitude(strength, kk)) ** 2 * (kk * kk + mu * mu)
            for kk in (0.5, 1.0, 2.0, 4.0)]
    tol = 1e-10
    return [("pipeline err", max(abs(f - exact) for f in samples), tol),
            ("isotropy", max(abs(f - samples[0]) for f in samples), tol),
            ("xi err", abs(xi - cf.scattering_length(strength)), tol),
            ("|f|^2 (k^2+mu^2) dev", max(abs(v - 1.0) for v in vals), tol)]


def criterion_10():
    """Quadrature identities: channel average of 1/omega and the disc integral."""
    grid = build_grid(3.0, 16)
    disc = build_disc_grid(1.7, 12, 8)
    return [("1/2 identity err", abs(quadrature(grid, 1.0 / grid.omegas) - 0.5), 1e-14),
            ("disc 2 pi k err", abs(quadrature(disc, 1.0 / disc.omegas) * (4 * np.pi ** 2)
                                    - 2 * np.pi * disc.k), 1e-12)]


def criterion_11():
    """Property suite: free region, associativity, linearity, parity."""
    grid = build_grid(1.5, 14)

    # free region: zero potential evolves to exactly the identity
    off = evolve_transfer(GaussianBump(amplitude=0.0, center=(0.0, 0.0), widths=(0.8, 0.8)),
                          grid, EvolutionConfig(-2.0, 2.0, 50))
    free_ok = (off.kernel is None and off.kernel_at_zero is None
               and np.array_equal(off.mult_at_zero(), np.eye(2)))

    # associativity of composition
    sp = cf.SlabParams(epsilon=1.4 + 0.1j, thickness=0.7, k=1.5)
    a = cf.slab_operator(sp, grid, x0=1.0)
    b = cf.point_operator(0.8 - 0.2j, grid)
    c = cf.slab_operator(cf.SlabParams(1.8, 0.4, 1.5), grid, x0=-1.0)
    left = compose(a, compose(b, c)).entries_on_grid()
    right = compose(compose(a, b), c).entries_on_grid()

    # extraction linearity in the incident coefficient
    op = compose(cf.slab_operator(sp, grid, x0=1.0), cf.point_operator(0.5j, grid))
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

    return [("free-region exact", free_ok, None),
            ("associativity", float(np.max(np.abs(left - right))), 1e-12),
            ("linearity", lin, 1e-12),
            ("parity", parity, 1e-6)]


# one row per criterion, numbered from 1: name, check and runtime budget (s)
CRITERIA = (
    ("2D delta exactness", criterion_1, 1.0),
    ("Born limit", criterion_2, None),
    ("spectral singularity", criterion_3, None),
    ("slab numeric vs analytic", criterion_4, 10.0),
    ("1D reduction", criterion_5, None),
    ("composition", criterion_6, None),
    ("slab + defect consistency", criterion_7, None),
    ("threshold-gain curve", criterion_8, None),
    ("3D delta", criterion_9, None),
    ("quadrature identities", criterion_10, None),
    ("property suite", criterion_11, 60.0),
)


def _shown(label: str, value, tol) -> str:
    return f"{label} {bool(value)}" if tol is None else f"{label} {value:.3g} (tol {tol:g})"


def run(index: int) -> CriterionResult:
    """Run row `index` (from 1) of CRITERIA: its figures, with the runtime
    against the budget where the row sets one, each in the detail line.  An
    exception fails the criterion, with its type and message as the detail."""
    name, check, budget = CRITERIA[index - 1]
    t0 = time.perf_counter()
    try:
        figures = list(check())
    except Exception as exc:  # a criterion must never abort the sweep
        return CriterionResult(index, name, False, f"raised {type(exc).__name__}: {exc}",
                               time.perf_counter() - t0)
    seconds = time.perf_counter() - t0
    if budget is not None:
        figures.append(("runtime", seconds, budget))
    passed = all(bool(value) if tol is None else value < tol for _, value, tol in figures)
    return CriterionResult(index, name, passed, ", ".join(_shown(*f) for f in figures), seconds)


def run_all() -> list[CriterionResult]:
    return [run(i) for i in range(1, len(CRITERIA) + 1)]
