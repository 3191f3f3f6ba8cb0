import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad

import tmscat.evolution as evolution
from tmscat import (AccuracyWarning, Delta2D, DiscGrid, EvolutionConfig, GaussianBump,
                    Slab, SlabParams, SumPotential, UnsupportedEvaluationError, amplitude,
                    auto_config, build_disc_grid, build_grid, compose,
                    effective_hamiltonian, evolve_transfer, point_operator, slab_operator,
                    solve_outgoing)
from tmscat.evolution import _evolve, _pieces, potential_kernel
from tmscat.operators import identity_operator
from tmscat.potentials import discontinuities, smooth_members


def centered_bump(amp=1.0, widths=(0.7, 0.9)):
    return GaussianBump(amplitude=amp, center=(0.0, 0.0), widths=widths)


# ---------------------------------------------------------------------------
# potential_kernel
# ---------------------------------------------------------------------------

def test_kernel_of_zero_potential_is_zero():
    g = build_grid(1.5, 8)
    assert not potential_kernel(centered_bump(amp=0.0), 0.0, g).any()


def test_kernel_of_slab_is_scaled_identity():
    g = build_grid(2.0, 8)
    pot = Slab(epsilon=2.0 + 0.5j, thickness=1.0)
    zt = 4.0 * (1 - (2.0 + 0.5j))
    inside = potential_kernel(pot, 0.5, g)
    assert np.allclose(inside, zt * np.eye(8), rtol=1e-15)
    assert not potential_kernel(pot, 1.5, g).any()


def test_kernel_diagonal_matches_direct_y_integration():
    # entry (j, j) carries vt(x, 0) = int v(x, y) dy
    g = build_grid(1.3, 6)
    pot = GaussianBump(amplitude=0.8, center=(0.2, -0.3), widths=(0.6, 1.1))
    x = 0.45
    direct = quad(lambda y: 0.8 * np.exp(-(x - 0.2) ** 2 / (2 * 0.36))
                  * np.exp(-(y + 0.3) ** 2 / (2 * 1.21)), -14, 14, limit=200)[0]
    mat = potential_kernel(pot, x, g)
    for j in range(6):
        want = direct * g.weights[j] * g.omegas[j] / (2 * np.pi)
        assert abs(mat[j, j] - want) < 1e-8


def test_kernel_rejects_point_potentials():
    g = build_grid(1.0, 4)
    with pytest.raises(UnsupportedEvaluationError):
        potential_kernel(Delta2D(1.0), 0.0, g)


# ---------------------------------------------------------------------------
# effective_hamiltonian
# ---------------------------------------------------------------------------

def test_hamiltonian_vanishes_with_potential():
    g = build_grid(1.5, 6)
    blocks = effective_hamiltonian(centered_bump(amp=0.0), 0.3, g)
    assert not blocks.any()
    # far outside the support the Gaussian profile underflows to exactly zero
    far = effective_hamiltonian(centered_bump(), 40.0, g)
    assert not far.any()


def test_hamiltonian_structure_at_origin():
    g = build_grid(1.5, 6)
    h = effective_hamiltonian(centered_bump(), 0.0, g)
    assert np.array_equal(h[0, 0], h[0, 1])
    assert np.array_equal(h[1, 0], h[1, 1])
    assert np.array_equal(h[1, 0], -h[0, 0])
    # channel-trace of the 2x2 structure vanishes
    assert np.max(np.abs(h[0, 0] + h[1, 1])) < 1e-16


def test_hamiltonian_row_phase_pattern():
    # rows are phase conjugates: H21 = -D+^2 H11 and H22 = -D+^2 H12
    g = build_grid(1.5, 6)
    x = 0.37
    h = effective_hamiltonian(centered_bump(), x, g)
    d2 = np.exp(2j * g.omegas * x)
    assert np.max(np.abs(h[1, 0] + d2[:, None] * h[0, 0])) < 1e-15
    assert np.max(np.abs(h[1, 1] + d2[:, None] * h[0, 1])) < 1e-15


# ---------------------------------------------------------------------------
# evolve_transfer
# ---------------------------------------------------------------------------

def test_zero_potential_evolves_to_exact_identity():
    g = build_grid(1.5, 8)
    op = evolve_transfer(centered_bump(amp=0.0), g, EvolutionConfig(-2.0, 2.0, 37))
    assert op.kernel is None and op.kernel_at_zero is None
    assert np.array_equal(op.mult_at_zero(), np.eye(2))


def test_zero_potential_with_breakpoints_evolves_to_exact_identity():
    # the bump makes the sum take the dense path; the slab's edges split it
    g = build_grid(1.3, 5)
    pot = SumPotential((Slab(1.0, 1.0), GaussianBump(0.0, (4.0, 0.0), (0.3, 0.7))))
    op = evolve_transfer(pot, g, auto_config(pot, 40))
    assert op.kernel is None
    assert np.array_equal(op.mult, identity_operator(g).mult)


def test_slab_evolution_matches_closed_form():
    g = build_grid(2.0, 8)
    sp = SlabParams(epsilon=2 + 0.01j, thickness=1.0, k=2.0)
    num = evolve_transfer(Slab(epsilon=2 + 0.01j, thickness=1.0), g,
                          EvolutionConfig(0.0, 1.0, 600))
    got = num.entries_on_grid()
    want = slab_operator(sp, g).entries_on_grid()
    assert np.max(np.abs(got - want)) < 1e-8
    # y-independent potential: only the channel evolution runs, no kernel part
    assert num.kernel is None and num.kernel_at_zero is None
    assert np.max(np.abs(num.mult_at_zero() - slab_operator(sp, g).mult_at_zero())) < 1e-8


def test_group_property():
    g = build_grid(1.3, 8)
    pot = centered_bump(amp=0.8)
    a, b, c = -3.0, 0.4, 3.0
    whole = evolve_transfer(pot, g, EvolutionConfig(a, c, 600))
    left = evolve_transfer(pot, g, EvolutionConfig(a, b, 340))
    right = evolve_transfer(pot, g, EvolutionConfig(b, c, 260))
    composed = compose(right, left)
    assert np.max(np.abs(composed.entries_on_grid() - whole.entries_on_grid())) < 1e-10


def test_step_halving_convergence_order():
    g = build_grid(1.3, 6)
    pot = centered_bump(amp=1.2, widths=(0.5, 0.8))

    def entry(steps):
        op = evolve_transfer(pot, g, auto_config(pot, steps))
        return complex(op.kernel[0, 0, 2, 3])

    vals = {s: entry(s) for s in (40, 80, 160)}
    e1 = abs(vals[40] - vals[80])
    e2 = abs(vals[80] - vals[160])
    order = np.log2(e1 / e2)
    assert order > 3.5


def test_y_even_kernel_parity():
    # centered transform even in q: kernel invariant under (p, q) -> (-p, -q)
    g = build_grid(1.5, 8)
    op = evolve_transfer(centered_bump(amp=0.7), g, auto_config(centered_bump(), 300))
    k = op.kernel[..., :-1]
    flipped = k[:, :, ::-1, ::-1]
    assert np.max(np.abs(k - flipped)) < 1e-12


def test_accuracy_warning_on_coarse_steps():
    g = build_grid(1.3, 6)
    pot = centered_bump(amp=3.0, widths=(0.4, 0.6))
    cfg = EvolutionConfig(-3.2, 3.2, 8, check_tolerance=1e-12)
    with pytest.warns(AccuracyWarning) as rec:
        evolve_transfer(pot, g, cfg)
    assert rec[0].message.record()["steps"] == 8
    assert rec[0].message.record()["delta"] > 1e-12


def test_accuracy_warning_on_coarse_steps_without_kernel():
    # the y-independent path compares its tabulated channels at steps / 2
    g = build_grid(2.0, 6)
    cfg = EvolutionConfig(0.0, 1.0, 8, check_tolerance=1e-14)
    with pytest.warns(AccuracyWarning) as rec:
        op = evolve_transfer(Slab(epsilon=3.0 + 0.1j, thickness=1.0), g, cfg)
    assert op.kernel is None
    assert rec[0].message.record()["steps"] == 8
    assert rec[0].message.record()["delta"] > 1e-14


def test_no_warning_when_converged():
    import warnings
    g = build_grid(1.3, 6)
    pot = centered_bump(amp=0.5)
    cfg = EvolutionConfig(-4.0, 4.0, 800, check_tolerance=1e-6)
    with warnings.catch_warnings():
        warnings.simplefilter("error", AccuracyWarning)
        evolve_transfer(pot, g, cfg)


def test_evolve_rejects_point_potentials():
    g = build_grid(1.0, 4)
    with pytest.raises(UnsupportedEvaluationError):
        evolve_transfer(Delta2D(1.0), g, EvolutionConfig(-1.0, 1.0, 10))


@pytest.mark.parametrize("strength", [1 - 0.5j, 0.8], ids=["complex", "real"])
def test_narrow_bump_approaches_the_point_amplitude(strength):
    # a bump of integral z, amplitude z / 2 pi sigma^2 and widths (sigma, sigma),
    # tends to the point potential z delta(x) delta(y) as sigma -> 0; the
    # difference from the point amplitude on the same grid halves with sigma
    # (measured 2.8e-2, 1.3e-2, 6.5e-3 for the complex z, 2.2e-2, 1.05e-2,
    # 5.3e-3 for the real one).  The real z runs the half-column path.
    grid = build_grid(1.5, 32)
    thetas = np.radians([10.0, 40.0, 75.0, 110.0, 150.0, 200.0])

    def f(op):
        t_plus, t_minus, _ = solve_outgoing(op)
        return np.array([v for _, v in amplitude(t_plus, t_minus, grid.k, thetas)])

    want = f(point_operator(strength, grid))
    errs = []
    for sigma in (0.1, 0.05, 0.025):
        bump = GaussianBump(strength / (2 * np.pi * sigma ** 2), (0.0, 0.0), (sigma, sigma))
        got = f(evolve_transfer(bump, grid, auto_config(bump, 1600)))
        errs.append(np.max(np.abs(got - want)) / np.max(np.abs(want)))
    assert all(coarse >= 1.8 * fine for coarse, fine in zip(errs, errs[1:])), errs
    assert errs[-1] < 1e-2, errs


def test_mixed_sum_delta_channel_consistency():
    # slab plus a disjoint bump: the coherent channel sees the slab part only
    g = build_grid(1.5, 8)
    bump = GaussianBump(amplitude=0.4, center=(-6.0, 0.0), widths=(0.5, 0.8))
    pot = SumPotential(members=(bump, Slab(epsilon=1.7, thickness=1.0)))
    cfg = EvolutionConfig(-10.0, 1.0, 900)
    op = evolve_transfer(pot, g, cfg)
    slab_only = evolve_transfer(Slab(epsilon=1.7, thickness=1.0), g, cfg)
    # the bump makes the sum y-dependent: it takes the dense path
    assert op.kernel is not None and slab_only.kernel is None
    assert np.max(np.abs(op.mult_at_zero() - slab_only.mult_at_zero())) < 1e-12
    # and the composition of the pieces reproduces the joint evolution
    bump_op = evolve_transfer(bump, g, EvolutionConfig(-10.0, -2.0, 640))
    slab_op_num = evolve_transfer(Slab(epsilon=1.7, thickness=1.0), g,
                                  EvolutionConfig(-2.0, 1.0, 260))
    joint = compose(slab_op_num, bump_op)
    assert np.max(np.abs(joint.entries_on_grid() - op.entries_on_grid())) < 1e-8


def test_numeric_slab_extraction_gives_beam_coefficients():
    # the coherent beam reflects and transmits like the 1D barrier; a uniform
    # layer produces no diffuse scattering at all
    from tmscat import slab_entries, solve_outgoing
    g = build_grid(2.0, 8)
    pot = Slab(epsilon=2 + 0.01j, thickness=1.0)
    num = evolve_transfer(pot, g, EvolutionConfig(0.0, 1.0, 1500))
    t_plus, t_minus, flag = solve_outgoing(num)
    m = slab_entries(SlabParams(2 + 0.01j, 1.0, 2.0), np.array([2.0 + 0j]))[:, :, 0]
    assert abs(t_minus.delta_coeff - (-m[1, 0] / m[1, 1])) < 1e-8
    assert abs(t_plus.delta_coeff - (1.0 / m[1, 1] - 1.0)) < 1e-8
    assert np.max(np.abs(t_minus.smooth)) < 1e-12
    assert np.max(np.abs(t_plus.smooth)) < 1e-12
    assert flag.kind == "none"


def test_numeric_slab_mult_matches_closed_form_on_other_grids():
    # mult is tabulated on the grid nodes and at p = 0; momenta off the nodes
    # of g are reached on grids whose nodes they are
    sp = SlabParams(1.8, 0.9, 2.0)
    pot = Slab(epsilon=1.8, thickness=0.9)
    cfg = EvolutionConfig(0.0, 0.9, 800)
    g = build_grid(2.0, 8)
    num = evolve_transfer(pot, g, cfg)
    assert np.max(np.abs(num.mult_at_zero() - slab_operator(sp, g).mult_at_zero())) < 1e-9
    for n in (5, 11):
        other = build_grid(2.0, n)
        assert not np.isin(other.nodes, g.nodes).any()
        got = evolve_transfer(pot, other, cfg).mult_on_grid()
        want = slab_operator(sp, other).mult_on_grid()
        assert np.max(np.abs(got - want)) < 1e-9


# ---------------------------------------------------------------------------
# layered evolution once per distinct channel frequency
# ---------------------------------------------------------------------------

def every_channel_mult(pot, grid, cfg):
    """The layered mult evolved on every channel in grid order, through the
    engine's own evolution on a grid whose every channel is distinct."""
    every = dataclasses.replace(grid, distinct_omegas=grid.channel_omegas,
                                distinct_index=np.arange(grid.size + 1))
    return _evolve(pot, every, smooth_members(pot), cfg)[0]


def advanced_channels(monkeypatch):
    """The channel counts of every _layer_map call from here on."""
    seen, layer_map = [], evolution._layer_map

    def spy(t, phases, n):
        maps = layer_map(t, phases, n)
        seen.append(maps.shape[-1])
        return maps

    monkeypatch.setattr(evolution, "_layer_map", spy)
    return seen


TWO_SLABS = SumPotential((Slab(1.5, 0.4), Slab(2.2 + 0.05j, 1.1)))


@pytest.mark.parametrize("grid", [build_disc_grid(1.8, 10, 6), build_disc_grid(1.3, 8, 7),
                                  build_grid(1.8, 16)], ids=["disc-10x6", "disc-8x7", "2d-16"])
@pytest.mark.parametrize("pot", [Slab(2.0 + 0.1j, 1.0), TWO_SLABS], ids=["slab", "two-slabs"])
def test_layered_window_evolves_once_per_distinct_frequency(grid, pot, monkeypatch):
    # a window across the layer edges: pieces of 20 to 100 steps, in and out of the layers
    cfg = EvolutionConfig(-0.2, 1.3, 150)
    want = every_channel_mult(pot, grid, cfg)
    seen = advanced_channels(monkeypatch)
    op = evolve_transfer(pot, grid, cfg)
    distinct = grid.distinct_omegas.size
    if isinstance(grid, DiscGrid):
        # a disc's points share its radial frequencies: 61 channels evolve as 11
        assert distinct == grid.n_radial + 1
    assert seen and set(seen) == {distinct}
    # each channel's map is that of its frequency, bit for bit, in grid order
    assert np.array_equal(op.mult, want)


def test_uniform_part_of_a_mixed_sum_evolves_once_per_frequency(monkeypatch):
    grid = build_grid(1.5, 8)
    pot = SumPotential((GaussianBump(0.4, (-6.0, 0.0), (0.5, 0.8)), Slab(1.7, 1.0)))
    cfg = EvolutionConfig(-10.0, 1.0, 300)
    want = every_channel_mult(pot, grid, cfg)
    seen = advanced_channels(monkeypatch)
    op = evolve_transfer(pot, grid, cfg)
    assert op.kernel is not None and seen
    assert set(seen) == {grid.distinct_omegas.size}
    assert np.array_equal(op.mult, want)


# evolves one N = 128 bump twice and prints whether the kernels' bytes agree
SAME_BYTES = """
import sys
import numpy as np
import tmscat as tm
pot = tm.GaussianBump(0.4 + 0.1j, (0.2, 0.5), (0.6, 0.8))
grid = tm.build_grid(1.3, 128)
first, second = (np.asarray(tm.evolve_transfer(pot, grid, tm.auto_config(pot, 8)).kernel)
                 for _ in range(2))
np.save(sys.argv[1], first)
print(first.tobytes() == second.tobytes())
"""


def test_bytes_hold_for_one_blas_thread_count(tmp_path):
    # the README's contract: the same bytes for the same inputs, numpy and
    # BLAS build and BLAS thread count.  Between 1 and 2 threads (never more)
    # the products split differently and the kernels move by roundoff only
    src = os.path.dirname(os.path.dirname(evolution.__file__))
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    kernels = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        out = tmp_path / f"kernel-{threads}.npy"
        run = subprocess.run([sys.executable, "-c", SAME_BYTES, str(out)], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["True"]
        kernels.append(np.load(out))
    one, two = kernels
    assert np.max(np.abs(one - two)) <= 1e-14 * np.max(np.abs(one))


def test_divergent_evolution_raises():
    from tmscat import DivergenceError
    g = build_grid(1.0, 4)
    pot = GaussianBump(amplitude=1e200, center=(0.0, 0.0), widths=(0.5, 0.5))
    with pytest.raises(DivergenceError):
        evolve_transfer(pot, g, EvolutionConfig(-4.0, 4.0, 2))


def test_divergent_layered_evolution_raises():
    from tmscat import DivergenceError
    for grid in (build_grid(1.0, 4), build_disc_grid(1.0, 3, 4)):
        with pytest.raises(DivergenceError):
            evolve_transfer(Slab(-1e300, 1.0), grid, EvolutionConfig(0.0, 1.0, 8))


def test_layered_operator_is_immutable():
    for grid in (build_grid(1.8, 9), build_disc_grid(1.8, 4, 3)):
        op = evolve_transfer(TWO_SLABS, grid, EvolutionConfig(-0.2, 1.3, 60))
        assert op.kernel is None and op.mult.shape == (2, 2, grid.size + 1)
        assert not op.mult.flags.writeable
        with pytest.raises(ValueError):
            op.mult[0, 0, 0] = 0.0


def test_auto_config_windows():
    assert auto_config(Slab(2.0, 1.5), 100).x_min == 0.0
    assert auto_config(Slab(2.0, 1.5), 100).x_max == 1.5
    cfg = auto_config(GaussianBump(amplitude=1.0, center=(0.5, 0.0), widths=(0.3, 1.0)), 10)
    assert cfg.x_min == 0.5 - 2.4 and cfg.x_max == 0.5 + 2.4


def test_auto_config_refuses_a_zero_width_support():
    with pytest.raises(UnsupportedEvaluationError, match="x-support"):
        auto_config(Delta2D(strength=1.0), 10)


def test_config_validation():
    with pytest.raises(ValueError):
        EvolutionConfig(1.0, 0.0, 10)
    with pytest.raises(ValueError):
        EvolutionConfig(0.0, 1.0, 0)
    # a nan tolerance would silently switch the step-halving check off
    for tol in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            auto_config(centered_bump(amp=0.5), 4, check_tolerance=tol)


def test_config_rejects_non_finite_bounds():
    inf, nan = float("inf"), float("nan")
    for name, bounds in (("x_min", (-inf, 1.0)), ("x_max", (0.0, inf)),
                         ("x_min", (nan, 1.0)), ("x_max", (0.0, nan))):
        with pytest.raises(ValueError, match=name):
            EvolutionConfig(*bounds, 10)


def test_config_rejects_fractional_steps():
    for steps in (2.5, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            EvolutionConfig(0.0, 1.0, steps)
    cfg = EvolutionConfig(0.0, 1.0, 300.0)
    assert cfg.steps == 300 and isinstance(cfg.steps, int)


def test_config_rejects_a_negative_check_tolerance():
    # a negative tolerance would warn on every checked evolution
    with pytest.raises(ValueError, match="check_tolerance"):
        EvolutionConfig(-5.6, 5.6, 40, check_tolerance=-1.0)
    with pytest.raises(ValueError, match="check_tolerance"):
        auto_config(centered_bump(amp=0.5), 40, check_tolerance=-1e-300)
    assert EvolutionConfig(-5.6, 5.6, 40, check_tolerance=0.0).check_tolerance == 0.0


def test_config_rejects_a_check_tolerance_on_one_step():
    # one step has no half to compare with: the check cannot run
    with pytest.raises(ValueError, match="check_tolerance"):
        EvolutionConfig(-5.6, 5.6, 1, check_tolerance=1e-6)
    with pytest.raises(ValueError, match="check_tolerance"):
        auto_config(centered_bump(amp=0.5), 1, check_tolerance=0.0)
    assert EvolutionConfig(-5.6, 5.6, 1).steps == 1
    assert EvolutionConfig(-5.6, 5.6, 2, check_tolerance=1e-6).steps == 2


# ---------------------------------------------------------------------------
# the stepping schedule and the one path choice
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("pot, window, steps, counts", [
    # layer edges 0, 0.4 and 1.1 inside the window: pieces of 0.2, 0.4, 0.7 and 0.2
    (TWO_SLABS, (-0.2, 1.3), 150, [20, 40, 70, 20]),
    # edges at the window's ends do not split it
    (TWO_SLABS, (0.0, 1.1), 33, [12, 21]),
    # a piece too short for its share of one step still takes one
    (TWO_SLABS, (-0.2, 1.3), 1, [1, 1, 1, 1]),
    (Slab(2.0, 1.0), (0.25, 0.375), 50, [50]),
    (centered_bump(), (-5.0, 5.0), 7, [7]),
], ids=["two-slabs-across", "two-slabs-edge-to-edge", "one-step", "inside-a-slab", "bump"])
def test_pieces_tile_the_window_and_split_at_interior_breaks(pot, window, steps, counts):
    cfg = EvolutionConfig(*window, steps)
    pieces = list(_pieces(pot, cfg))
    interior = [b for b in discontinuities(pot) if cfg.x_min < b < cfg.x_max]
    starts, ends = [cfg.x_min] + interior, interior + [cfg.x_max]
    assert [p0 for p0, *_ in pieces] == starts
    assert [n for _, n, *_ in pieces] == counts
    for (p0, n, h, lo, hi), p1 in zip(pieces, ends):
        assert h == (p1 - p0) / n
        # stage points are clamped 1e-9 of the piece inside it
        assert (lo, hi) == (p0 + (p1 - p0) * 1e-9, p1 - (p1 - p0) * 1e-9)
        assert p0 < lo < hi < p1


SLAB_AND_BUMP = SumPotential((GaussianBump(0.4, (-6.0, 0.0), (0.5, 0.8)), Slab(1.7, 1.0)))


@pytest.mark.parametrize("pot, tol, runs", [
    (SLAB_AND_BUMP, None, 1),
    (SLAB_AND_BUMP, 1.0, 2),
    (Slab(1.7, 1.0), None, 1),
    (Slab(1.7, 1.0), 1.0, 2),
    (GaussianBump(0.4, (-6.0, 0.0), (0.5, 0.8)), 1.0, 2),
], ids=["sum", "sum-checked", "slab", "slab-checked", "bump-checked"])
def test_evolve_transfer_runs_each_path_as_chosen(pot, tol, runs, monkeypatch):
    # one evolution, mult and state together; the step-halving check re-runs
    # it once, at half the steps
    seen, evolve = [], evolution._evolve

    def spy(pot, grid, members, cfg):
        seen.append(cfg.steps)
        return evolve(pot, grid, members, cfg)

    monkeypatch.setattr(evolution, "_evolve", spy)
    evolve_transfer(pot, build_grid(1.5, 8), EvolutionConfig(-10.0, 1.0, 60, check_tolerance=tol))
    assert seen == [60, 30][:runs]
