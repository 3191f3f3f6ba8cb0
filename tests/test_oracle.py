import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmscat import (DivergenceError, GaussianBump, Slab, SlabParams, SumPotential,
                    auto_config, born1_transfer,
                    build_grid, convergence_report, evolve_transfer,
                    slab_entries, solve_outgoing, transfer_1d)


# ---------------------------------------------------------------------------
# 1D transfer matrices
# ---------------------------------------------------------------------------

def test_zero_potential_gives_identity():
    t = transfer_1d(lambda x: 0.0, (0.0, 1.0), 1.5, steps=13)
    assert np.array_equal(t.matrix, np.eye(2))


def test_rectangular_barrier_matches_channel_formula():
    eps, length, k = 2 + 0.01j, 1.0, 2.0
    zt = k * k * (1 - eps)
    got = transfer_1d(lambda x: zt, (0.0, length), k, steps=4000).matrix
    want = slab_entries(SlabParams(eps, length, k), np.array([k], dtype=complex))[:, :, 0]
    assert np.max(np.abs(got - want)) < 1e-8


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("call, name", [
    (lambda: transfer_1d(lambda x: 1.0, (0.0, 1.0), 1.0, steps=0), "steps"),
    (lambda: transfer_1d(lambda x: 1.0, (0.0, 1.0), 1.0, steps=-5), "steps"),
    (lambda: transfer_1d(lambda x: 1.0, (0.0, 1.0), 1.0, steps=2.5), "steps"),
    (lambda: transfer_1d(lambda x: 1.0, (0.0, 1.0), INF, steps=10), "k"),
    (lambda: transfer_1d(lambda x: 1.0, (0.0, INF), 1.0, steps=10), "support"),
    (lambda: born1_transfer(GaussianBump(0.3), NAN, 0.2), "k"),
    (lambda: born1_transfer(GaussianBump(0.4, (0, 0), (0.7, 0.9)), 1.3, 1.3), "p"),
    (lambda: born1_transfer(GaussianBump(0.4, (0, 0), (0.7, 0.9)), 1.3, -2.6), "p"),
    (lambda: born1_transfer(Slab(2.0, 1.0), 1.3, -1.3), "p"),
    (lambda: born1_transfer(Slab(2.0, 1.0), 1.3, 2.6), "p"),
    (lambda: convergence_report(lambda n: 1.0 / n, [2.5, 4.7]), "size"),
], ids=["steps-zero", "steps-negative", "steps-fraction", "k-inf", "support-inf", "born-k",
        "born-bump-p-at-k", "born-bump-p-at-2k", "born-slab-p-at-k", "born-slab-p-at-2k",
        "size-fraction"])
def test_oracle_refuses_bad_inputs(call, name):
    # steps 0, -5 and 2.5 ran, k = inf diverged, an infinite support failed
    # converting nan to an integer, a nan k returned nan amplitudes, |p| = k
    # divided by omega = 0 and |p| = 2k failed in math.sqrt, and fractional
    # sizes were truncated
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call()


def test_divergent_evolution_raises():
    # v = 1e300 overflows the first stages to non-finite entries
    with (pytest.warns(RuntimeWarning, match="overflow|invalid value"),
          pytest.raises(DivergenceError)):
        transfer_1d(lambda x: 1e300, (0.0, 1.0), 1.5, steps=10)


def test_two_disjoint_barriers_compose():
    k = 1.7
    z1, z2 = 2.0 - 0.4j, -1.5 + 0.2j

    def v(x):
        if 0.0 <= x <= 0.4:
            return z1
        if 0.7 <= x <= 1.2:
            return z2
        return 0.0

    joint = transfer_1d(v, (0.0, 1.2), k, steps=6000,
                        breakpoints=(0.4, 0.7)).matrix
    m1 = transfer_1d(v, (0.0, 0.4), k, steps=2000).matrix
    m2 = transfer_1d(v, (0.7, 1.2), k, steps=2500).matrix
    assert np.max(np.abs(m2 @ m1 - joint)) < 1e-8


def test_determinant_is_one_for_random_potentials():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = complex(rng.uniform(-4, 4), rng.uniform(-2, 2))
        x0 = rng.uniform(-0.5, 0.5)
        s = rng.uniform(0.2, 0.6)
        k = rng.uniform(0.7, 2.5)
        t = transfer_1d(lambda x: a * np.exp(-(x - x0) ** 2 / (2 * s * s)),
                        (x0 - 8 * s, x0 + 8 * s), k, steps=3000)
        assert abs(t.det - 1.0) < 1e-8


def test_transfer_1d_validation():
    with pytest.raises(ValueError):
        transfer_1d(lambda x: 0.0, (1.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        transfer_1d(lambda x: 0.0, (0.0, 1.0), -1.0)


# ---------------------------------------------------------------------------
# first Born order
# ---------------------------------------------------------------------------

def test_born_of_zero_potential_is_zero():
    tp, tm = born1_transfer(GaussianBump(amplitude=0.0, center=(0, 0), widths=(1, 1)), 1.3, 0.4)
    assert tp == 0 and tm == 0


def test_born_is_exactly_linear_in_amplitude():
    base = GaussianBump(amplitude=1.0, center=(0.1, -0.2), widths=(0.7, 0.9))
    scaled = GaussianBump(amplitude=2.5 - 1.5j, center=(0.1, -0.2), widths=(0.7, 0.9))
    t1 = born1_transfer(base, 1.3, 0.5)
    t2 = born1_transfer(scaled, 1.3, 0.5)
    c = 2.5 - 1.5j
    assert abs(t2[0] - c * t1[0]) < 1e-15 * abs(c * t1[0]) + 1e-18
    assert abs(t2[1] - c * t1[1]) < 1e-15 * abs(c * t1[1]) + 1e-18


def test_born_matches_weak_coupling_point_limit():
    # a bump whose transform is flat over the disc mimics the point potential:
    # with V2 ~ const = Z over the momenta involved, T = -iZ / (2 omega), the
    # exact point result to first order; verified here through the slab route
    eps = 1 - 1e-6  # weak barrier
    k, length = 1.4, 0.8
    sp = SlabParams(eps, length, k)
    m = slab_entries(sp, np.array([k], dtype=complex))[:, :, 0]
    exact_tm = -m[1, 0] / m[1, 1]
    exact_tp = 1.0 / m[1, 1] - 1.0
    tp1, tm1 = born1_transfer(Slab(epsilon=eps, thickness=length), k, 0.0)
    zt = abs(k * k * (1 - eps))
    assert abs(tm1 - exact_tm) < 5 * zt ** 2
    assert abs(tp1 - exact_tp) < 5 * zt ** 2


def test_born_validated_against_evolution():
    # the derivation gate: numeric evolution at small amplitude must approach
    # the first-order formula with an O(c^2) defect
    k = 1.3
    g = build_grid(k, 10)

    def defect(c):
        pot = GaussianBump(amplitude=c, center=(0.1, -0.2), widths=(0.7, 0.9))
        op = evolve_transfer(pot, g, auto_config(pot, 400))
        t_plus, t_minus, _ = solve_outgoing(op)
        born = np.array([born1_transfer(pot, k, p) for p in g.nodes])
        return max(np.max(np.abs(t_plus.smooth - born[:, 0])),
                   np.max(np.abs(t_minus.smooth - born[:, 1])))

    e1, e2 = defect(1e-3), defect(5e-4)
    assert e1 / (1e-3) ** 2 < 10.0   # defect is a second-order remainder
    assert 3.0 < e1 / e2 < 5.0       # and scales as c^2


@settings(max_examples=20, deadline=None)
@given(unit=st.one_of(st.sampled_from([1.0, -1.0]),
                     st.floats(0.0, 2 * np.pi).map(lambda t: complex(np.cos(t), np.sin(t)))),
       x0=st.floats(-1.0, 1.0), y0=st.floats(-0.5, 0.5),
       sx=st.floats(0.5, 1.0), sy=st.floats(0.5, 1.0))
def test_born_of_gain_and_loss_bumps_is_the_odd_part_of_evolution(unit, x0, y0, sx, sy):
    # a complex amplitude runs every column of the evolution (no time
    # reversal); the odd part of T in the amplitude cancels the even second
    # order, leaving the first Born order plus an eps^2 remainder
    k, eps = 1.3, 1e-3
    g = build_grid(k, 10)

    def transfer(c):
        pot = GaussianBump(amplitude=c, center=(x0, y0), widths=(sx, sy))
        t_plus, t_minus, _ = solve_outgoing(evolve_transfer(pot, g, auto_config(pot, 400)))
        return np.stack([t_plus.smooth, t_minus.smooth])

    odd = (transfer(eps * unit) - transfer(-eps * unit)) / (2 * eps)
    pot = GaussianBump(amplitude=unit, center=(x0, y0), widths=(sx, sy))
    born = np.array([born1_transfer(pot, k, p) for p in g.nodes]).T
    assert np.max(np.abs(odd - born)) <= 1e-5 * np.max(np.abs(born))


def test_born_of_a_sum_is_the_sum_over_its_members():
    members = (Slab(epsilon=2.0 + 0.1j, thickness=1.0),
               Slab(epsilon=1.5, thickness=1.6),
               GaussianBump(amplitude=0.3 - 0.1j, center=(4.0, 0.2), widths=(0.3, 0.7)))
    for p in (0.0, 0.4, -0.9):
        want = np.sum([born1_transfer(m, 1.3, p) for m in members], axis=0)
        got = born1_transfer(SumPotential(members), 1.3, p)
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)


def test_born_rejects_point_potentials():
    from tmscat import Delta2D
    with pytest.raises(ValueError):
        born1_transfer(Delta2D(1.0), 1.0, 0.0)


# ---------------------------------------------------------------------------
# convergence reports
# ---------------------------------------------------------------------------

def test_report_constant_sequence():
    rep = convergence_report(lambda n: 1.0, [10, 20, 40])
    assert all(d == 0.0 for d in rep.deltas)
    assert rep.estimated_order is None
    assert "undefined" in str(rep)


def test_report_synthetic_fourth_order():
    rep = convergence_report(lambda n: 2.0 + 3.0 / n ** 4, [10, 20, 40, 80])
    assert abs(rep.estimated_order - 4.0) < 0.3


def test_report_text_with_a_defined_order():
    # deltas 1/8, 1/32, 1/128: each halves the size and quarters the delta
    rep = convergence_report(lambda n: 1.0 / n ** 2, [2, 4, 8, 16])
    lines = str(rep).splitlines()
    assert len(lines) == 6 and lines[-1] == "estimated order: 2.00"
    assert lines[1].split() == ["2", "0.25"]
    assert lines[2].split() == ["4", "0.0625", "1.8750e-01"]
    assert lines[3].split() == ["8", "0.015625", "4.6875e-02", "2.00"]


def test_report_measures_evolution_order():
    g = build_grid(2.0, 4)
    pot = Slab(epsilon=2 + 0.01j, thickness=1.0)

    def entry(steps):
        op = evolve_transfer(pot, g, auto_config(pot, steps))
        return complex(op.entries_on_grid()[0, 0, 1, 1])

    rep = convergence_report(entry, [16, 32, 64, 128])
    assert rep.estimated_order >= 3.5


def test_report_validation():
    with pytest.raises(ValueError):
        convergence_report(lambda n: n, [10])
    with pytest.raises(ValueError):
        convergence_report(lambda n: n, [20, 10])
