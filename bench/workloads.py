"""In-process workloads: bump_scatter, layer_stack and defect_pipeline.

Each workload builds its inputs from the seed when constructed (that is its
set-up), runs one fixed unit of work per call of cycle(), and checks the
outputs of a cycle against references that share no code with the path
under test. Seeds move every physical parameter by at most JITTER of its
nominal value, so cost and accuracy figures are comparable across seeds
while the inputs still differ.
"""

from __future__ import annotations

import time

import numpy as np

import tmscat as tm
from tmscat import closedforms as cf
from tmscat import oracle, threed
from tmscat.potentials import discontinuities

from harness import Check, NullTracer

JITTER = 0.005

# scattering angles (degrees) for f(theta): +-theta pairs, away from 90 / 270
THETA_DEG = np.array([10.0, 30.0, 50.0, 70.0, 110.0, 130.0, 150.0, 170.0])
THETAS = np.radians(np.concatenate([THETA_DEG, -THETA_DEG]))


def jitterer(seed: int, stream: int):
    rng = np.random.default_rng([seed % 2 ** 63, stream])   # any integer seed

    def jit(x):
        if isinstance(x, complex):
            return complex(jit(x.real), jit(x.imag))
        return float(x) * (1.0 + JITTER * rng.uniform(-1.0, 1.0))

    return jit


def rel(got, want) -> float:
    """Largest deviation relative to the largest reference magnitude."""
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def compare(name: str, key: str, got, want, tol: float, ref: bool = False) -> Check:
    """Check got against want, relative to the largest reference magnitude."""
    norm = float(np.max(np.abs(want)))
    err = float(np.max(np.abs(np.asarray(got) - want))) / norm
    return Check(name, key, err, tol, ref, norm)


def f_array(samples) -> np.ndarray:
    return np.array([v for _, v in samples])


FLAG_CODE = {"none": 0.0, "near-singular": 1.0, "singular": 2.0}

# The slowdown probe: a fixed RK4 of a 66 x 66 complex linear system, the kind
# of work an evolution step does (small dense products, temporaries, Python
# overhead), written without tmscat so no change to the package moves it.
# PROBE_REF_S is its time on this benchmark's reference machine when the
# host is not contended; see "Machine drift" in bench/README.md.
PROBE_STEPS = 80
PROBE_REF_S = 0.02
_PROBE_MATRIX = []


def slowdown() -> float:
    """Wall time of one fixed unit of evolution-like work over PROBE_REF_S."""
    if not _PROBE_MATRIX:
        rng = np.random.default_rng(0)
        a = rng.random((66, 66)) + 1j * rng.random((66, 66))
        _PROBE_MATRIX.append(a / np.abs(a).sum())
    a = _PROBE_MATRIX[0]
    t0 = time.perf_counter()
    y = np.eye(66, dtype=complex)
    for _ in range(PROBE_STEPS):
        k1 = a @ y
        k2 = a @ (y + 0.5 * k1)
        k3 = a @ (y + 0.5 * k2)
        k4 = a @ (y + k3)
        y = y + (k1 + 2 * k2 + 2 * k3 + k4) / 6
    return (time.perf_counter() - t0) / PROBE_REF_S


def rk4_stage_points(cfg, breaks):
    """x positions at which the fixed-step RK4 evaluates its generator.

    Mirrors the piecewise stepping of tmscat.evolution (split at interior
    breaks, stage points clamped inside each piece). Returns (points, steps).
    """
    edges = ([cfg.x_min] + sorted(b for b in set(breaks) if cfg.x_min < b < cfg.x_max)
             + [cfg.x_max])
    total = cfg.x_max - cfg.x_min
    points, steps = [], 0
    for p0, p1 in zip(edges, edges[1:]):
        n = max(1, round(cfg.steps * (p1 - p0) / total))
        h = (p1 - p0) / n
        lo, hi = p0 + (p1 - p0) * 1e-9, p1 - (p1 - p0) * 1e-9
        points.append(min(max(p0, lo), hi))
        for i in range(n):
            x = p0 + i * h
            points += [min(max(x + h / 2, lo), hi), min(max(x + h, lo), hi)]
        steps += n
    return points, steps


def coherent_reference(zt: complex, thickness: float, k: float):
    """Beam coefficients (B-, A+ - 1) of a uniform layer from the 1D oracle."""
    m = oracle.transfer_1d(lambda x: zt, (0.0, thickness), k, steps=2000).matrix
    b0 = -m[1, 0] / m[1, 1]
    return np.array([b0, m[0, 0] + m[0, 1] * b0 - 1.0])


class Workload:
    """Shared bookkeeping: grid cache, evolution list, per-cycle counts."""

    name = ""
    solutions_per_cycle = 1
    ops_per_cycle = 1

    def __init__(self):
        self.grid_s = 0.0
        self._grids = {}
        self.evolutions = []        # (potential, grid, config) per evolve call

    def grid(self, k: float, n: int):
        key = (k, n)
        if key not in self._grids:
            t0 = time.perf_counter()
            self._grids[key] = tm.build_grid(k, n)
            self.grid_s += time.perf_counter() - t0
        return self._grids[key]

    def static_counts(self) -> dict:
        """Counts that every cycle repeats exactly (computed, not measured)."""
        steps = gflop = 0.0
        for pot, grid, cfg in self.evolutions:
            _, n = rk4_stage_points(cfg, discontinuities(pot))
            m = 2 * grid.size + 2
            steps += n
            gflop += n * 4 * 8 * m ** 3 / 1e9   # four complex m x m products
        return {"evolution.steps": steps, "evolution.rk4_gflop": gflop}

    def probe_assembly(self) -> float:
        """effective_hamiltonian timed at one cycle's RK4 stage points."""
        total = 0.0
        for pot, grid, cfg in self.evolutions:
            points, _ = rk4_stage_points(cfg, discontinuities(pot))
            t0 = time.perf_counter()
            for x in points:
                tm.effective_hamiltonian(pot, x, grid)
            total += time.perf_counter() - t0
        return total

    def probes(self) -> dict:
        return {"evolution.assembly_s": self.probe_assembly()} if self.evolutions else {}


class BumpScatter(Workload):
    """Gaussian bumps varying in y, evolved densely, one solution per case.

    Cycle: five solutions (evolve_transfer + solve_outgoing + amplitude):
    a centred bump at N=16, an off-centre complex bump at N=24, a two-member
    sum at N=32 and a weak +-a pair at N=24, over three wavenumbers.
    """

    name = "bump_scatter"
    STEPS = 400
    WEAK = 0.05
    BORN_TOL = 1e-3
    PARITY_TOL = 1e-9
    solutions_per_cycle = ops_per_cycle = 5

    def __init__(self, seed: int):
        super().__init__()
        jit = jitterer(seed, 1)
        ks = [jit(1.1), jit(1.3), jit(1.5)]
        weak_w = (jit(0.8), jit(0.8))
        self.weak = jit(self.WEAK)
        self.weak_k = ks[1]
        self.weak_pot = tm.GaussianBump(self.weak, (0.0, 0.0), weak_w)
        cases = [
            ("centred", tm.GaussianBump(jit(0.4), (0.0, 0.0), (jit(0.7), jit(0.9))), 16, ks[0]),
            ("offcentre", tm.GaussianBump(jit(0.3 + 0.1j), (jit(0.2), jit(0.5)),
                                          (jit(0.6), jit(0.8))), 24, ks[1]),
            ("sum", tm.SumPotential((
                tm.GaussianBump(jit(0.3), (jit(-3.0), 0.0), (jit(0.35), jit(0.7))),
                tm.GaussianBump(jit(0.25), (jit(3.0), jit(-0.4)), (jit(0.35), jit(0.6))))),
             32, ks[2]),
            ("weak+", self.weak_pot, 24, ks[1]),
            ("weak-", tm.GaussianBump(-self.weak, (0.0, 0.0), weak_w), 24, ks[1]),
        ]
        self.cases = [(name, pot, self.grid(k, n)) for name, pot, n, k in cases]
        self.configs = {name: tm.auto_config(pot, self.STEPS) for name, pot, _ in self.cases}
        self.evolutions = [(pot, g, self.configs[name]) for name, pot, g in self.cases]

    def _solve(self, tr, pot, grid, cfg):
        op = tr.call("evolution.evolve_transfer", tm.evolve_transfer, pot, grid, cfg)
        t_plus, t_minus, flag = tr.call("operators.solve_outgoing", tm.solve_outgoing, op)
        f = tr.call("operators.amplitude", tm.amplitude, t_plus, t_minus, grid.k, THETAS)
        if tr.enabled:
            tr.count("operators.lu_gflop", 8 / 3 * grid.size ** 3 / 1e9)
        return f_array(f), FLAG_CODE[flag.kind]

    def cycle(self, tr):
        out, flags = {}, []
        for i, (name, pot, grid) in enumerate(self.cases):
            if i:
                tr.mark()
            out[name], flag = self._solve(tr, pot, grid, self.configs[name])
            flags.append(flag)
        out["flags"] = np.array(flags)
        return out, 0

    def checks(self, out) -> list[Check]:
        m = THETA_DEG.size
        checks = [Check("no singular extraction", "flags", float(np.max(out["flags"])), 0.0)]
        for name in ("centred", "weak+", "weak-"):
            f = out[name]
            checks.append(compare(f"parity f(theta) = f(-theta) [{name}]", name,
                                  f[:m], f[m:], self.PARITY_TOL))
        k = self.weak_k
        born = []
        for theta in THETAS:
            p = k * np.sin(theta)
            t_plus, t_minus = oracle.born1_transfer(self.weak_pot, k, p)
            t = t_plus if np.cos(theta) > 0 else t_minus
            born.append(-1j / np.sqrt(2 * np.pi) * np.sqrt(k * k - p * p) * t)
        odd = (out["weak+"] - out["weak-"]) / 2
        checks.append(compare("odd part of the +-a pair vs first Born order", "weak+",
                              odd, np.array(born), self.BORN_TOL, ref=True))
        return checks

    def halving(self, out) -> float:
        worst = 0.0
        for name, pot, grid in self.cases:
            cfg = self.configs[name]
            half = tm.EvolutionConfig(cfg.x_min, cfg.x_max, cfg.steps // 2)
            f_half, _ = self._solve(_NULL_TRACER, pot, grid, half)
            worst = max(worst, rel(f_half, out[name]))
        return worst


class LayerStack(Workload):
    """y-independent slabs cut into ordered x-windows, evolved and composed.

    Cycle: three solutions, each a slab cut into WINDOWS pieces of
    STEPS / WINDOWS RK4 steps: 2D at N=16 and N=24 (evolve_transfer, a chain
    of compose, mult_on_grid, solve_outgoing, amplitude) and 3D on a 10 x 6
    disc grid (evolve_transfer_3d, compose_3d, mult_on_grid,
    solve_outgoing_3d, amplitude3d).
    """

    name = "layer_stack"
    WINDOWS = 8
    STEPS = 400
    ENTRY_TOL = 1e-9
    COHERENT_TOL = 1e-9
    VANISH_TOL = 1e-9
    ANGLES_3D = ((0.4, 0.3), (2.6, 1.1))
    solutions_per_cycle = ops_per_cycle = 3

    def __init__(self, seed: int):
        super().__init__()
        jit = jitterer(seed, 2)
        self.stacks = []    # (name, slab params, potential, grid)
        for name, eps, length, k, n in (("stack16", 2.0 + 0.01j, 1.0, 2.0, 16),
                                        ("stack24", 3.0 + 0.05j, 0.8, 1.6, 24)):
            sp = cf.SlabParams(jit(eps), jit(length), jit(k))
            pot = tm.Slab(sp.epsilon, sp.thickness)
            grid = self.grid(sp.k, n)
            self.stacks.append((name, sp, pot, grid))
            self.evolutions += [(pot, grid, cfg) for cfg in self._windows(sp, self.STEPS)]
        self.sp3 = cf.SlabParams(jit(2.5 + 0.02j), jit(0.6), jit(1.8))
        self.pot3 = tm.Slab(self.sp3.epsilon, self.sp3.thickness)
        t0 = time.perf_counter()
        self.disc = threed.build_disc_grid(self.sp3.k, 10, 6)
        self.grid_s += time.perf_counter() - t0

    def _windows(self, sp, steps):
        edges = np.linspace(0.0, sp.thickness, self.WINDOWS + 1)
        return [tm.EvolutionConfig(a, b, steps // self.WINDOWS)
                for a, b in zip(edges, edges[1:])]

    def _stack_2d(self, tr, sp, pot, grid, steps):
        op = None
        for cfg in self._windows(sp, steps):
            piece = tr.call("evolution.evolve_transfer", tm.evolve_transfer, pot, grid, cfg)
            if tr.enabled and piece.kernel is not None and np.max(np.abs(piece.kernel)) < 1e-12:
                tr.count("evolution.roundoff_kernels", 1)
            op = piece if op is None else tr.call("operators.compose", tm.compose, piece, op)
        return op

    def _stack_3d(self, tr, steps):
        op = None
        for cfg in self._windows(self.sp3, steps):
            piece = tr.call("threed.evolve_transfer_3d", threed.evolve_transfer_3d, self.pot3,
                            self.disc, cfg.x_min, cfg.x_max, cfg.steps)
            op = piece if op is None else tr.call("threed.compose_3d", threed.compose_3d,
                                                  piece, op)
        return op

    def cycle(self, tr):
        out, flags = {}, []
        for name, sp, pot, grid in self.stacks:
            if flags:
                tr.mark()
            op = self._stack_2d(tr, sp, pot, grid, self.STEPS)
            tr.mark()
            out[name + "/entries"] = tr.call("operators.mult_on_grid", op.mult_on_grid)
            t_plus, t_minus, flag = tr.call("operators.solve_outgoing", tm.solve_outgoing, op)
            f = tr.call("operators.amplitude", tm.amplitude, t_plus, t_minus, grid.k, THETAS)
            out[name + "/delta"] = np.array([t_minus.delta_coeff, t_plus.delta_coeff])
            out[name + "/f"] = f_array(f)
            out[name + "/kernel"] = op.kernel if op.kernel is not None else np.zeros(1)
            flags.append(FLAG_CODE[flag.kind])
            if tr.enabled:
                tr.count("operators.lu_gflop", 8 / 3 * grid.size ** 3 / 1e9)
                tr.count("operators.kernel_mb", _kernel_mb(op), how="max")
        tr.mark()
        op = self._stack_3d(tr, self.STEPS)
        tr.mark()
        out["stack3d/entries"] = tr.call("threed.mult_on_grid", op.mult_on_grid)
        t_plus, t_minus, flag = tr.call("threed.solve_outgoing_3d", threed.solve_outgoing_3d, op)
        out["stack3d/delta"] = np.array([t_minus.delta_coeff, t_plus.delta_coeff])
        out["stack3d/f"] = np.array([
            tr.call("threed.amplitude3d", threed.amplitude3d, t_plus, t_minus, self.sp3.k, th, ph)
            for th, ph in self.ANGLES_3D])
        flags.append(FLAG_CODE[flag.kind])
        out["flags"] = np.array(flags)
        return out, 0

    def checks(self, out) -> list[Check]:
        checks = [Check("no singular extraction", "flags", float(np.max(out["flags"])), 0.0)]
        for name, sp, omegas in ([(n, sp, g.omegas) for n, sp, _, g in self.stacks]
                                 + [("stack3d", self.sp3, self.disc.omegas)]):
            want = cf.slab_entries(sp, omegas)
            checks.append(compare(f"{name} channel entries vs slab_entries", name + "/entries",
                                  out[name + "/entries"], want, self.ENTRY_TOL, ref=True))
            checks.append(compare(f"{name} coherent beam vs transfer_1d", name + "/delta",
                                  out[name + "/delta"],
                                  coherent_reference(sp.z_tilde, sp.thickness, sp.k),
                                  self.COHERENT_TOL, ref=True))
            checks.append(Check(f"{name} diffuse amplitude vanishes", name + "/f",
                                float(np.max(np.abs(out[name + "/f"]))), self.VANISH_TOL))
        for name, *_ in self.stacks:
            checks.append(Check(f"{name} kernel vanishes", name + "/kernel",
                                float(np.max(np.abs(out[name + "/kernel"]))), self.VANISH_TOL))
        return checks

    def halving(self, out) -> float:
        worst = 0.0
        for name, sp, pot, grid in self.stacks:
            op = self._stack_2d(_NULL_TRACER, sp, pot, grid, self.STEPS // 2)
            worst = max(worst, rel(op.mult_on_grid(), out[name + "/entries"]))
        op = self._stack_3d(_NULL_TRACER, self.STEPS // 2)
        return max(worst, rel(op.mult_on_grid(), out["stack3d/entries"]))


class DefectPipeline(Workload):
    """Closed-form slab composed with a line defect at N = 1024 and 2048.

    Cycle: two solutions (slab_operator + delta2d_operator + compose +
    solve_outgoing + amplitude), no evolution.
    """

    name = "defect_pipeline"
    SIZES = (1024, 2048)
    TOL_2048 = 1e-8         # acceptance criterion 7
    F_TOL = 1e-7
    solutions_per_cycle = ops_per_cycle = 2

    def __init__(self, seed: int):
        super().__init__()
        jit = jitterer(seed, 3)
        self.sp = cf.SlabParams(jit(2.0 + 0.01j), jit(1.0), jit(2.0))
        self.strength = jit(1.0 + 0.0j)
        self.grids = [self.grid(self.sp.k, n) for n in self.SIZES]

    def cycle(self, tr):
        out, flags = {}, []
        for grid in self.grids:
            if flags:
                tr.mark()
            slab = tr.call("closedforms.slab_operator", cf.slab_operator, self.sp, grid)
            defect = tr.call("closedforms.delta2d_operator", cf.delta2d_operator,
                             self.strength, grid)
            op = tr.call("operators.compose", tm.compose, slab, defect)
            del slab, defect
            tr.mark()
            t_plus, t_minus, flag = tr.call("operators.solve_outgoing", tm.solve_outgoing, op)
            if tr.enabled:
                tr.count("operators.lu_gflop", 8 / 3 * grid.size ** 3 / 1e9)
                tr.count("operators.kernel_mb", _kernel_mb(op), how="max")
            del op
            f = tr.call("operators.amplitude", tm.amplitude, t_plus, t_minus, grid.k, THETAS)
            key = f"N{grid.size}"
            out[key + "/t"] = np.concatenate([t_minus.smooth, t_plus.smooth,
                                              [t_minus.delta_coeff, t_plus.delta_coeff]])
            out[key + "/f"] = f_array(f)
            flags.append(FLAG_CODE[flag.kind])
        out["flags"] = np.array(flags)
        return out, 0

    def checks(self, out) -> list[Check]:
        checks = [Check("no singular extraction", "flags", float(np.max(out["flags"])), 0.0)]
        k = self.sp.k
        p = k * np.sin(THETAS)
        exact_f = cf.slab_defect_amplitudes(self.sp, self.strength, p)
        smooth = np.where(np.cos(THETAS) > 0, exact_f.smooth_plus, exact_f.smooth_minus)
        want_f = -1j / np.sqrt(2 * np.pi) * np.sqrt(k * k - p * p) * smooth
        for grid in self.grids:
            key = f"N{grid.size}"
            ex = cf.slab_defect_amplitudes(self.sp, self.strength, grid.nodes)
            want = np.concatenate([ex.smooth_minus, ex.smooth_plus,
                                   [ex.delta_minus, ex.delta_plus]])
            tol = self.TOL_2048 * (2048 / grid.size) ** 2
            checks.append(Check(f"N={grid.size} T+- vs slab_defect_amplitudes (abs)", key + "/t",
                                float(np.max(np.abs(out[key + "/t"] - want))), tol, ref=True))
            checks.append(compare(f"N={grid.size} f(theta) vs closed form", key + "/f",
                                  out[key + "/f"], want_f, self.F_TOL, ref=True))
        return checks

    def halving(self, out) -> float:
        coarse, fine = (f"N{n}/f" for n in self.SIZES)
        return rel(out[coarse], out[fine])


def _kernel_mb(op) -> float:
    arrays = [a for a in (op.kernel, op.kernel_at_zero) if a is not None]
    return sum(a.nbytes for a in arrays) / 1e6


_NULL_TRACER = NullTracer()
