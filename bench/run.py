"""Benchmark of tmscat: run one workload for one seed and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. The line before it is a run record (BLAS
threads in use, every check with its error and tolerance, cycle times).
See bench/README.md.
"""

import os
import sys

# One BLAS/OpenMP thread for this process and every child it starts. This
# must happen before numpy is first imported; tmscat's own TMSCAT_THREADS
# is applied too late to take effect.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse   # noqa: E402
import json       # noqa: E402
import platform   # noqa: E402
import resource   # noqa: E402
import shutil     # noqa: E402
import time       # noqa: E402
from pathlib import Path  # noqa: E402

from harness import (CLI_SUBCOMMANDS, NullTracer, SlowdownTracer, Tracer,  # noqa: E402
                     blas_threads, median, spawn)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_ROOT = ROOT / ".bench_run"
WORKLOADS = ("bump_scatter", "layer_stack", "defect_pipeline", "cli_mix")
SETUP_STARTS = 5

# per-layer metric -> span names whose per-cycle self time it sums
SPAN_METRICS = {
    "evolution.evolve_s": ("evolution.evolve_transfer",),
    "operators.compose_s": ("operators.compose",),
    "operators.mult_on_grid_s": ("operators.mult_on_grid", "threed.mult_on_grid"),
    "operators.solve_s": ("operators.solve_outgoing",),
    "operators.amplitude_s": ("operators.amplitude",),
    "closedforms.operator_s": ("closedforms.slab_operator", "closedforms.delta2d_operator"),
    "threed.evolve_s": ("threed.evolve_transfer_3d",),
    "threed.compose_s": ("threed.compose_3d",),
    "threed.solve_s": ("threed.solve_outgoing_3d",),
    "threed.amplitude_s": ("threed.amplitude3d",),
    "trace.bench_self_s": ("cycle",),
    **{f"cli.{sub}_s": (f"cli.{sub}",) for sub in CLI_SUBCOMMANDS},
}
# metric names and units, in the order they are reported
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def make_workload(name: str, seed: int, run_dir: Path):
    if name == "cli_mix":
        from climix import CliMix
        return CliMix(seed, str(run_dir / "cli"), str(SRC))
    import workloads
    cls = {"bump_scatter": workloads.BumpScatter, "layer_stack": workloads.LayerStack,
           "defect_pipeline": workloads.DefectPipeline}[name]
    return cls(seed)


def check_threads() -> int:
    """Make numpy's and scipy's BLAS start their pools, then count threads."""
    import numpy as np
    import scipy.linalg
    a = np.random.default_rng(0).random((600, 600))
    a @ a
    scipy.linalg.lu_factor(a[:300, :300])
    return blas_threads()


def setup_probe(args) -> int:
    """Child of a run: fresh interpreter -> first cycle ready, timed in parts."""
    t0 = time.perf_counter()
    import tmscat  # noqa: F401
    import_s = time.perf_counter() - t0
    wl = make_workload(args.workload, args.seed, Path(args.run_dir))
    ready_s = (time.monotonic_ns() - args.setup_probe) * 1e-9
    print(json.dumps({"ready_s": ready_s, "import_s": import_s, "grid_s": wl.grid_s,
                      "threads": check_threads()}))
    return 0


def measure_setup(args, run_dir: Path, slowdown) -> list[dict]:
    """SETUP_STARTS fresh starts, each with its ready time scaled by the mean
    of the slowdowns probed just before and just after it."""
    samples = []
    before = slowdown()
    for i in range(SETUP_STARTS):
        stem = str(run_dir / f"setup{i}")
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                "--seed", str(args.seed), "--run-dir", str(run_dir / "probe"),
                "--setup-probe", str(time.monotonic_ns())]
        code, _, _ = spawn(argv, dict(os.environ), stem)
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}: "
                               + Path(stem + ".err").read_text()[-2000:])
        sample = json.loads(Path(stem + ".out").read_text().splitlines()[-1])
        after = slowdown()
        sample["scaled_s"] = sample["ready_s"] * 2 / (before + after)
        before = after
        samples.append(sample)
    return samples


def run_cycles(wl, tracers, seconds: float):
    """Whole cycles until `seconds` have elapsed, cycle i traced by tracers[i % len].

    Returns the cycle times, the cycle times scaled by the host's slowdown
    (the same times unless the tracer is a SlowdownTracer), the outputs of
    the last cycle and the failed operations.
    """
    times, scaled, failed, out = [], [], 0, None
    start = time.perf_counter()
    while len(times) < len(tracers) or time.perf_counter() - start < seconds:
        tracer = tracers[len(times) % len(tracers)]
        tracer.cycle = len(times)
        t0 = time.perf_counter()
        with tracer.span("cycle"):
            out, bad = wl.cycle(tracer)
        wall = time.perf_counter() - t0
        if isinstance(tracer, SlowdownTracer):
            times.append(tracer.wall)
            scaled.append(tracer.scaled)
        else:
            times.append(wall)
            scaled.append(wall)
        failed += bad
    return times, scaled, out, failed


def per_layer(wl, tracer, times, setup, probes):
    """Per-layer metrics: medians over the traced cycles (the odd ones)."""
    selfs, spans, counts = tracer.self_times(), tracer.span_counts(), tracer.counts
    traced_ids = range(1, len(times), 2)

    def per_cycle(table, names):
        return median([sum(table.get(c, {}).get(n, 0.0) for n in names) for c in traced_ids])

    m = {name: per_cycle(selfs, names) for name, names in SPAN_METRICS.items()}
    m.update(wl.static_counts())
    for name in ("evolution.roundoff_kernels", "operators.lu_gflop", "operators.kernel_mb",
                 "cli.output_bytes"):
        m[name] = per_cycle(counts, (name,))
    m["operators.compose_calls"] = per_cycle(spans, ("operators.compose",))
    m["grid.build_s"] = median([s["grid_s"] for s in setup])
    m["cli.import_s"] = median([s["import_s"] for s in setup])
    m.update(probes)
    steps, evolve_s = m.get("evolution.steps", 0.0), m["evolution.evolve_s"]
    m["evolution.step_us"] = evolve_s / steps * 1e6 if steps else 0.0
    m["evolution.rk4_gflops"] = m.get("evolution.rk4_gflop", 0.0) / evolve_s if evolve_s else 0.0
    solve_s = m["operators.solve_s"]
    m["operators.lu_gflops"] = m["operators.lu_gflop"] / solve_s if solve_s else 0.0
    m["trace.overhead_s"] = median(times[1::2]) - median(times[0::2])
    return {name: {"value": float(m.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", type=int, help=argparse.SUPPRESS)
    p.add_argument("--run-dir", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "tmscat" / "__init__.py").is_file():
        print(f"bench: no tmscat package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe is not None:
        return setup_probe(args)

    run_dir = RUN_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def run(args, run_dir: Path) -> int:
    started = time.perf_counter()
    # One CPU for this process and every child it starts, so that the
    # slowdown probe, which runs here, measures the CPU the work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    from workloads import slowdown
    setup = measure_setup(args, run_dir, slowdown)
    wl = make_workload(args.workload, args.seed, run_dir)
    threads = [check_threads()] + [s["threads"] for s in setup]

    null = NullTracer()
    cycles = failed = 0
    if args.workload != "cli_mix":      # warm caches and lazy imports, untimed
        _, _, _, failed = run_cycles(wl, [null], 0.0)
        cycles = 1
    # a traced run alternates untraced and traced cycles, so that drift of
    # the machine's speed cancels in trace.overhead_s
    tracer = Tracer()
    tracers = [null, tracer] if args.trace else [SlowdownTracer(slowdown)]
    times, scaled, out, bad = run_cycles(wl, tracers, args.seconds)
    cycles += len(times)
    failed += bad
    peak_rss_mb = (wl.peak_rss_mb if args.workload == "cli_mix"
                   else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6)
    checks = wl.checks(out)

    import numpy
    import scipy
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "blas_threads": threads, "python": platform.python_version(),
              "numpy": numpy.__version__, "scipy": scipy.__version__,
              "setup": setup, "cycle_times": times, "cycle_scaled": scaled,
              "checks": [c.record() for c in checks]}
    if args.trace:
        metrics = per_layer(wl, tracer, times, setup, wl.probes())
        trace_path = RUN_ROOT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({"record": record, "spans": tracer.records(),
                                          "counts": tracer.counts}))
        record["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": median([s["scaled_s"] for s in setup]),
            "cycle_s_p50": median(scaled),
            "solutions_per_s": wl.solutions_per_cycle * len(scaled) / sum(scaled),
            "peak_rss_mb": peak_rss_mb,
            "ref_err": max(c.err for c in checks if c.ref),
            "halving_delta": wl.halving(out),
        }
        metrics = {k: {"value": float(v), "unit": END_TO_END_UNITS[k]}
                   for k, v in metrics.items()}

    record["run_wall_s"] = time.perf_counter() - started
    threads_ok = all(t == 1 for t in threads)
    correct = threads_ok and all(c.ok for c in checks)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": cycles * wl.ops_per_cycle,
                      "failed": failed, "metrics": metrics}))
    if not threads_ok:
        print(f"bench: expected one BLAS thread, found {threads}", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
