"""Run the benchmark on a base revision and on the working tree in alternating pairs.

    python tools/bench_pairs.py [--base REV] [--workload NAME ...] [--seeds 1-10]
                                [--seconds S]

The base revision (default HEAD) is unpacked with `git archive` into a
temporary directory, and the working tree of the checkout this script sits
in (its files that git tracks or does not ignore, uncommitted changes
included) is copied beside it, so both sides run from fresh directories on
the same file system.  For each workload and seed, bench/run.py runs once
in each tree with --trace 0, the base first on odd seeds and the working
tree first on even ones, so that drift of the machine's speed falls on both
sides alike.  Each tree runs its own bench/ files.

For every end-to-end metric of BENCHMARK.json it prints the median [Q1, Q3]
of each side, the median per-pair ratio change / base, and the numbers of
pairs the change won and lost (strictly better or worse in the metric's
direction; the rest are ties).  The output is a measurement, not a gate: the exit code is 0
unless a run printed no result.  Stdlib only.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_range(text: str) -> list[int]:
    """'1-10' or '3' or '1,4,7' -> the seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def unpack(rev: str, into: Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def copy_working_tree(into: Path) -> None:
    listed = subprocess.run(["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], check=True, capture_output=True).stdout
    for name in filter(None, listed.decode().split("\0")):
        source = ROOT / name
        if source.is_file():        # a tracked file deleted in the working tree is left out
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, into / name)


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The result line of one bench/run.py run in tree, or None if it printed none."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"  {tree.name} {workload} seed {seed}: no result (exit {proc.returncode})\n"
              + proc.stderr[-2000:], file=sys.stderr)
        return None


def spread(values: list[float]) -> str:
    """median [Q1, Q3]"""
    med = statistics.median(values)
    if len(values) < 2:
        return f"{med:.4g}"
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def report(workload: str, pairs: list[tuple[dict, dict]]) -> None:
    print(f"{workload}: {len(pairs)} pairs")
    print(f"  {'metric':<16} {'unit':<4} {'base median [Q1, Q3]':<34} "
          f"{'change median [Q1, Q3]':<34} {'ratio':>6} {'won':>6} {'lost':>6}")
    for metric in SPEC["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        won = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        lost = sum((c > b) if lower else (c < b) for b, c in zip(base, change))
        ratios = [c / b for b, c in zip(base, change) if b]
        ratio = f"{statistics.median(ratios):.3f}" if ratios else "-"
        print(f"  {name:<16} {metric['unit']:<4} {spread(base):<34} {spread(change):<34} "
              f"{ratio:>6} {won:>3}/{len(pairs)} {lost:>3}/{len(pairs)}")
    for side, k in (("base", 0), ("change", 1)):
        failed = sum(p[k]["failed"] for p in pairs)
        attempted = sum(p[k]["attempted"] for p in pairs)
        correct = sum(p[k]["correct"] for p in pairs)
        print(f"  {side}: {correct}/{len(pairs)} runs correct, "
              f"failed {failed}/{attempted} operations")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", default="HEAD", help="git revision to compare against")
    p.add_argument("--workload", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"),
                   help="seeds as 1-10, 3 or 1,4,7")
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    args = p.parse_args(argv)

    missing = 0
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        base, change = Path(tmp) / "base", Path(tmp) / "change"
        unpack(args.base, base)
        copy_working_tree(change)
        print(f"base: {args.base}; change: the working tree of {ROOT}; "
              f"{args.seconds:g} s runs, base first on odd seeds")
        for workload in args.workload:
            pairs = []
            for seed in args.seeds:
                order = (base, change) if seed % 2 else (change, base)
                runs = {tree: bench(tree, workload, seed, args.seconds) for tree in order}
                if runs[base] is None or runs[change] is None:
                    missing += 1
                    continue
                pairs.append((runs[base], runs[change]))
            if pairs:
                report(workload, pairs)
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
