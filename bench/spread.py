"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload NAME [--seeds 1 2 3 ...] [--seconds S]

Runs bench/run.py once per seed, one run at a time, and prints for each
metric the median of the run values and the quartile spread, (Q3 - Q1) /
median with the quartiles of statistics.quantiles(values, n=4). That is the
figure each end-to-end bound in BENCHMARK.json is compared with. The raw
results are written to .bench_run/spread-NAME.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    p.add_argument("--seconds", type=int)
    args = p.parse_args()
    seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        runs.append({"seed": seed, **result, **json.loads(lines[-2])})
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.6g}"
                                         for k, v in result["metrics"].items()), flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": med, "spread": (q3 - q1) / med}
        print(f"{name:>16}  median {med:.6g}  spread {(q3 - q1) / med:.4f}")
    fail_share = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed/attempted: {sorted(fail_share)}")
    out = ROOT / ".bench_run" / f"spread-{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"seconds": seconds, "runs": runs, "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
