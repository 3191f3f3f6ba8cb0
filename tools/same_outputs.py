"""Compare the deterministic outputs of a base revision and of the working tree.

    python tools/same_outputs.py [--base REV] [--seeds 61,7]

The base revision (default HEAD) is unpacked and the working tree copied
beside it by the functions of tools/bench_pairs.py.  In each tree, each in
a fresh Python process with one BLAS thread, it runs:

- the cli_mix cycle of bench/climix.py per seed, as bench/test_checks.py
  calls it: the parameter documents, every subcommand's output files and
  its stdout and stderr (bench/ is only read);
- demos 01-05: stdout, stderr, and the gain curve that demo 03 writes;
- `tmscat selftest`;
- two fixed operator sets.  "operators": the GENERATOR_POTENTIALS of
  tests/test_properties.py (read from this checkout, so that both trees
  evolve the same potentials) at N = 5, 16 and 24, a slab, a point, their
  product and a slab layer composed with a point on a 10 x 6 disc.  "layer
  stacks": windows of two layer pieces, whose mult is the product of the
  pieces' maps, at N = 24 and on a 10 x 6 disc.  Each artefact holds every
  mult, dense kernel and LowRank factor as exact floats, and the sha256 of
  their bytes.

For each artefact it prints "identical", or how many of its numbers changed
with the largest absolute and relative change (|a - b| / max(|a|, |b|)), or
the first line where its text differs.  Below an operator set it prints
each operator by name: "identical", or how many of its complex entries
changed and the largest change relative to its largest entry.  The temporary directory of each
tree and the selftest runtimes are masked first.  The output is a
measurement, not a gate: the exit code is 0.  Stdlib only.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

from bench_pairs import ROOT, copy_working_tree, unpack

CLI_MIX = """
import sys
tree, seed, out = sys.argv[1:]
sys.path[:0] = [tree + "/bench", tree + "/src"]
from climix import CliMix
from harness import NullTracer
_, failed = CliMix(int(seed), out, tree + "/src").cycle(NullTracer())
print("failed", failed)
"""

OPERATORS = """
import hashlib, json, sys
import numpy as np
import tmscat as tm
from tmscat.closedforms import point_operator
ops = []
grid, disc = tm.build_grid(1.3, 24), tm.build_disc_grid(1.3, 10, 6)
if sys.argv[2] == "operators":
    potentials = [(name, eval(expr, vars(tm))) for name, expr in json.loads(sys.argv[1])]
    for n in (5, 16, 24):
        for name, pot in potentials:
            ops.append((f"{name}/N={n}", tm.evolve_transfer(pot, tm.build_grid(1.3, n),
                                                            tm.auto_config(pot, 200))))
    slab = tm.slab_operator(tm.SlabParams(2.0 + 0.1j, 1.0, 1.3), grid)
    point = point_operator(1.0 - 0.5j, grid)
    layer = tm.evolve_transfer(tm.Slab(2.0 + 0.1j, 1.0), disc, tm.EvolutionConfig(0.0, 1.0, 50))
    ops += [("slab", slab), ("point", point), ("slab*point", tm.compose(slab, point)),
            ("disc-layer*point", tm.compose(layer, point_operator(0.5j, disc)))]
else:
    two = (tm.Slab(1.5, 0.4), tm.Slab(2.2 + 0.05j, 1.1))
    lossy = (tm.Slab(2.0 + 0.1j, 0.6), tm.Slab(1.4 - 0.02j, 1.0))
    bump = tm.GaussianBump(0.3, (4.0, 0.2), (0.3, 0.7))
    for name, members, g in [("two-slabs/N=24", two, grid), ("lossy-two-slabs/N=24", lossy, grid),
                             ("two-slabs+bump/N=24", two + (bump,), grid),
                             ("two-slabs/disc-10x6", two, disc)]:
        pot = tm.SumPotential(members)
        ops.append((name, tm.evolve_transfer(pot, g, tm.auto_config(pot, 200))))
digest, lines = hashlib.sha256(), []
for name, op in ops:
    arrays = {"mult": op.mult}
    if isinstance(op.kernel, np.ndarray):
        arrays["kernel"] = op.kernel
    elif op.kernel is not None:
        arrays.update(left=op.kernel.left, right=op.kernel.right)
    for field, a in arrays.items():
        a = np.ascontiguousarray(a, dtype=complex)
        digest.update(a.tobytes())
        lines.append(" ".join([name, field] + [repr(x) for x in a.view(float).ravel().tolist()]))
print("sha256", digest.hexdigest())
print("\\n".join(lines))
"""

OPERATOR_SETS = ("operators", "layer stacks")
RUNTIMES = [(re.compile(r"runtime [\d.e+-]+"), "runtime <s>"),
            (re.compile(r"\[\d+\.\d+s\]"), "[<s>]")]
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)\b")


def generator_potentials() -> str:
    """[(id, constructor source)] of tests/test_properties.py's GENERATOR_POTENTIALS, as JSON."""
    tree = ast.parse((ROOT / "tests" / "test_properties.py").read_text())
    listed = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "GENERATOR_POTENTIALS" for t in node.targets))
    return json.dumps([(next(kw.value.value for kw in param.keywords if kw.arg == "id"),
                        ast.unparse(param.args[0])) for param in listed.elts])


def run(argv: list[str], tree: Path) -> str:
    """stdout, stderr (when there is any) and the exit code of argv run in tree."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True, timeout=900)
    err = f"--- stderr\n{proc.stderr}" if proc.stderr else ""
    return f"{proc.stdout}{err}--- exit {proc.returncode}\n"


def artefacts(side: Path, seeds: list[int], potentials: str) -> dict[str, str]:
    """Every artefact of one tree, side/tree, by name, with side's path and the runtimes masked."""
    tree, py = side / "tree", sys.executable
    found = {}
    for seed in seeds:
        out = side / f"cli_mix-{seed}"
        found[f"cli_mix seed {seed}"] = run([py, "-c", CLI_MIX, str(tree), str(seed), str(out)],
                                            tree)
        for path in sorted(out.glob("*")):
            found[f"cli_mix seed {seed} {path.name}"] = path.read_text()
    for demo in sorted((tree / "demos").glob("0[1-5]_*.py")):
        found[f"demos/{demo.name}"] = run([py, str(demo)], tree)
    for path in (tree / "demos").glob("*.csv"):
        found[f"demos/{path.name}"] = path.read_text()
    found["tmscat selftest"] = run([py, "-m", "tmscat.cli", "selftest"], tree)
    for name in OPERATOR_SETS:
        found[name] = run([py, "-c", OPERATORS, potentials, name], tree)
    for name, text in found.items():
        text = text.replace(str(side), "<dir>")
        for pattern, mask in RUNTIMES:
            text = pattern.sub(mask, text)
        found[name] = text
    return found


def split(text: str) -> tuple[list[str], list[str]]:
    """The text between the numbers, and the numbers."""
    return NUMBER.split(text), NUMBER.findall(text)


def difference(base: str, change: str) -> str:
    """'identical', the count and largest changes of the numbers, or the first differing line."""
    if base == change:
        return "identical"
    (base_text, base_numbers), (change_text, change_numbers) = split(base), split(change)
    if base_text != change_text:
        pairs = zip_longest(base.splitlines(), change.splitlines(), fillvalue="")
        for line, (a, b) in enumerate(pairs, 1):
            if a != b:
                return f"text differs at line {line}: {a[:60]!r} -> {b[:60]!r}"
        return "text differs in its line endings"
    changed, largest, relative = 0, 0.0, 0.0
    for a, b in zip(base_numbers, change_numbers):
        x, y = float(a), float(b)
        if a == b or (math.isnan(x) and math.isnan(y)):
            continue
        changed += 1            # a zero that changed sign counts, with a change of 0
        if not (math.isfinite(x) and math.isfinite(y)):
            largest = relative = math.inf
        elif x != y:
            largest = max(largest, abs(x - y))
            relative = max(relative, abs(x - y) / max(abs(x), abs(y)))
    return (f"{changed} of {len(base_numbers)} numbers changed, largest absolute change "
            f"{largest:.3g}, relative {relative:.3g}")


def entries(text: str) -> dict[str, list[tuple[str, str]]]:
    """The (real, imaginary) strings of each operator's entries, by operator, from its lines."""
    found = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) > 2 and parts[1] in ("mult", "kernel", "left", "right"):
            found.setdefault(parts[0], []).extend(zip(parts[2::2], parts[3::2]))
    return found


def by_operator(base: str, change: str) -> list[str]:
    """'name: identical', or how many of its entries changed and the largest
    change relative to its largest entry, for each operator of a set."""
    base_ops, change_ops = entries(base), entries(change)
    lines = []
    for name in dict.fromkeys([*base_ops, *change_ops]):
        a, b = base_ops.get(name), change_ops.get(name)
        if a is None or b is None or len(a) != len(b):
            lines.append(f"{name}: shapes differ")
            continue
        moved = [(complex(*map(float, x)), complex(*map(float, y)))
                 for x, y in zip(a, b) if x != y]
        if not moved:
            lines.append(f"{name}: identical")
            continue
        scale = max(abs(complex(*map(float, x))) for x in a)
        largest = max(abs(x - y) for x, y in moved) / scale if scale else math.inf
        lines.append(f"{name}: {len(moved)} of {len(a)} entries changed, largest change "
                     f"{largest:.2g} of its largest entry")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", default="HEAD", help="git revision to compare against")
    p.add_argument("--seeds", type=lambda s: [int(x) for x in s.split(",")], default=[61, 7],
                   help="cli_mix seeds, as 61,7")
    args = p.parse_args(argv)

    potentials = generator_potentials()
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        base, change = Path(tmp) / "base", Path(tmp) / "change"
        unpack(args.base, base / "tree")
        copy_working_tree(change / "tree")
        print(f"base: {args.base}; change: the working tree of {ROOT}; "
              f"cli_mix seeds {', '.join(map(str, args.seeds))}")
        found = {side: artefacts(side, args.seeds, potentials) for side in (base, change)}
    names = list(dict.fromkeys([*found[base], *found[change]]))
    width = max(map(len, names))
    same = 0
    for name in names:
        a, b = found[base].get(name), found[change].get(name)
        if a is None or b is None:
            result = "only in the " + ("change" if a is None else "base")
        else:
            note, details = "", []
            if name in OPERATOR_SETS:   # its first line is the sha256 of the operator bytes
                (digest_a, a), (digest_b, b) = (t.split("\n", 1) for t in (a, b))
                note = "; " + " -> ".join(dict.fromkeys(d[:23] for d in (digest_a, digest_b)))
                details = by_operator(a, b)
            result = difference(a, b) + note
        same += result.startswith("identical")
        print(f"  {name:<{width}}  {result}")
        for line in details:
            print(f"      {line}")
    print(f"{same} of {len(names)} artefacts identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
