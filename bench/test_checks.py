"""Every output check passes on real outputs and fails on slightly moved ones.

    python3 -m pytest bench/test_checks.py -q

Each workload runs one cycle (seed 1). Then, for each check, the entry the
check reads is moved by 4 * tol * norm, graded from 1x to 2x along the
array, and that check alone is re-evaluated: it must fail.
"""

import os
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from harness import NullTracer  # noqa: E402


def _perturbed(out: dict, check) -> dict:
    moved = dict(out)
    x = np.array(out[check.key], dtype=complex if np.iscomplexobj(out[check.key]) else float)
    amount = 4 * max(check.tol, 1e-12) * check.norm
    moved[check.key] = x + amount * (1 + np.arange(x.size) / x.size).reshape(x.shape)
    return moved


def _cases():
    import workloads
    for cls in (workloads.BumpScatter, workloads.LayerStack, workloads.DefectPipeline):
        yield pytest.param(cls, id=cls.name)
    yield pytest.param("cli_mix", id="cli_mix")


@pytest.fixture(scope="module")
def cli_dir():
    path = BENCH.parent / ".bench_run" / "test-cli"
    path.mkdir(parents=True, exist_ok=True)
    return path


@pytest.mark.parametrize("case", _cases())
def test_checks_pass_then_fail_when_moved(case, cli_dir):
    if case == "cli_mix":
        from climix import CliMix
        wl = CliMix(1, str(cli_dir), str(BENCH.parent / "src"))
        raw, failed = wl.cycle(NullTracer())
        assert failed == 1          # the nan slab document exits 0
        out = wl.parse(raw)
        evaluate = wl.check_parsed
    else:
        wl = case(1)
        out, failed = wl.cycle(NullTracer())
        assert failed == 0
        evaluate = wl.checks

    checks = evaluate(out)
    assert checks and all(c.ok for c in checks), [c.record() for c in checks if not c.ok]
    for check in checks:
        again = {c.name: c for c in evaluate(_perturbed(out, check))}
        assert not again[check.name].ok, f"{check.name} did not notice a moved {check.key}"
