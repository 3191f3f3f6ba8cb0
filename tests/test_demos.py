"""Each narrative demo, and the README's quick start, runs to completion
against the package in src/."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) == 5


def _run(script: Path, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, str(script)], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # run a copy, so files a demo writes next to itself land in tmp_path
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    run = _run(script, tmp_path)
    assert run.returncode == 0, run.stderr


def test_readme_quick_start_runs(tmp_path):
    # a renamed or deleted name fails here, not in a reader's first session
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    script = tmp_path / "quick_start.py"
    script.write_text(blocks[0])
    run = _run(script, tmp_path)
    assert run.returncode == 0, run.stderr
