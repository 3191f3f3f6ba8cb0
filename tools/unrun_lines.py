"""Print the executable lines of each src/tmscat module that the test suite never runs.

A stdlib line trace (sys.settrace) of the suite run in this process:

    python tools/unrun_lines.py [pytest arguments]

Executable lines are the line starts of each module's compiled code
objects.  Lines reached only inside child processes (the subprocess tests
of tests/test_cli.py and tests/test_demos.py) are not seen, so they show as
never run.  The output is a measurement, not a gate: the exit code is
pytest's.
"""

from __future__ import annotations

import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "tmscat")


def executable_lines(path: str) -> set[int]:
    """Line numbers that start bytecode in the module or any code object nested in it."""
    with open(path) as fh:
        code = compile(fh.read(), path, "exec")
    lines, stack = set(), [code]
    while stack:
        co = stack.pop()
        lines.update(line for _, _, line in co.co_lines() if line is not None)
        stack.extend(c for c in co.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    modules = sorted(os.path.join(PACKAGE, f) for f in os.listdir(PACKAGE)
                     if f.endswith(".py"))
    seen: dict[str, set[int]] = {path: set() for path in modules}

    def local(frame, event, _arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, _event, _arg):
        if frame.f_code.co_filename in seen:
            seen[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import pytest

    threading.settrace(global_)
    sys.settrace(global_)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for path in modules:
        unrun = sorted(executable_lines(path) - seen[path])
        total += len(unrun)
        name = os.path.relpath(path, ROOT)
        print(f"{name}: {len(unrun)} never run" + (f": {unrun}" if unrun else ""))
    print(f"total: {total} never-run lines")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
