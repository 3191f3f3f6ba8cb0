"""Measurement plumbing shared by the workloads: spans, slowdown scaling, child
processes, checks.

Nothing here imports numpy, so run.py can pin the BLAS thread count before
numpy is first loaded.
"""

from __future__ import annotations

import os
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

_NULL = nullcontext()

# the file-based subcommands that cli_mix runs, one process each
CLI_SUBCOMMANDS = ("delta2d", "slab", "slab-defect", "threshold-gain", "scatter",
                   "singularity", "delta3d")


class NullTracer:
    """Tracer used for untraced runs: every hook is a no-op."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name):
        return _NULL

    def count(self, name, value, how="sum"):
        pass

    def mark(self):
        """A workload calls this within a cycle where the host may be probed."""


class SlowdownTracer(NullTracer):
    """Untraced cycles, with the host's slowdown probed at every mark.

    slowdown() returns how many times slower than its reference time the
    host ran a fixed unit of work just now. The probe runs once when the
    tracer is made, at every mark and at the end of every cycle. Each
    stretch of a cycle between two probes is divided by the mean of those
    two slowdowns; after a cycle, wall is its time without the probes and
    scaled the sum of its divided stretches.
    """

    def __init__(self, slowdown):
        self.slowdown = slowdown
        self.last = slowdown()
        self.wall = self.scaled = 0.0
        self._t0 = 0.0

    def span(self, name):
        return self._cycle() if name == "cycle" else _NULL

    @contextmanager
    def _cycle(self):
        self.wall = self.scaled = 0.0
        self._t0 = time.perf_counter()
        try:
            yield
        finally:
            self.mark()

    def mark(self):
        stretch = time.perf_counter() - self._t0
        now = self.slowdown()
        self.wall += stretch
        self.scaled += stretch * 2 / (self.last + now)
        self.last = now
        self._t0 = time.perf_counter()


class Tracer:
    """In-memory spans: name, start, end, parent and cycle id.

    Spans nest by call order; the self time of a span is its duration minus
    the durations of its direct children. Counts are attached to the cycle
    that is open when they are recorded.
    """

    enabled = True

    def __init__(self):
        self.spans: list[list] = []     # [name, start_ns, end_ns, parent, cycle]
        self.counts: dict[int, dict[str, float]] = {}
        self.cycle = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name):
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1, self.cycle]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def mark(self):
        pass

    def count(self, name, value, how="sum"):
        cyc = self.counts.setdefault(self.cycle, {})
        old = cyc.get(name, 0.0)
        cyc[name] = old + value if how == "sum" else max(old, value)

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per cycle, per span name: summed self time in seconds."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, dict[str, float]] = {}
        for i, (name, start, end, _, cycle) in enumerate(self.spans):
            per = out.setdefault(cycle, {})
            per[name] = per.get(name, 0.0) + (end - start - child[i]) * 1e-9
        return out

    def span_counts(self) -> dict[int, dict[str, int]]:
        out: dict[int, dict[str, int]] = {}
        for name, _, _, _, cycle in self.spans:
            per = out.setdefault(cycle, {})
            per[name] = per.get(name, 0) + 1
        return out

    def records(self) -> list[dict]:
        return [{"name": n, "start_ns": s, "end_ns": e, "parent": p, "cycle": c}
                for n, s, e, p, c in self.spans]


@dataclass(frozen=True)
class Check:
    """One output check: err must be finite and at most tol.

    key names the output entry the check reads; err is a deviation divided
    by norm, so moving one entry of that output by more than tol * norm can
    fail the check. ref marks a comparison against an independent
    reference, whose error enters ref_err.
    """

    name: str
    key: str
    err: float
    tol: float
    ref: bool = False
    norm: float = 1.0

    @property
    def ok(self) -> bool:
        return self.err == self.err and self.err <= self.tol   # NaN fails

    def record(self) -> dict:
        return {"name": self.name, "err": float(self.err), "tol": self.tol,
                "ref": self.ref, "ok": bool(self.ok)}


def median(values):
    return statistics.median(values) if values else 0.0


def blas_threads() -> int:
    """Threads of this process, read after a BLAS call has started any pool."""
    return len(os.listdir("/proc/self/task"))


def spawn(argv: list[str], env: dict, log_stem: str):
    """Run argv to completion with stdout/stderr in files.

    Returns (exit code, wall seconds, peak RSS of the child in MB). The
    child is waited for with wait4, so its own resource usage is read
    without mixing in other children.
    """
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, log_stem + ".out",
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, log_stem + ".err",
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss * 1024 / 1e6
