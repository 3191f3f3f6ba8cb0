"""Count the numpy calls that tmscat makes on its hot paths, by a stdlib profile hook.

    python tools/call_counts.py

For each measured call it prints the numpy functions, ufuncs and array
methods that tmscat code calls directly, by name, and their total:

- one layered window of 50 steps (a slab, evolve_transfer) on a 2D grid of
  N = 24 and on a 10 x 6 disc grid;
- one compose of two multiplicative operators (two such windows);
- one dense RK4 step (the first _rk4_step of a Gaussian bump's
  evolve_transfer, N = 24), and the shapes of the state the dense steps
  evolve and of their stage matrices for a real bump, a complex bump and a
  slab next to a bump.  The state has the plus columns alone (N + 1) for a
  real potential, whose minus columns come from time reversal, and all
  2N + 2 for a complex one.  A stage matrix has N rows, and the steps move
  only the N grid rows of the state, for a potential with no uniform part,
  whose beam row is zero; it has N + 1 with one (the slab).

Each call runs once unmeasured first.  sys.setprofile sees numpy's Python
functions (a dispatched function's __array_function__ dispatcher is not
counted) and its C functions and methods, but not a call of a ufunc
object (np.add(...), np.exp(...)), which raises no profile event; while a
call is measured, the `np` of each tmscat module therefore hands out its
ufuncs behind a Python-level __call__, which the hook does see.  Calls
that numpy makes inside its own functions are not counted, and neither
are array operators (a * b, a += b, a[i]), which raise no profile event.
The output is a measurement, not a gate.
"""

from __future__ import annotations

import os
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import tmscat  # noqa: E402
from tmscat import evolution  # noqa: E402

NUMPY_DIR = os.path.dirname(np.__file__)


class _Ufunc:
    """A ufunc called through a Python-level __call__; its methods (outer,
    reduce, ...) are the ufunc's own, which the hook sees as C methods."""

    def __init__(self, ufunc):
        self._ufunc = ufunc

    def __call__(self, *args, **kwargs):
        return self._ufunc(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._ufunc, name)


class _Numpy:
    """numpy as a tmscat module sees it while a call is measured."""

    def __getattr__(self, name):
        value = getattr(np, name)
        return _Ufunc(value) if isinstance(value, np.ufunc) else value


def _in_numpy(code) -> bool:
    return code.co_filename.startswith(NUMPY_DIR)


def _numpy_c_function(fn) -> bool:
    owner = getattr(fn, "__self__", None)
    return (isinstance(owner, (np.ndarray, np.generic, np.ufunc))
            or (getattr(fn, "__module__", None) or "").startswith("numpy"))


def numpy_calls(run, within=None) -> Counter:
    """The numpy calls made by non-numpy code while run() runs, or only
    inside the first call of the function within, by name."""
    counts = Counter()
    target = None if within is None else within.__code__
    ufunc_call = _Ufunc.__call__.__code__
    depth = 0 if within is None else -1     # frames deep inside the measured call
    in_c = 0                                # numpy C functions being run

    def hook(frame, event, arg):
        nonlocal depth, in_c
        code = frame.f_code
        if event == "call" and code is target and depth == -1:
            depth = 0
        if depth < 0:
            return
        if event == "call":
            depth += 1
            if in_c:
                return
            if code is ufunc_call:
                counts[frame.f_locals["self"]._ufunc.__name__] += 1
            elif (_in_numpy(code) and not _in_numpy(frame.f_back.f_code)
                  and not code.co_name.endswith("_dispatcher")):
                counts[getattr(code, "co_qualname", code.co_name)] += 1
        elif event == "return":
            depth -= 1
            if depth == 0 and code is target:
                depth = -2                  # the first call is over
        elif _numpy_c_function(arg):
            if event == "c_call":
                if not in_c and not _in_numpy(code) and code is not ufunc_call:
                    owner = getattr(arg, "__self__", None)
                    name = (f"{owner.__name__}.{arg.__name__}" if isinstance(owner, np.ufunc)
                            else getattr(arg, "__qualname__", repr(arg)))
                    counts[name] += 1
                in_c += 1
            else:
                in_c -= 1

    modules = [m for name, m in sys.modules.items()
               if name.startswith("tmscat") and getattr(m, "np", None) is np]
    run()
    for m in modules:
        m.np = _Numpy()
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
        for m in modules:
            m.np = np
    return counts


def evolved_shapes(pot, grid, cfg) -> tuple:
    """The shapes of the state that evolve_transfer's dense steps advance
    and of one stage matrix T."""
    shapes = []
    advance = evolution._advance_by_steps

    def recording(stage, phases, y):
        rows = stage[2]
        shapes.append((y.shape, (rows.shape[1], y.shape[1])))
        advance(stage, phases, y)

    evolution._advance_by_steps = recording
    try:
        tmscat.evolve_transfer(pot, grid, cfg)
    finally:
        evolution._advance_by_steps = advance
    return shapes[0]


def report(title: str, counts: Counter) -> None:
    print(f"{title}: {sum(counts.values())} numpy calls")
    for name, n in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"  {n:4d}  {name}")


def main() -> int:
    slab = tmscat.Slab(2.0 + 0.01j, 1.0)
    window = tmscat.EvolutionConfig(0.25, 0.375, 50)
    for title, grid in (("layered window, 50 steps, 2D N = 24", tmscat.build_grid(1.6, 24)),
                        ("layered window, 50 steps, 10 x 6 disc",
                         tmscat.build_disc_grid(1.8, 10, 6))):
        report(title, numpy_calls(lambda: tmscat.evolve_transfer(slab, grid, window)))
    grid = tmscat.build_grid(1.6, 24)
    first = tmscat.evolve_transfer(slab, grid, window)
    second = tmscat.evolve_transfer(slab, grid, tmscat.EvolutionConfig(0.375, 0.5, 50))
    report("compose of two multiplicative operators, 2D N = 24",
           numpy_calls(lambda: tmscat.compose(second, first)))
    bump = tmscat.GaussianBump(0.3 + 0.1j, (0.2, 0.5), (0.6, 0.8))
    report("dense RK4 step, Gaussian bump, 2D N = 24",
           numpy_calls(lambda: tmscat.evolve_transfer(bump, grid, tmscat.auto_config(bump, 40)),
                       within=evolution._rk4_step))
    slab_bump = tmscat.SumPotential((tmscat.Slab(2.0 + 0.1j, 1.0),
                                     tmscat.GaussianBump(0.3, (4.0, 0.2), (0.3, 0.7))))
    for kind, pot in (("real bump", tmscat.GaussianBump(0.3, (0.2, 0.5), (0.6, 0.8))),
                      ("complex bump", bump), ("slab+bump", slab_bump)):
        shape, stage = evolved_shapes(pot, grid, tmscat.auto_config(pot, 40))
        print(f"dense evolved state, {kind}, 2D N = 24: shape {shape}, "
              f"{shape[-1]} columns; stage matrices {stage[0]} x {stage[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
