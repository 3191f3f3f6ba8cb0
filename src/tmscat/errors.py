"""Exception and warning types shared across the package, and its input rules.

Every number from outside is checked where it enters by one of three rules:
finite, positive (and finite), or an integer of at least m.  Each raises
ValueError worded "<name> must be finite | positive | an integer >= m, got
<value!r>"; a value that numpy cannot read as numbers is not finite.  A value
the package derives itself is not checked again.
"""

from __future__ import annotations

import cmath

import numpy as np


def finite(name: str, value):
    """value, or ValueError unless it is a number, or numbers, all finite.
    A Python number skips numpy, many times slower on one scalar."""
    try:
        ok = (cmath.isfinite(value) if isinstance(value, (int, float, complex))
              else bool(np.isfinite(value).all()))
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def positive(name: str, value):
    """value, or ValueError unless it is finite and every entry is above 0."""
    finite(name, value)
    if not (value > 0 if isinstance(value, (int, float)) else np.greater(value, 0).all()):
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def integer(name: str, value, least: int) -> int:
    """value as an int, or ValueError unless it is a whole number >= least."""
    try:
        ok = float(value).is_integer() and value >= least
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


class TmscatError(Exception):
    """Base class for all package-specific errors."""


class UnsupportedEvaluationError(TmscatError):
    """A symbolic (delta-function) factor was asked for a numeric sample."""


class SpectralSingularityError(TmscatError):
    """The requested quantity diverges: the system sits on a zero-width
    resonance (laser threshold / coherent-perfect-absorption point)."""


class NearResonanceError(TmscatError):
    """A pole of the integrand was detected inside the integration interval."""

    def __init__(self, message: str, pole_estimate: complex | None = None):
        super().__init__(message)
        self.pole_estimate = pole_estimate


class NoRootError(TmscatError):
    """Root search failed to converge."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class DivergenceError(TmscatError):
    """Numerical evolution produced non-finite values."""


class ConsistencyError(TmscatError):
    """An internal cross-check identity failed beyond its tolerance."""


class AccuracyWarning(UserWarning):
    """Step-halving check detected a result change above tolerance.

    Carries a structured record: operation name, step count, and the
    observed change. Consumers may format it as {op, steps, delta}.
    """

    def __init__(self, op: str, steps: int, delta: float):
        super().__init__(f"{op}: result changed by {delta:.3e} when halving {steps} steps")
        self.op = op
        self.steps = steps
        self.delta = delta

    def record(self) -> dict:
        return {"op": self.op, "steps": self.steps, "delta": self.delta}
