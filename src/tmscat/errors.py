"""Exception and warning types shared across the package."""

from __future__ import annotations


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
