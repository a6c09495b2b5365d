"""Exception types shared across the package.

Validation problems (bad parameters, points outside the support of a
density, observation files inconsistent with the claimed motion) raise
subclasses of ``ValueError`` so callers can treat them uniformly.
Numerical failures raise ``NumericalError`` and carry the best estimate
that was achieved, so a caller can still inspect it.

The ``require_*`` helpers are the package's scalar boundary checks; each
returns the checked value and raises the exception type its caller names.
"""

from __future__ import annotations

import math
from numbers import Integral, Real

__all__ = [
    "ParameterError",
    "DomainError",
    "InconsistentSampleError",
    "NumericalError",
    "QuadratureError",
    "EmptyCellError",
    "BesselOverflowError",
]


class ParameterError(ValueError):
    """A parameter violates its documented constraint (e.g. rate <= 0)."""


class DomainError(ValueError):
    """An evaluation point lies outside the support of the quantity asked for."""


class InconsistentSampleError(ValueError):
    """Observed positions are impossible under the claimed speed and spacing.

    Raised when a squared slack c^2 dt^2 - |increment|^2 is negative beyond
    the classification tolerance, i.e. some increment is longer than the
    distance the mover can cover in one step.
    """


class NumericalError(ArithmeticError):
    """A numerical routine could not reach its target accuracy."""

    def __init__(self, message: str, estimate: float | None = None,
                 error_bound: float | None = None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class QuadratureError(NumericalError):
    """Adaptive quadrature failed; ``estimate`` holds the best value reached."""


class EmptyCellError(NumericalError):
    """A Monte Carlo cell finished with zero successful replications."""


class BesselOverflowError(NumericalError):
    """exp(x) * scaled value would overflow; ``scaled_value`` is exp(-x) * I_nu(x)."""

    def __init__(self, message: str, scaled_value: float):
        super().__init__(message, estimate=scaled_value)
        self.scaled_value = scaled_value


# Neither accepts a bool. The concrete-type tests come first because the ABC isinstance
# checks cost several times more: run_replication and SeedSpec pay require_int per
# replication, and the analytics functions make two or three checks per call.
def _is_real(value) -> bool:
    return isinstance(value, float) or (type(value) is not bool and isinstance(value, (int, Real)))


def _is_int(value) -> bool:
    return type(value) is int or (isinstance(value, Integral) and not isinstance(value, bool))


def require_positive(name: str, value: float, error: type[ValueError] = ParameterError) -> float:
    """``value`` as a float, checked to be a finite real number > 0."""
    if _is_real(value) and math.isfinite(value) and value > 0.0:
        return float(value)
    raise error(f"{name} must be finite and > 0, got {value}")


def require_nonnegative(name: str, value: float, error: type[ValueError] = ParameterError) -> float:
    """``value`` as a float, checked to be a finite real number >= 0."""
    if _is_real(value) and math.isfinite(value) and value >= 0.0:
        return float(value)
    raise error(f"{name} must be finite and >= 0, got {value}")


def require_int(name: str, value: int, low: int = 1, high: int | None = None) -> int:
    """``value`` as an int, checked to be an integer (not a bool) in [low, high)."""
    if _is_int(value) and low <= value and (high is None or value < high):
        return int(value)
    bound = f">= {low}" if high is None else f"in [{low}, {high})"
    raise ParameterError(f"{name} must be an integer {bound}, got {value!r}")
