"""Rate estimation from equidistant observations of a planar flight.

Observing positions every ``delta`` time units gives increments whose
squared slack

    u_i = (c * delta)^2 - |P_i - P_{i-1}|^2

is zero exactly when the mover kept one heading through the whole step
(full stride), and positive when at least one direction change happened
inside it. The slack array, the stride indicators and their sums are the
sufficient statistics for every estimator here.

Estimators:

* ``pseudo_mle``      root of the pseudo-likelihood score; uses turned
                      steps only.
* ``modified_mle``    closed form derived assuming every step turned;
                      flagged when that assumption fails in the data.
* ``indicator_estimate``  uses only the fraction of turned steps, through
                      the exact per-step no-turn probability exp(-rate*delta).
* ``poisson_mle``     event count over elapsed time, for a continuously
                      observed path; the benchmark the others approach as
                      delta shrinks.

Classification uses a relative tolerance ``epsilon``: a step is "turned"
when u_i > epsilon * (c * delta)^2. Tiny negative slacks (floating-point
noise) are clamped to zero; slacks below -epsilon * (c * delta)^2 mean the
data is impossible under the claimed speed and raise
``InconsistentSampleError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, InconsistentSampleError, NumericalError, ParameterError,
                     require_positive)
from .simulate import DiscreteSample, Trajectory, _record_slack

__all__ = [
    "IncrementSummary",
    "Estimate",
    "summarize_increments",
    "pseudo_log_likelihood",
    "score",
    "pseudo_mle",
    "modified_mle",
    "indicator_estimate",
    "poisson_mle",
    "pseudo_likelihood_ratio",
    "ESTIMATORS",
    "ESTIMATOR_KINDS",
    "DEFAULT_EPSILON",
    "check_epsilon",
    "estimator_name",
]

DEFAULT_EPSILON = 1e-9


def check_epsilon(epsilon: float) -> float:
    """The turn-classification tolerance, checked to lie in (0, 1e-3]."""
    if not 0.0 < epsilon <= 1e-3:
        raise ParameterError(f"epsilon must lie in (0, 1e-3], got {epsilon}")
    return float(epsilon)


def _turn_tolerance(epsilon: float, speed: float, delta: float) -> float:
    """epsilon*(speed*delta)^2, which must be a normal double to tell a turn from rounding."""
    tol = epsilon * (speed * delta) ** 2
    if not tol >= 2.0**-1022:
        raise ParameterError(f"the turn tolerance epsilon*(speed*delta)^2 = {tol:.6g} is below "
                             "2^-1022; raise speed*delta or epsilon")
    return tol


@dataclass(frozen=True)
class IncrementSummary:
    """Sufficient statistics of one equidistant observation record."""

    n: int
    delta: float
    speed: float
    epsilon: float
    u: np.ndarray
    turned: np.ndarray
    n_plus: int
    sum_sqrt_u_turned: float

    @classmethod
    def from_positions(cls, positions: np.ndarray, delta: float, speed: float,
                       epsilon: float = DEFAULT_EPSILON) -> "IncrementSummary":
        delta = require_positive("delta", delta)
        speed = require_positive("speed", speed)
        u_raw = _record_slack(np.asarray(positions, dtype=np.float64), speed, delta)
        epsilon = check_epsilon(epsilon)
        turned, (n_plus,), (s,) = _classify(u_raw, delta, speed, epsilon, (0, u_raw.size))
        return cls(n=u_raw.size, delta=delta, speed=speed, epsilon=epsilon,
                   u=np.maximum(u_raw, 0.0, out=u_raw), turned=turned, n_plus=n_plus,
                   sum_sqrt_u_turned=s)


def _classify(u_raw: np.ndarray, delta: float, speed: float, epsilon: float,
              starts: np.ndarray | tuple[int, int]) -> tuple[np.ndarray, list[int], list[float]]:
    """The turned strides (slack > epsilon*(speed*delta)^2), and each row's n_plus and S.

    Row r's slacks are u_raw[starts[r]:starts[r + 1]], with starts[0] = 0 and
    starts[-1] >= u_raw.size."""
    tol = _turn_tolerance(epsilon, speed, delta)
    # Written so that a NaN slack (a non-finite position) fails the test.
    if not np.all(u_raw >= -tol):
        worst = float(u_raw.min())
        raise InconsistentSampleError(
            f"slack {worst:.17g} is non-finite or below -epsilon*(speed*delta)^2 = "
            f"{-tol:.17g}; an increment is non-finite or longer than one stride")
    turned = u_raw > tol
    at = np.flatnonzero(turned)
    roots = u_raw.take(at)
    np.sqrt(roots, out=roots)
    bounds = at.searchsorted(starts)
    n_plus, bounds = np.diff(bounds).tolist(), bounds.tolist()
    # One sum per row keeps np.sum's pairwise order; a masked row-wise sum does not.
    return turned, n_plus, [float(np.add.reduce(roots[a:b])) for a, b in zip(bounds, bounds[1:])]


def summarize_increments(sample: DiscreteSample,
                         epsilon: float = DEFAULT_EPSILON) -> IncrementSummary:
    """Sufficient statistics of a simulated or deserialized sample."""
    return IncrementSummary.from_positions(sample.positions, sample.delta, sample.params.speed,
                                           epsilon)


@dataclass(frozen=True)
class Estimate:
    """One point estimate of the direction-change rate.

    ``saturated`` marks the indicator estimator's degenerate case (every
    step turned, the estimate diverges). ``condition_warning`` marks a
    modified-MLE value computed on data where some step did not turn, i.e.
    outside the regime its derivation assumes.
    """

    value: float
    kind: str
    n: int
    delta: float
    stderr: float
    saturated: bool = False
    condition_warning: bool = False


def pseudo_log_likelihood(summary: IncrementSummary, rate: float) -> float:
    """Log of the product of per-step marginal densities at ``rate``.

    Steps are treated as independent, which they are not exactly; each
    factor is the exact marginal law of one increment (atom at full stride,
    density inside), hence "pseudo".
    """
    rate = require_positive("rate", rate, DomainError)
    n, delta, c = summary.n, summary.delta, summary.speed
    value = -rate * n * delta - n * math.log(2.0 * math.pi * c)
    value += summary.n_plus * math.log(rate)
    value += (rate / c) * summary.sum_sqrt_u_turned
    if summary.n_plus:
        value -= 0.5 * float(np.sum(np.log(summary.u[summary.turned])))
    return value


def score(summary: IncrementSummary, rate: float) -> float:
    """Derivative of the pseudo-log-likelihood in the rate.

    Strictly decreasing in ``rate`` (second derivative -n_plus / rate^2),
    so it has at most one root.
    """
    rate = require_positive("rate", rate, DomainError)
    return (-summary.n * summary.delta
            + summary.sum_sqrt_u_turned / summary.speed
            + summary.n_plus / rate)


def _sampling_stderr(value: float, n: int, delta: float) -> float:
    return math.sqrt(value / (n * delta)) if value > 0.0 else 0.0


# Closed forms over one record's (n_plus, S, n, delta, c), as Python floats; NaN = failed.
def _hat(n_plus: int, s: float, n: int, delta: float, c: float) -> float:
    denom = c * n * delta - s
    return c * n_plus / denom if denom > 0.0 else math.nan


def _tilde(n_plus: int, s: float, n: int, delta: float, c: float) -> float:
    return _hat(n, s, n, delta, c)  # the same denominator, every stride counted as turned


def _dot(n_plus: int, s: float, n: int, delta: float, c: float) -> float:
    """-log(1 - n_plus/n)/delta, +inf if every stride turned, +0.0 if none did."""
    return math.inf if n_plus == n else (-math.log1p(-n_plus / n) / delta if n_plus else 0.0)


def _closed_form(formula, summary: IncrementSummary, kind: str) -> float:
    """``formula``'s value on one record; NaN (c*n*delta - S <= 0) raises NumericalError."""
    value = formula(summary.n_plus, summary.sum_sqrt_u_turned, summary.n,
                    summary.delta, summary.speed)
    if math.isnan(value):
        raise NumericalError(f"denominator c*n*delta - S <= 0 in {kind}", estimate=math.inf)
    return value


def pseudo_mle(summary: IncrementSummary) -> Estimate:
    """Closed-form root of the score.

    Zero when no step turned (the score then has no positive root and the
    pseudo-likelihood is maximized at the boundary).
    """
    n, delta = summary.n, summary.delta
    value = _closed_form(_hat, summary, "pseudo-MLE")
    return Estimate(value=value, kind="pseudo_mle", n=n, delta=delta,
                    stderr=_sampling_stderr(value, n, delta))


def modified_mle(summary: IncrementSummary) -> Estimate:
    """Closed-form estimator assuming every step contains a turn.

    Uses the same slack sum as ``pseudo_mle``, since non-turned steps add
    nothing to it. When some step did not turn the assumption is violated;
    the value is still returned with ``condition_warning`` set.
    """
    n, delta = summary.n, summary.delta
    value = _closed_form(_tilde, summary, "modified MLE")
    return Estimate(value=value, kind="modified_mle", n=n, delta=delta,
                    stderr=value / math.sqrt(n),
                    condition_warning=summary.n_plus < n)


def indicator_estimate(summary: IncrementSummary) -> Estimate:
    """Estimator inverting the exact no-turn probability exp(-rate*delta).

    The turned fraction n_plus / n estimates 1 - exp(-rate*delta). When
    every step turned the inversion diverges; the estimate is returned as
    +inf with ``saturated`` set.
    """
    n, delta = summary.n, summary.delta
    value = _dot(summary.n_plus, summary.sum_sqrt_u_turned, n, delta, summary.speed)
    return Estimate(value=value, kind="indicator", n=n, delta=delta,
                    stderr=_sampling_stderr(value, n, delta), saturated=math.isinf(value))


def poisson_mle(traj: Trajectory) -> Estimate:
    """Event count over elapsed time, from a continuously observed path.

    The whole path is one observation: n = 1 and delta = horizon, which
    makes the standard error formula sqrt(value / (n * delta)) line up
    with the usual sqrt(rate / T).
    """
    value = traj.event_count / traj.horizon
    return Estimate(value=value, kind="poisson_mle", n=1, delta=traj.horizon,
                    stderr=_sampling_stderr(value, 1, traj.horizon))


def pseudo_likelihood_ratio(summary: IncrementSummary, rate: float, z: float) -> float:
    """Pseudo-likelihood ratio at the local alternative rate + z * rate / sqrt(n).

    Normalized so that under the all-steps-turned regime it equals
    exp(pseudo_log_likelihood(rate + phi * z) - pseudo_log_likelihood(rate))
    with phi = rate / sqrt(n).
    """
    rate = require_positive("rate", rate, DomainError)
    z = float(z)
    if not math.isfinite(z):
        raise DomainError(f"z must be finite, got {z}")
    n, delta, c = summary.n, summary.delta, summary.speed
    phi = rate / math.sqrt(n)
    if rate + phi * z <= 0.0:
        raise DomainError(
            f"local parameter rate + z * rate / sqrt(n) = {rate + phi * z:.17g} "
            "must stay positive")
    log_ratio = ((phi * z / c) * summary.sum_sqrt_u_turned
                 - phi * n * z * delta
                 + n * math.log1p(z / math.sqrt(n)))
    return math.exp(log_ratio)


# Short names used by the CLI and Monte Carlo configs -> (reported kind,
# function returning an Estimate, closed form over (n_plus, S, n, delta, c)).
ESTIMATORS = {
    "hat": ("pseudo_mle", pseudo_mle, _hat),
    "tilde": ("modified_mle", modified_mle, _tilde),
    "dot": ("indicator", indicator_estimate, _dot),
}
ESTIMATOR_KINDS = {name: kind for name, (kind, *_) in ESTIMATORS.items()}
_KIND_TO_NAME = {kind: name for name, kind in ESTIMATOR_KINDS.items()}


def estimator_name(name: str) -> str:
    """The registry's short name for a short name or a reported kind."""
    if name in ESTIMATORS:
        return name
    if name in _KIND_TO_NAME:
        return _KIND_TO_NAME[name]
    raise ParameterError(
        f"unknown estimator {name!r}; expected one of "
        f"{sorted(ESTIMATORS)} or {sorted(_KIND_TO_NAME)}")
