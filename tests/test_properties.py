"""Property tests: invariances and identities of the estimators.

Examples are simulated flights, so every stride is consistent with the
claimed speed. Runs are derandomized, so the suite draws the same
examples every time.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pflight import (
    FlightParams,
    IncrementSummary,
    SeedSpec,
    indicator_estimate,
    modified_mle,
    pseudo_mle,
    sample_at_grid,
    score,
    simulate_trajectory,
)

ESTIMATORS = (pseudo_mle, modified_mle, indicator_estimate)
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@st.composite
def records(draw):
    """(positions, delta, speed) of a simulated flight observed on a grid."""
    rate = draw(st.floats(0.05, 3.0))
    speed = draw(st.floats(0.5, 4.0))
    n = draw(st.integers(5, 300))
    delta = draw(st.floats(0.05, 3.0))
    seed = draw(st.integers(0, 2**32 - 1))
    traj = simulate_trajectory(FlightParams(rate=rate, speed=speed), n * delta, SeedSpec(seed))
    sample = sample_at_grid(traj, n)
    return sample.positions, sample.delta, speed


def values(positions, delta, speed):
    summary = IncrementSummary.from_positions(positions, delta, speed)
    out = []
    for func in ESTIMATORS:
        try:
            out.append(func(summary).value)
        except ArithmeticError:
            out.append(None)
    return summary.n_plus, out


@PROPERTY
@given(records(), st.floats(0.0, 2.0 * math.pi), st.floats(-100.0, 100.0),
       st.floats(-100.0, 100.0))
def test_rotation_and_translation_invariance(record, angle, tx, ty):
    positions, delta, speed = record
    rot = np.array([[math.cos(angle), -math.sin(angle)],
                    [math.sin(angle), math.cos(angle)]])
    moved = positions @ rot.T + np.array([tx, ty])
    n_plus, base = values(positions, delta, speed)
    moved_n_plus, got = values(moved, delta, speed)
    assert moved_n_plus == n_plus
    # The indicator reads n_plus only; the others move by rounding in S.
    assert got[2] == base[2]
    for a, b in zip(base[:2], got[:2]):
        assert (a is None) == (b is None)
        if a is not None:
            assert b == pytest.approx(a, rel=1e-8, abs=1e-12)


@PROPERTY
@given(records())
def test_score_vanishes_at_pseudo_mle(record):
    summary = IncrementSummary.from_positions(*record)
    assume(summary.n_plus > 0)
    hat = pseudo_mle(summary).value
    scale = summary.n * summary.delta
    assert abs(score(summary, hat)) <= 1e-12 * scale


@PROPERTY
@given(records())
def test_closed_forms_on_the_single_slack_sum(record):
    positions, delta, speed = record
    summary = IncrementSummary.from_positions(positions, delta, speed)
    n, c, s = summary.n, speed, summary.sum_sqrt_u_turned
    # S is the sum of sqrt(u) over turned strides, computed here apart.
    slack = (c * delta) ** 2 - np.sum(np.diff(positions, axis=0) ** 2, axis=1)
    turned = slack > summary.epsilon * (c * delta) ** 2
    assert turned.sum() == summary.n_plus
    assert s == pytest.approx(math.fsum(np.sqrt(slack[turned])), rel=1e-12, abs=1e-300)
    assume(c * n * delta - s > 0.0)
    assert pseudo_mle(summary).value == c * summary.n_plus / (c * n * delta - s)
    assert modified_mle(summary).value == c * n / (c * n * delta - s)
