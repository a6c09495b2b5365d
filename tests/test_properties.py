"""Property tests: invariances and identities of the estimators, and exact
serialization round-trips.

Estimator examples are simulated flights, so every stride is consistent
with the claimed speed. Runs are derandomized, so the suite draws the same
examples every time.
"""

import io
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pflight import (
    DiscreteSample,
    EmptyCellError,
    ExperimentConfig,
    FlightParams,
    IncrementSummary,
    SeedSpec,
    indicator_estimate,
    modified_mle,
    position_at,
    pseudo_mle,
    run_experiment,
    run_replication,
    sample_at_grid,
    score,
    simulate_trajectory,
    vertex_positions,
)
from pflight import montecarlo
from pflight.io import (positions_csv_lines, read_positions_csv, read_sample_ndjson,
                        sample_ndjson_line, summary_csv_lines)

ESTIMATORS = (pseudo_mle, modified_mle, indicator_estimate)
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@st.composite
def flights(draw, origin=st.just((0.0, 0.0))):
    """A simulated flight and the number of grid steps to observe it on."""
    rate = draw(st.floats(0.05, 3.0))
    speed = draw(st.floats(0.5, 4.0))
    n = draw(st.integers(5, 300))
    delta = draw(st.floats(0.05, 3.0))
    seed = draw(st.integers(0, 2**32 - 1))
    params = FlightParams(rate=rate, speed=speed, origin=draw(origin))
    return simulate_trajectory(params, n * delta, SeedSpec(seed)), n


def samples(origin=st.just((0.0, 0.0))):
    """A simulated flight observed on a grid."""
    return flights(origin).map(lambda flight: sample_at_grid(*flight))


ORIGINS = st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))


def records():
    """(positions, delta, speed) of a simulated flight observed on a grid."""
    return samples().map(lambda sample: (sample.positions, sample.delta, sample.params.speed))


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
@given(records(), st.integers(-8, 8), st.floats(1e-3, 1e3))
def test_scale_invariance(record, k, scale):
    # Positions and speed times s, delta fixed. A power of two scales every
    # slack exactly, so n_plus and the estimates keep their bits (repr tells
    # every float64 apart, -0.0 from 0.0 too).
    positions, delta, speed = record
    n_plus, base = values(positions, delta, speed)
    exact = values(positions * 2.0**k, delta, speed * 2.0**k)
    assert repr(exact) == repr((n_plus, base))
    scaled_n_plus, got = values(positions * scale, delta, speed * scale)
    assert scaled_n_plus == n_plus
    for a, b in zip(base, got):
        assert (a is None) == (b is None)
        if a is not None:
            assert b == pytest.approx(a, rel=1e-12, abs=0.0)


@PROPERTY
@given(records())
def test_score_vanishes_at_pseudo_mle(record):
    summary = IncrementSummary.from_positions(*record)
    assume(summary.n_plus > 0)
    hat = pseudo_mle(summary).value
    scale = summary.n * summary.delta
    assert abs(score(summary, hat)) <= 1e-12 * scale


# At epsilon = 2^-10 - 2^-22 the first stride's slack is exactly the turn tolerance (not
# turned), the second's lies between it and twice it (turned), and the third's is 0.75.
AT_TOLERANCE = DiscreteSample(FlightParams(rate=1.0, speed=1.0), 1.0, np.array(
    [[0.0, 0.0], [1.0 - 2.0**-11, 0.0], [2.0 - 3.0 * 2.0**-11, 0.0], [2.0 - 3.0 * 2.0**-11, 0.5]]))


@PROPERTY
@given(samples(origin=ORIGINS), st.sampled_from((1e-9, 1e-6, 1e-3)))
@example(AT_TOLERANCE, 2.0**-10 - 2.0**-22)
def test_closed_forms_on_the_single_slack_sum(sample, epsilon):
    positions, delta, c = sample.positions, sample.delta, sample.params.speed
    summary = IncrementSummary.from_positions(positions, delta, c, epsilon)
    n, s = summary.n, summary.sum_sqrt_u_turned
    # The slacks, turned strides and S, computed here apart.
    slack = (c * delta) ** 2 - np.sum(np.diff(positions, axis=0) ** 2, axis=1)
    turned = slack > epsilon * (c * delta) ** 2
    assert summary.u.tobytes() == np.maximum(slack, 0.0).tobytes()
    assert np.array_equal(turned, summary.turned)
    assert turned.sum() == summary.n_plus
    assert s == pytest.approx(math.fsum(np.sqrt(slack[turned])), rel=1e-12, abs=1e-300)
    assume(c * n * delta - s > 0.0)
    assert pseudo_mle(summary).value == c * summary.n_plus / (c * n * delta - s)
    assert modified_mle(summary).value == c * n / (c * n * delta - s)


@PROPERTY
@given(flights(origin=ORIGINS))
def test_one_position_formula(flight):
    # sample_at_grid observes at np.linspace(0, horizon, n + 1); position_at
    # and vertex_positions must give the same bits at the same times.
    traj, n = flight
    grid = np.linspace(0.0, traj.horizon, n + 1)
    at_grid = np.array([position_at(traj, t) for t in grid])
    assert at_grid.tobytes() == sample_at_grid(traj, n).positions.tobytes()
    knots, vertices = vertex_positions(traj)
    at_knots = np.array([position_at(traj, t) for t in knots])
    assert at_knots.tobytes() == vertices.tobytes()


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@PROPERTY
@given(st.lists(st.tuples(FINITE, FINITE), min_size=2, max_size=40), st.floats(1e-3, 1e3))
def test_csv_round_trip_is_exact(rows, delta):
    positions = np.array(rows, dtype=np.float64)
    times = np.arange(len(rows)) * delta
    text = "\n".join(positions_csv_lines(times, positions)) + "\n"
    back, back_delta = read_positions_csv(io.StringIO(text))
    assert back.tobytes() == positions.tobytes()
    assert back_delta == delta


# Bounded so that squared strides stay finite; subnormals are included.
BOUNDED = st.floats(-1e150, 1e150)


@PROPERTY
@given(st.lists(st.tuples(BOUNDED, BOUNDED), min_size=2, max_size=40), st.floats(1e-3, 1e3))
def test_ndjson_round_trip_is_exact(rows, delta):
    positions = np.array(rows, dtype=np.float64)
    step = float(np.max(np.hypot(*np.diff(positions, axis=0).T)))
    speed = 2.0 * step / delta + 1.0
    params = FlightParams(rate=1.0, speed=speed, origin=tuple(positions[0]))
    line = sample_ndjson_line(DiscreteSample(params, delta, positions))
    back, back_delta = read_sample_ndjson(io.StringIO(line + "\n"), speed=speed)
    assert back.tobytes() == positions.tobytes()
    assert back_delta == delta


@st.composite
def cells(draw, max_reps=12):
    """A one-cell Monte Carlo config with a short record."""
    return ExperimentConfig(
        lambda_grid=(draw(st.floats(0.05, 3.0)),),
        n_grid=(draw(st.integers(1, 300)),),
        horizon=draw(st.floats(1.0, 600.0)),
        reps=draw(st.integers(1, max_reps)),
        master_seed=draw(st.integers(0, 2**64 - 1)),
        speed=draw(st.floats(0.5, 4.0)),
        epsilon=draw(st.sampled_from((1e-9, 1e-6, 1e-3))))


# At lambda = 2, n = 200, T = 500 every stride turns in about a quarter of
# the replications, so the indicator saturates there.
SATURATING = ExperimentConfig(lambda_grid=(2.0,), n_grid=(200,), horizon=500.0, reps=12,
                              master_seed=3)


@PROPERTY
@given(cells().flatmap(lambda cfg: st.tuples(st.just(cfg), st.integers(1, cfg.reps))))
@example((SATURATING, 5))
def test_block_kernel_equals_run_replication(cell):
    # B replications per block, for any B from 1 to reps: every value keeps
    # the reference path's bits, NaN for failed and inf for saturated.
    cfg, block = cell
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "_BLOCK_STRIDES", block * cfg.n_grid[0])
        got = montecarlo._run_range(cfg, 0, 0, 0, cfg.reps)
    for rep in range(cfg.reps):
        estimates = run_replication(cfg, 0, 0, rep).estimates
        for name in cfg.estimators:
            est = estimates[name]
            want = np.float64(math.nan if est is None else est.value)
            assert got[name][rep].tobytes() == want.tobytes(), (name, rep)


def _outcome(cfg, workers):
    try:
        out = run_experiment(cfg, workers=workers)
    except EmptyCellError as exc:
        return str(exc)
    return list(summary_csv_lines(out)), {key: v.tobytes() for key, v in out.values.items()}


@settings(PROPERTY, max_examples=10)
@given(st.lists(st.floats(0.05, 3.0), min_size=1, max_size=2, unique=True),
       st.lists(st.integers(1, 120), min_size=1, max_size=2, unique=True),
       st.floats(1.0, 300.0), st.integers(1, 30), st.integers(0, 2**64 - 1))
def test_worker_count_invariance(rates, ns, horizon, reps, seed):
    # Each example starts a pool of two workers, hence the few examples.
    cfg = ExperimentConfig(lambda_grid=tuple(rates), n_grid=tuple(ns), horizon=horizon,
                           reps=reps, master_seed=seed)
    assert _outcome(cfg, 1) == _outcome(cfg, 2)
