"""Tests for trajectory simulation and discrete sampling."""

import math
import warnings

import numpy as np
import pytest

from pflight import (
    DiscreteSample,
    FlightParams,
    ParameterError,
    SeedSpec,
    Trajectory,
    ground_truth_counts,
    position_at,
    sample_at_grid,
    simulate_trajectory,
    summarize_increments,
    vertex_positions,
)
from pflight.simulate import _chunk, _draw, _flight_block


class TestFlightParams:
    def test_defaults(self):
        params = FlightParams(rate=2.0, speed=3.0)
        assert params.origin == (0.0, 0.0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            FlightParams(rate=0.0, speed=1.0)
        with pytest.raises(ParameterError):
            FlightParams(rate=-1.0, speed=1.0)
        with pytest.raises(ParameterError):
            FlightParams(rate=1.0, speed=0.0)
        with pytest.raises(ParameterError):
            FlightParams(rate=math.nan, speed=1.0)
        with pytest.raises(ParameterError):
            FlightParams(rate=1.0, speed=1.0, origin=(0.0, math.inf))


class TestTrajectoryValidation:
    def test_event_outside_horizon_rejected(self):
        params = FlightParams(rate=1.0, speed=1.0)
        with pytest.raises(ParameterError):
            Trajectory(params, 1.0, np.array([1.5]), np.array([1.0, 2.0]))
        with pytest.raises(ParameterError):
            Trajectory(params, 1.0, np.array([0.0]), np.array([1.0, 2.0]))

    def test_non_increasing_events_rejected(self):
        params = FlightParams(rate=1.0, speed=1.0)
        with pytest.raises(ParameterError):
            Trajectory(
                params, 1.0, np.array([0.5, 0.5]), np.array([1.0, 2.0, 3.0])
            )

    def test_direction_count_must_be_events_plus_one(self):
        params = FlightParams(rate=1.0, speed=1.0)
        with pytest.raises(ParameterError):
            Trajectory(params, 1.0, np.array([0.5]), np.array([1.0]))

    def test_direction_range(self):
        params = FlightParams(rate=1.0, speed=1.0)
        with pytest.raises(ParameterError):
            Trajectory(params, 1.0, np.array([]), np.array([0.0]))
        with pytest.raises(ParameterError):
            Trajectory(params, 1.0, np.array([]), np.array([2 * math.pi + 0.1]))
        # Upper endpoint is included.
        Trajectory(params, 1.0, np.array([]), np.array([2 * math.pi]))


class TestSimulateTrajectory:
    def test_deterministic_anchor(self):
        params = FlightParams(rate=1.0, speed=1.0)
        traj = simulate_trajectory(params, 10.0, SeedSpec(42))
        assert traj.event_count == 7
        assert traj.event_times[0] == 0.7386763435727053
        assert traj.directions[0] == 3.0593328305343643

    def test_same_seed_same_path(self):
        params = FlightParams(rate=0.7, speed=2.0)
        a = simulate_trajectory(params, 25.0, SeedSpec(9, 1))
        b = simulate_trajectory(params, 25.0, SeedSpec(9, 1))
        assert np.array_equal(a.event_times, b.event_times)
        assert np.array_equal(a.directions, b.directions)

    def test_different_stream_differs(self):
        params = FlightParams(rate=0.7, speed=2.0)
        a = simulate_trajectory(params, 25.0, SeedSpec(9, 1))
        b = simulate_trajectory(params, 25.0, SeedSpec(9, 2))
        assert not np.array_equal(a.event_times, b.event_times)

    def test_int_seed_accepted(self):
        params = FlightParams(rate=1.0, speed=1.0)
        a = simulate_trajectory(params, 5.0, 42)
        b = simulate_trajectory(params, 5.0, SeedSpec(42))
        assert np.array_equal(a.event_times, b.event_times)

    def test_path_length_is_speed_times_horizon(self):
        params = FlightParams(rate=2.0, speed=1.5)
        traj = simulate_trajectory(params, 12.0, SeedSpec(0))
        assert traj.path_length() == pytest.approx(1.5 * 12.0, rel=1e-12)

    def test_event_count_mean_matches_rate(self):
        # The number of events over [0, T] is Poisson(rate * T).
        params = FlightParams(rate=2.0, speed=1.0)
        horizon = 50.0
        reps = 400
        counts = [
            simulate_trajectory(params, horizon, SeedSpec(1234, k)).event_count
            for k in range(reps)
        ]
        mean = float(np.mean(counts))
        expected = params.rate * horizon
        sigma = math.sqrt(expected / reps)
        assert abs(mean - expected) < 3.0 * sigma

    def test_validation(self):
        params = FlightParams(rate=1.0, speed=1.0)
        with pytest.raises(ParameterError):
            simulate_trajectory(params, 0.0, SeedSpec(1))
        with pytest.raises(ParameterError):
            simulate_trajectory(params, -1.0, SeedSpec(1))


class TestFlightBlock:
    def test_rare_rows_keep_their_first_chunk(self):
        # Rows 1, 2, 4 and 5 are drawn as the Monte Carlo kernel draws them; rows 0, 3 and 6
        # get exponentials scaled down so that their first chunk ends before the horizon.
        rate, horizon, rows = 1.5, 20.0, 7
        chunk, rare_rows = _chunk(rate, horizon), [0, 3, 6]
        gaps, uniforms = np.empty((rows, chunk)), np.empty((rows, chunk))
        for row in range(rows):
            rng = SeedSpec(5, row).generator()
            rng.standard_exponential(out=gaps[row], method="inv")
            rng.random(out=uniforms[row])
        gaps[rare_rows] *= 0.01
        own = np.add.accumulate(gaps / rate, axis=1)
        knots, headings, counts, rare = _flight_block(gaps, uniforms, rate, horizon)
        assert rare.tolist() == rare_rows
        assert knots.shape == headings.shape == (rows, chunk)
        for row in rare_rows:
            assert counts[row] == chunk - 1
            assert knots[row, 1:].tobytes() == own[row, :-1].tobytes()
            # A valid flight on [0, horizon]: its last segment runs to the horizon.
            Trajectory(FlightParams(rate=rate, speed=1.0), horizon, knots[row, 1:], headings[row])
        for row in sorted(set(range(rows)) - set(rare_rows)):
            events, directions = _draw(SeedSpec(5, row).generator(), rate, horizon)
            count = events.size
            assert counts[row] == count < chunk
            assert knots[row, 0] == 0.0
            assert knots[row, 1:count + 1].tobytes() == events.tobytes()
            assert np.all(knots[row, count + 1:] == horizon)
            assert headings[row, :count + 1].tobytes() == directions.tobytes()
            assert np.all(np.isfinite(headings[row]))


class TestPositions:
    def test_position_at_origin_and_end(self):
        params = FlightParams(rate=1.0, speed=2.0, origin=(3.0, -1.0))
        traj = simulate_trajectory(params, 8.0, SeedSpec(5))
        assert position_at(traj, 0.0) == (3.0, -1.0)
        knots, verts = vertex_positions(traj)
        assert knots[0] == 0.0
        assert knots[-1] == 8.0
        end = position_at(traj, 8.0)
        assert end[0] == pytest.approx(verts[-1, 0], abs=1e-12)
        assert end[1] == pytest.approx(verts[-1, 1], abs=1e-12)

    def test_positions_inside_disc(self):
        # The walker moves at constant speed, so it can never be farther
        # than speed * t from the origin.
        params = FlightParams(rate=1.0, speed=1.3)
        traj = simulate_trajectory(params, 10.0, SeedSpec(77))
        sample = sample_at_grid(traj, 40)
        times = np.arange(41) * (10.0 / 40)
        radii = np.hypot(sample.positions[:, 0], sample.positions[:, 1])
        assert np.all(radii <= 1.3 * times * (1 + 1e-12) + 1e-12)

    def test_sample_matches_position_at(self):
        params = FlightParams(rate=2.0, speed=1.0)
        traj = simulate_trajectory(params, 6.0, SeedSpec(11))
        n = 24
        sample = sample_at_grid(traj, n)
        for i in range(n + 1):
            t = 6.0 * i / n
            x, y = position_at(traj, t)
            assert sample.positions[i, 0] == pytest.approx(x, abs=1e-12)
            assert sample.positions[i, 1] == pytest.approx(y, abs=1e-12)

    def test_sample_anchor(self):
        params = FlightParams(rate=1.0, speed=1.0)
        traj = simulate_trajectory(params, 10.0, SeedSpec(42))
        sample = sample_at_grid(traj, 20)
        assert sample.positions[1, 0] == -0.4983092840779574
        assert sample.positions[1, 1] == 0.04108354173770256
        assert sample.positions[20, 0] == 2.154100973914214
        assert sample.positions[20, 1] == -2.483192621608388

    def test_no_turn_fraction_matches_exponential(self):
        # P(no event in an interval of length delta) = exp(-rate*delta).
        params = FlightParams(rate=1.0, speed=1.0)
        horizon, n = 200.0, 200
        total = 0
        quiet = 0
        for k in range(40):
            traj = simulate_trajectory(params, horizon, SeedSpec(31415, k))
            counts = ground_truth_counts(traj, n)
            total += n
            quiet += int(np.sum(counts == 0))
        p = math.exp(-params.rate * horizon / n)
        sigma = math.sqrt(total * p * (1 - p))
        assert abs(quiet - total * p) < 3.0 * sigma

    def test_position_at_validation(self):
        params = FlightParams(rate=1.0, speed=1.0)
        traj = simulate_trajectory(params, 5.0, SeedSpec(1))
        with pytest.raises(ParameterError):
            position_at(traj, -0.1)
        with pytest.raises(ParameterError):
            position_at(traj, 5.1)


class TestGroundTruthCounts:
    def test_counts_sum_to_event_count(self):
        params = FlightParams(rate=2.0, speed=1.0)
        traj = simulate_trajectory(params, 30.0, SeedSpec(8))
        counts = ground_truth_counts(traj, 60)
        assert counts.shape == (60,)
        assert int(counts.sum()) == traj.event_count

    def test_grid_point_event_lands_in_earlier_cell(self):
        # An event exactly at a grid time t = i*delta belongs to the cell
        # ((i-1)*delta, i*delta].
        params = FlightParams(rate=1.0, speed=1.0)
        traj = Trajectory(
            params, 4.0, np.array([2.0]), np.array([1.0, 2.0])
        )
        counts = ground_truth_counts(traj, 4)
        assert counts.tolist() == [0, 1, 0, 0]

    def test_record_size_limit(self):
        # One limit for both grid paths: n above 1e9 is rejected before any grid exists.
        traj = simulate_trajectory(FlightParams(rate=1.0, speed=1.0), 5.0, SeedSpec(1))
        for grid_path in (ground_truth_counts, sample_at_grid):
            for n, message in ((0, "n must be an integer >= 1"),
                               (10**9 + 1, "n = 1000000001 exceeds the limit of 1e\\+09")):
                with pytest.raises(ParameterError, match=message):
                    grid_path(traj, n)

    @pytest.mark.xfail(strict=True, reason="positions are absolute: at |P| = 1e5 a stride's "
                       "rounding error, about ulp(|P|), exceeds the epsilon (c delta)^2 band")
    def test_far_origin_keeps_turn_count(self):
        # The same flight at the origin classifies its one turned stride exactly; started at
        # x0 = 1e5 it reads 18 turned strides, and pseudo_mle 18.10 instead of 1.005.
        params = FlightParams(rate=1.0, speed=1.0, origin=(1e5, 0.0))
        traj = simulate_trajectory(params, 1.0, SeedSpec(1))
        summary = summarize_increments(sample_at_grid(traj, 100))
        assert summary.n_plus == (ground_truth_counts(traj, 100) > 0).sum()


class TestDiscreteSample:
    def test_validation(self):
        params = FlightParams(rate=1.0, speed=1.0)
        good = np.array([[0.0, 0.0], [0.5, 0.0]])
        DiscreteSample(params, 1.0, good)
        with pytest.raises(ParameterError):
            DiscreteSample(params, 1.0, np.array([[0.1, 0.0], [0.5, 0.0]]))
        with pytest.raises(ParameterError):
            DiscreteSample(params, 1.0, np.array([[0.0, 0.0], [1.5, 0.0]]))
        with pytest.raises(ParameterError):
            DiscreteSample(params, 0.0, good)

    def test_non_finite_position_rejected(self):
        # A non-finite position away from the origin row fails the step test. So does a step
        # whose square overflows, or inf - inf: a -inf or NaN slack, with no numpy warning.
        params = FlightParams(rate=1.0, speed=1.0)
        for bad in ([[0.5, math.nan]], [[math.nan, 0.0]], [[math.inf, 0.0]],
                    [[1e200, 0.0], [1e200, 0.0]], [[math.inf, 0.0], [math.inf, 0.0]],
                    [[1e300, 1e300]]):
            pos = np.array([[0.0, 0.0], [0.5, 0.0], *bad, [0.5, 0.5]])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ParameterError, match="non-finite"):
                    DiscreteSample(params, 1.0, pos)

    def test_step_bound_on_squared_slack(self):
        # Steps may exceed speed*delta by a relative 1e-9, no more.
        params = FlightParams(rate=1.0, speed=2.0)
        DiscreteSample(params, 0.5, np.array([[0.0, 0.0], [1.0 + 5e-10, 0.0]]))
        with pytest.raises(ParameterError, match="exceeds"):
            DiscreteSample(params, 0.5, np.array([[0.0, 0.0], [1.0 + 2e-9, 0.0]]))

    def test_slack_per_stride(self):
        params = FlightParams(rate=1.0, speed=1.0)
        sample = DiscreteSample(params, 1.0, [[0.0, 0.0], [0.5, 0.0], [0.5, 0.25]])
        assert summarize_increments(sample).u.tolist() == [0.75, 0.9375]
        assert sample == DiscreteSample(params, 1.0, sample.positions)

    def test_n_property(self):
        params = FlightParams(rate=1.0, speed=1.0)
        sample = DiscreteSample(
            params, 1.0, np.array([[0.0, 0.0], [0.5, 0.0], [0.9, 0.3]])
        )
        assert sample.n == 2
