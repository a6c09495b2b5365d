"""Tests for CSV and NDJSON serialization."""

import io
import json
import math

import numpy as np
import pytest

from pflight import (
    DiscreteSample,
    Estimate,
    ExperimentConfig,
    ExperimentOutcome,
    FlightParams,
    ParameterError,
    SeedSpec,
    run_experiment,
    sample_at_grid,
    simulate_trajectory,
)
from pflight.io import (
    DENSITY_HEADER,
    ESTIMATES_HEADER,
    FISHER_HEADER,
    MOMENTS_HEADER,
    POSITIONS_HEADER,
    SUMMARY_HEADER,
    estimates_csv_lines,
    fmt_raw,
    fmt_summary,
    raw_ndjson_lines,
    read_positions_csv,
    read_sample_ndjson,
    sample_csv_lines,
    sample_ndjson_line,
    summary_csv_lines,
    trajectory_csv_lines,
    trajectory_ndjson_line,
)


def make_sample():
    params = FlightParams(rate=1.0, speed=1.0)
    traj = simulate_trajectory(params, 10.0, SeedSpec(42))
    return traj, sample_at_grid(traj, 20)


class TestHeaders:
    def test_exact_header_strings(self):
        assert POSITIONS_HEADER == "i,t,x,y"
        assert ESTIMATES_HEADER == "kind,value,stderr,n,delta,n_plus,saturated"
        assert SUMMARY_HEADER == (
            "lambda,c,T,n,delta,estimator,reps,bias,rmse,min,max,saturated"
        )
        assert DENSITY_HEADER == "r,ac,singular_weight"
        assert MOMENTS_HEADER == "p,value_closed_form,value_quadrature"
        assert FISHER_HEADER == "lambda,delta,n,per_obs,idealized,total,full_per_obs"


class TestFormatting:
    def test_fmt_raw_round_trips_float64(self):
        for x in (0.1, 1.0 / 3.0, 1e-300, 12345.678901234567, math.pi):
            assert float(fmt_raw(x)) == x

    def test_fmt_summary_six_significant(self):
        assert fmt_summary(0.123456789) == "0.123457"
        assert fmt_summary(2.0) == "2"


class TestPositionsCsv:
    def test_round_trip(self):
        _, sample = make_sample()
        text = "\n".join(sample_csv_lines(sample)) + "\n"
        positions, delta = read_positions_csv(io.StringIO(text))
        assert delta == pytest.approx(0.5, rel=1e-15)
        assert np.array_equal(positions, sample.positions)

    def test_trajectory_rows_are_vertices(self):
        traj, _ = make_sample()
        lines = list(trajectory_csv_lines(traj))
        assert lines[0] == POSITIONS_HEADER
        assert len(lines) == 1 + traj.event_count + 2
        first = lines[1].split(",")
        assert first[:2] == ["0", "0"]

    def test_rejects_bad_header(self):
        with pytest.raises(ParameterError):
            read_positions_csv(io.StringIO("a,b,c,d\n0,0,0,0\n"))

    def test_rejects_bad_index(self):
        text = "i,t,x,y\n0,0,0,0\n2,0.5,0.1,0.1\n"
        with pytest.raises(ParameterError):
            read_positions_csv(io.StringIO(text))

    def test_rejects_non_equidistant_grid(self):
        text = "i,t,x,y\n0,0,0,0\n1,0.5,0.1,0.1\n2,1.2,0.2,0.2\n"
        with pytest.raises(ParameterError):
            read_positions_csv(io.StringIO(text))

    def test_rejects_single_row(self):
        with pytest.raises(ParameterError):
            read_positions_csv(io.StringIO("i,t,x,y\n0,0,0,0\n"))

    def test_rejects_nonzero_start(self):
        text = "i,t,x,y\n0,1,0,0\n1,2,0.1,0.1\n"
        with pytest.raises(ParameterError):
            read_positions_csv(io.StringIO(text))

    def test_skips_blank_lines(self):
        text = "i,t,x,y\n0,0,0,0\n\n1,0.5,0.1,0.1\n"
        positions, delta = read_positions_csv(io.StringIO(text))
        assert positions.shape == (2, 2)


class TestNdjson:
    def test_sample_round_trip(self):
        _, sample = make_sample()
        line = sample_ndjson_line(sample)
        positions, delta = read_sample_ndjson(io.StringIO(line + "\n"))
        assert delta == sample.delta
        assert np.array_equal(positions, sample.positions)

    def test_trajectory_record_parses(self):
        traj, _ = make_sample()
        obj = json.loads(trajectory_ndjson_line(traj))
        assert obj["type"] == "trajectory"
        assert obj["rate"] == 1.0
        assert len(obj["event_times"]) == traj.event_count
        assert len(obj["directions"]) == traj.event_count + 1

    def test_signed_zeros_survive(self):
        # JSON reads "-0" as the integer 0, so every NDJSON writer keeps -0.0's fraction.
        params = FlightParams(rate=1.0, speed=1.0, origin=(-0.0, 0.0))
        traj = simulate_trajectory(params, 5.0, SeedSpec(3))
        assert math.copysign(1.0, json.loads(trajectory_ndjson_line(traj))["origin"][0]) < 0
        sample = DiscreteSample(params, 1.0, np.array([[-0.0, 0.0], [-0.0, -0.5]]))
        positions, _ = read_sample_ndjson(io.StringIO(sample_ndjson_line(sample)))
        assert positions.tobytes() == sample.positions.tobytes()
        cfg = ExperimentConfig(lambda_grid=(1.0,), n_grid=(20,), horizon=50.0, reps=1,
                               master_seed=5, estimators=("dot",))
        outcome = ExperimentOutcome(cfg, (), {(0, 0, "dot"): np.array([-0.0])})
        value = json.loads(next(raw_ndjson_lines(outcome)))["indicator"]["value"]
        assert math.copysign(1.0, value) < 0 and isinstance(value, float)

    def test_rejects_wrong_type(self):
        traj, _ = make_sample()
        with pytest.raises(ParameterError):
            read_sample_ndjson(io.StringIO(trajectory_ndjson_line(traj) + "\n"))

    def test_rejects_empty_input(self):
        with pytest.raises(ParameterError):
            read_sample_ndjson(io.StringIO(""))

    def test_rejects_invalid_json(self):
        with pytest.raises(ParameterError):
            read_sample_ndjson(io.StringIO("{not json\n"))

    def test_speed_checked_when_given(self):
        _, sample = make_sample()
        line = sample_ndjson_line(sample) + "\n"
        positions, _ = read_sample_ndjson(io.StringIO(line), speed=1.0)
        assert np.array_equal(positions, sample.positions)
        with pytest.raises(ParameterError):
            read_sample_ndjson(io.StringIO(line), speed=2.0)

    def test_rejects_more_than_one_record(self):
        _, sample = make_sample()
        line = sample_ndjson_line(sample) + "\n"
        for text in (line + line, line + "\n{}\n", line + "x\n"):
            with pytest.raises(ParameterError, match="expected one discrete_sample record"):
                read_sample_ndjson(io.StringIO(text))
        # Blank lines around the one record are ignored.
        positions, _ = read_sample_ndjson(io.StringIO("\n" + line + "\n  \n"))
        assert np.array_equal(positions, sample.positions)

    def test_rejects_non_object_record(self):
        for text in ("[1, 2]\n", "3\n", '"discrete_sample"\n'):
            with pytest.raises(ParameterError, match="expected a discrete_sample record"):
                read_sample_ndjson(io.StringIO(text))

    def test_metadata_must_be_numbers(self):
        # JSON true reads as 1 in Python; it is neither a spacing, a count nor a speed.
        obj = {"type": "discrete_sample", "delta": 1, "n": 1, "speed": 1,
               "positions": [[0, 0], [0.5, 0]]}
        for good in (obj, dict(obj, delta=0.5, n=1.0, speed=1.0)):
            positions, delta = read_sample_ndjson(io.StringIO(json.dumps(good)), speed=1.0)
            assert positions.tolist() == [[0.0, 0.0], [0.5, 0.0]]
            assert delta == good["delta"] and type(delta) is float
        for key in ("delta", "n", "speed"):
            for bad in (True, False, "1", None, [1]):
                with pytest.raises(ParameterError, match="must be numbers"):
                    read_sample_ndjson(io.StringIO(json.dumps(dict(obj, **{key: bad}))),
                                       speed=1.0)
        # An integer beyond float64's range, as a spacing or a coordinate.
        for huge in (dict(obj, delta=10**400), dict(obj, positions=[[0, 0], [10**400, 0]])):
            with pytest.raises(ParameterError, match="malformed discrete_sample record"):
                read_sample_ndjson(io.StringIO(json.dumps(huge)), speed=1.0)

    def test_rejects_n_mismatch(self):
        _, sample = make_sample()
        obj = json.loads(sample_ndjson_line(sample))
        for n in (sample.n + 1, sample.n - 1):
            with pytest.raises(ParameterError):
                read_sample_ndjson(io.StringIO(json.dumps(dict(obj, n=n)) + "\n"))


class TestEstimateTables:
    def test_estimates_csv_exact_line(self):
        est = Estimate(
            value=0.5, kind="pseudo_mle", n=4, delta=1.0, stderr=0.25
        )
        lines = list(estimates_csv_lines([(est, 2)]))
        assert lines[0] == ESTIMATES_HEADER
        assert lines[1] == "pseudo_mle,0.5,0.25,4,1,2,false"

    def test_saturated_flag(self):
        est = Estimate(
            value=math.inf,
            kind="indicator",
            n=4,
            delta=1.0,
            stderr=math.inf,
            saturated=True,
        )
        (_, line) = estimates_csv_lines([(est, 4)])
        assert line.endswith(",true")
        assert "inf" in line


@pytest.fixture(scope="module")
def outcome():
    cfg = ExperimentConfig(
        lambda_grid=(1.0, 2.0),
        n_grid=(20,),
        horizon=50.0,
        reps=30,
        master_seed=5,
    )
    return run_experiment(cfg, workers=1)


class TestExperimentTables:
    def test_summary_lines(self, outcome):
        lines = list(summary_csv_lines(outcome))
        assert lines[0] == SUMMARY_HEADER
        assert len(lines) == 1 + 2 * 1 * 3
        row = lines[1].split(",")
        assert row[0] == "1"  # lambda
        assert row[1] == "1"  # c
        assert row[2] == "50"  # T
        assert row[3] == "20"  # n
        assert row[4] == "2.5"  # delta = T / n
        assert row[5] in ("pseudo_mle", "modified_mle", "indicator")
        assert row[6] == "30"
        assert int(row[11]) >= 0

    def test_raw_lines_parse_and_flag(self, outcome):
        lines = list(raw_ndjson_lines(outcome))
        assert len(lines) == 2 * 1 * 30
        saw_saturated = False
        for line in lines:
            obj = json.loads(line)
            assert set(obj) >= {"lambda", "n", "rep"}
            for kind in ("pseudo_mle", "modified_mle", "indicator"):
                rec = obj[kind]
                if rec.get("saturated"):
                    assert rec["value"] is None
                    saw_saturated = True
                elif not rec.get("failed"):
                    assert isinstance(rec["value"], float)
        # rate * delta = 5 at n = 20: the indicator saturates often.
        assert saw_saturated
