"""Tests for CSV and NDJSON serialization."""

import io
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from pflight.cli import main
from pflight.estimators import ESTIMATOR_KINDS
from pflight.io import (
    DENSITY_HEADER,
    ESTIMATES_HEADER,
    FISHER_HEADER,
    MOMENTS_HEADER,
    POSITIONS_HEADER,
    SUMMARY_HEADER,
    _ROWS,
    estimates_csv_lines,
    fmt_json,
    fmt_raw,
    fmt_summary,
    raw_ndjson_lines,
    read_positions_csv,
    read_sample_ndjson,
    sample_csv_lines,
    positions_csv_lines,
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

    def test_reads_what_int_and_float_accept(self):
        # Whitespace-only lines are blank, fields may be padded, and "1_0" is
        # what float() makes of it.
        text = "i,t,x,y\n 0 ,0,0,0\n  \t\n1,1_0, 0.5 ,-0.0 \n"
        positions, delta = read_positions_csv(io.StringIO(text))
        assert delta == 10.0
        assert positions.tobytes() == np.array([[0.0, 0.0], [0.5, -0.0]]).tobytes()

    # Each line-numbered case follows a blank line, which still counts.
    @pytest.mark.parametrize("text, message", [
        ("i,t,x\n0,0,0,0\n", "expected header 'i,t,x,y', got 'i,t,x'"),
        ("i,t,x,y\n0,0,0,0\n\n1,1,1\n", "line 4: expected 4 fields, got 3"),
        ("i,t,x,y\n0,0,0,0\n\n1,1,abc,0\n", "line 4: could not convert string to float: 'abc'"),
        ("i,t,x,y\n0,0,0,0\n\n1.0,1,0,0\n",
         "line 4: invalid literal for int() with base 10: '1.0'"),
        ("i,t,x,y\n0,0,0,0\n\n2,1,0,0\n", "line 4: expected index 1, got 2"),
        ("i,t,x,y\n0,0,0,0\n", "need at least two position rows"),
        ("i,t,x,y\n\n", "need at least two position rows"),
        ("i,t,x,y\n0,0.5,0,0\n1,1,0,0\n", "time grid must start at 0, got 0.5"),
        ("i,t,x,y\n0,0,0,0\n1,-1,0,0\n", "non-increasing time grid: delta = -1.0"),
        ("i,t,x,y\n0,0,0,0\n1,1,0,0\n2,2.5,0,0\n",
         "time column is non-finite or not an equidistant grid"),
        ("i,t,x,y\n0,0,0,0\n1,1,0,0\n2,nan,0,0\n",
         "time column is non-finite or not an equidistant grid"),
        # An infinite last time must not widen the tolerance for the middle ones.
        ("i,t,x,y\n0,0,0,0\n1,1,0,0\n2,7,0,0\n3,inf,0,0\n",
         "time column is non-finite or not an equidistant grid"),
    ])
    def test_error_messages(self, text, message):
        with pytest.raises(ParameterError) as exc:
            read_positions_csv(io.StringIO(text))
        assert str(exc.value) == message


# Values whose text is easy to get wrong, placed on the rows around block boundaries.
SPECIALS = (-0.0, math.inf, -math.inf, math.nan, 5e-324, 1.7976931348623157e308)
FINITE_SPECIALS = (-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, -5e-324)
BLOCK_SIZES = (_ROWS - 1, _ROWS, _ROWS + 1, 2 * _ROWS + 1)


def boundary_table(rows, specials, columns=3):
    """Random finite rows with ``specials`` cycled over the columns of the first row, the
    rows on both sides of each block boundary and the last row."""
    table = np.random.default_rng(rows).normal(scale=50.0, size=(rows, columns))
    marked = sorted({0, rows - 1} | {b + d for b in range(_ROWS, rows, _ROWS) for d in (-1, 0)})
    cycle = iter(specials * (len(marked) * columns))
    for r in marked:
        table[r] = [next(cycle) for _ in range(columns)]
    return table


def reference_csv(times, positions):
    """The per-cell formula: every value through fmt_raw, row by row."""
    return [POSITIONS_HEADER] + [f"{i},{fmt_raw(t)},{fmt_raw(x)},{fmt_raw(y)}"
                                 for i, (t, (x, y)) in enumerate(zip(times, positions))]


def reference_json_array(values):
    return "[" + ",".join(fmt_json(v) for v in values) + "]"


class TestBlockBoundaries:
    @pytest.mark.parametrize("rows", BLOCK_SIZES)
    def test_csv_matches_per_cell_formula(self, rows):
        table = boundary_table(rows, SPECIALS)
        assert list(positions_csv_lines(table[:, 0], table[:, 1:])) == reference_csv(
            table[:, 0].tolist(), table[:, 1:].tolist())

    @pytest.mark.parametrize("rows", BLOCK_SIZES)
    def test_ndjson_matches_per_cell_formula(self, rows):
        # Duck-typed records: the writers read only these fields, and the record classes
        # would reject the non-finite values.
        table = boundary_table(rows, SPECIALS, columns=4)
        params = SimpleNamespace(rate=1.0, speed=1.0, origin=(-0.0, 0.0))
        sample = SimpleNamespace(params=params, delta=0.5, n=rows - 1, positions=table[:, :2])
        pairs = ",".join(f"[{fmt_json(x)},{fmt_json(y)}]" for x, y in table[:, :2].tolist())
        assert sample_ndjson_line(sample) == (
            '{"type":"discrete_sample","rate":1,"speed":1,"origin":[-0.0,0],"delta":0.5,'
            f'"n":{rows - 1},"positions":[{pairs}]}}')
        traj = SimpleNamespace(params=params, horizon=9.0, event_times=table[:, 2],
                               directions=table[:, 3])
        assert trajectory_ndjson_line(traj) == (
            '{"type":"trajectory","rate":1,"speed":1,"origin":[-0.0,0],"horizon":9,'
            f'"event_times":{reference_json_array(table[:, 2].tolist())},'
            f'"directions":{reference_json_array(table[:, 3].tolist())}}}')

    @pytest.mark.parametrize("rows", BLOCK_SIZES)
    def test_finite_tables_read_back_bit_for_bit(self, rows):
        positions = boundary_table(rows, FINITE_SPECIALS, columns=2)
        times = np.arange(rows) * 0.25
        text = "\n".join(positions_csv_lines(times, positions)) + "\n"
        got, delta = read_positions_csv(io.StringIO(text))
        assert delta == 0.25
        assert got.tobytes() == positions.tobytes()
        params = SimpleNamespace(rate=1.0, speed=1.0, origin=tuple(positions[0]))
        sample = SimpleNamespace(params=params, delta=0.25, n=rows - 1, positions=positions)
        got, delta = read_sample_ndjson(io.StringIO(sample_ndjson_line(sample)))
        assert delta == 0.25
        assert got.tobytes() == positions.tobytes()

    @staticmethod
    def second_block(bad_line):
        """Ten rows and blank lines fill the first block; the second holds ten more rows,
        then ``bad_line``, then a good row. Returns the text and the bad line's number."""
        lines = ([POSITIONS_HEADER] + [f"{i},{i},0,0" for i in range(10)]
                 + [""] * (_ROWS - 10) + [f"{i},{i},0,0" for i in range(10, 20)])
        return "\n".join(lines + [bad_line, "21,21,0,0"]) + "\n", len(lines) + 1

    @pytest.mark.parametrize("bad_line, message", [
        ("20,20,abc,0", "could not convert string to float: 'abc'"),
        ("21,20,0,0", "expected index 20, got 21"),
        ("20,20,0", "expected 4 fields, got 3"),
    ])
    def test_errors_in_the_second_block_name_their_line(self, bad_line, message):
        text, lineno = self.second_block(bad_line)
        assert lineno == _ROWS + 12
        with pytest.raises(ParameterError) as exc:
            read_positions_csv(io.StringIO(text))
        assert str(exc.value) == f"line {lineno}: {message}"

    def test_blank_blocks_between_rows(self):
        # A block of nothing but blank lines does not end the table.
        text = "\n".join([POSITIONS_HEADER, "0,0,0,0"] + [""] * (2 * _ROWS)
                         + ["1,1,0.5,0", "2,2,1,0"]) + "\n"
        positions, delta = read_positions_csv(io.StringIO(text))
        assert (positions.tolist(), delta) == ([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]], 1.0)

    # numpy receives the raw lines of each block. Each text below must read as the same
    # rows without its blank lines; a whitespace-only line sends its block line by line.
    ROWS_AROUND = [f"{i},{i / 2},{i / 4},-{i / 8}" for i in range(_ROWS + 10)]

    def read_as_plain(self, lines, newline="\n"):
        text = newline.join([POSITIONS_HEADER] + lines) + newline
        got = read_positions_csv(io.StringIO(text))
        plain = "\n".join([POSITIONS_HEADER] + [s for s in lines if s.strip()]) + "\n"
        expected = read_positions_csv(io.StringIO(plain))
        assert (got[0].tobytes(), got[1]) == (expected[0].tobytes(), expected[1])
        assert got[0].shape == (len([s for s in lines if s.strip()]), 2)

    def test_whitespace_block_between_rows(self):
        # The second block holds only whitespace-only lines. A block of empty lines, on
        # which numpy would warn that it read no data, is test_blank_blocks_between_rows.
        self.read_as_plain(["0,0,0,0"] + [" \t"] * (2 * _ROWS) + ["1,1,0.5,0", "2,2,1,0"])

    def test_crlf_across_a_block_boundary(self):
        self.read_as_plain(self.ROWS_AROUND, newline="\r\n")

    def test_whitespace_line_inside_a_data_block(self):
        lines = list(self.ROWS_AROUND)
        lines.insert(_ROWS + 3, "  ")
        lines.insert(5, "\t")
        self.read_as_plain(lines)

    def test_bad_field_after_a_whitespace_line_names_its_line(self):
        lines = list(self.ROWS_AROUND)
        lines[_ROWS + 4] = f"{_ROWS + 4},1,abc,0"
        lines.insert(_ROWS + 2, "  ")
        with pytest.raises(ParameterError) as exc:
            read_positions_csv(io.StringIO("\n".join([POSITIONS_HEADER] + lines) + "\n"))
        # The header is line 1, so row i is line i + 2 before the whitespace line, i + 3 after.
        assert str(exc.value) == (
            f"line {_ROWS + 7}: could not convert string to float: 'abc'")

    @pytest.mark.parametrize("blanks", [1, _ROWS, 2 * _ROWS + 1])
    def test_header_and_blank_lines_only(self, blanks):
        with pytest.raises(ParameterError) as exc:
            read_positions_csv(io.StringIO(POSITIONS_HEADER + "\n" * (blanks + 1)))
        assert str(exc.value) == "need at least two position rows"


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

    def test_origin_keeps_negative_zero(self):
        params = SimpleNamespace(rate=1.0, speed=1.0, origin=(-0.0, 5.0))
        sample = SimpleNamespace(params=params, delta=0.5, n=1,
                                 positions=np.array([[-0.0, 5.0], [0.5, 5.0]]))
        traj = SimpleNamespace(params=params, horizon=9.0, event_times=np.array([1.0]),
                               directions=np.array([2.0, 3.0]))
        for line in (sample_ndjson_line(sample), trajectory_ndjson_line(traj)):
            assert '"origin":[-0.0,5],' in line

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

    def test_positions_must_be_numbers(self):
        # JSON false and true would read as 0.0 and 1.0.
        obj = {"type": "discrete_sample", "delta": 1, "n": 2, "speed": 1,
               "positions": [[0, 0], [0.5, 0], [0.5, 0.5]]}
        positions, _ = read_sample_ndjson(io.StringIO(json.dumps(obj)), speed=1.0)
        assert positions.tolist() == [[0.0, 0.0], [0.5, 0.0], [0.5, 0.5]]
        for bad in (False, True, "0.5", None, [0.5], {}):
            rows = [[0, 0], [0.5, bad], [0.5, 0.5]]
            with pytest.raises(ParameterError, match="positions must be rows of numbers"):
                read_sample_ndjson(io.StringIO(json.dumps(dict(obj, positions=rows))))
        # A flat list of numbers is not a list of rows.
        with pytest.raises(ParameterError, match="malformed discrete_sample record"):
            read_sample_ndjson(io.StringIO(json.dumps(dict(obj, positions=[0, 0.5, 1]))))

    def test_rejects_n_mismatch(self):
        _, sample = make_sample()
        obj = json.loads(sample_ndjson_line(sample))
        for n in (sample.n + 1, sample.n - 1):
            with pytest.raises(ParameterError):
                read_sample_ndjson(io.StringIO(json.dumps(dict(obj, n=n)) + "\n"))

    RECORD = {"type": "discrete_sample", "delta": 1, "n": 1, "speed": 1}

    def test_origin_must_be_the_first_position(self, capsys, tmp_path):
        obj = dict(self.RECORD, positions=[[-0.0, 2], [0.5, 2]])
        # Missing, or two numbers equal to the first row: -0.0 equals 0, and 2 equals 2.0.
        for good in (obj, dict(obj, origin=[0, 2.0]), dict(obj, origin=[-0.0, 2])):
            positions, _ = read_sample_ndjson(io.StringIO(json.dumps(good)))
            assert positions.tobytes() == np.array([[-0.0, 2.0], [0.5, 2.0]]).tobytes()
        with pytest.raises(ParameterError) as exc:
            read_sample_ndjson(io.StringIO(json.dumps(dict(obj, origin=[5.0, 5.0]))))
        assert str(exc.value) == (
            "record's origin [5.0, 5.0] differs from its first position [-0.0, 2.0]")
        for bad in (["0", 2], [False, 2], [0, None], [0], [0, 2, 0], None, 0, "0,2", {}):
            with pytest.raises(ParameterError) as exc:
                read_sample_ndjson(io.StringIO(json.dumps(dict(obj, origin=bad))))
            assert str(exc.value) == (
                f"malformed discrete_sample record: origin must be two numbers, got {bad!r}")
        # No rows and n = -1 pass the n check; there is no first position.
        with pytest.raises(ParameterError, match="differs from its first position None"):
            read_sample_ndjson(io.StringIO(json.dumps(
                dict(self.RECORD, n=-1, positions=[], origin=[0, 0]))))
        # Through the command: exit 2 and no estimate.
        path = tmp_path / "moved.ndjson"
        path.write_text(json.dumps(dict(obj, origin=[5.0, 5.0])) + "\n")
        code = main(["estimate", "--in", str(path), "--c", "1"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert json.loads(captured.err)["error"] == "ParameterError"

    def test_rejects_ragged_rows(self):
        # The last holds as many numbers as three rows of two.
        for rows in ([[0, 0], [1]], [[0], [1, 0]], [[0, 0], []], [[0], [1, 0, 0], [1, 0]]):
            text = json.dumps(dict(self.RECORD, n=len(rows) - 1, positions=rows))
            with pytest.raises(ParameterError, match="malformed discrete_sample record"):
                read_sample_ndjson(io.StringIO(text))

    def test_empty_positions_fail_the_n_check(self):
        with pytest.raises(ParameterError) as exc:
            read_sample_ndjson(io.StringIO(json.dumps(dict(self.RECORD, n=0, positions=[]))))
        assert str(exc.value) == "record's n = 0 does not match its positions of shape (0,)"

    def test_three_coordinates_exit_2_at_the_shape_check(self, capsys, tmp_path):
        # The reader takes rows of any one width; estimate wants (n+1, 2).
        rows = [[0, 0, 0], [0.5, 0, 0]]
        positions, _ = read_sample_ndjson(io.StringIO(json.dumps(dict(self.RECORD,
                                                                       positions=rows))))
        assert positions.shape == (2, 3)
        path = tmp_path / "wide.ndjson"
        path.write_text(json.dumps(dict(self.RECORD, positions=rows)) + "\n")
        code = main(["estimate", "--in", str(path), "--c", "1"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert json.loads(captured.err)["message"] == (
            "positions must have shape (n+1, 2) with n >= 1, got (2, 3)")


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


def reference_raw_lines(outcome):
    """The per-value formula: finite values through fmt_json, NaN as null plus "failed", an
    inf of either sign as null plus "saturated"."""
    cfg = outcome.config
    for li, rate in enumerate(cfg.lambda_grid):
        for ni, n in enumerate(cfg.n_grid):
            for rep in range(cfg.reps):
                fields = []
                for name in cfg.estimators:
                    v = float(outcome.values[(li, ni, name)][rep])
                    record = ('{"value":null,"failed":true}' if math.isnan(v)
                              else '{"value":null,"saturated":true}' if math.isinf(v)
                              else f'{{"value":{fmt_json(v)}}}')
                    fields.append(f'"{ESTIMATOR_KINDS[name]}":{record}')
                yield f'{{"lambda":{fmt_json(rate)},"n":{n},"rep":{rep},' + ",".join(fields) + "}"


def raw_outcome(columns, lambda_grid=(0.5, 2.0)):
    """A hand-built outcome: cell i of the estimators hat, tilde and dot holds columns[i]."""
    reps = len(columns[0][0])
    cfg = ExperimentConfig(lambda_grid=lambda_grid, n_grid=(20,), horizon=50.0, reps=reps,
                           master_seed=5)
    values = {(li, 0, name): np.asarray(column, dtype=np.float64)
              for li, cell in enumerate(columns) for name, column in zip(cfg.estimators, cell)}
    return ExperimentOutcome(cfg, (), values)


RAW_SPECIALS = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-5,
                1.7976931348623157e308, -5e-324, -1e-5)


class TestRawRecords:
    def test_block_writer_matches_per_value_formula(self):
        # Two cells of _ROWS + 3 replications, so each crosses a block boundary. The first
        # holds every special at rows on both sides of the boundary and at the ends, alone in
        # a row or beside others; the second is finite throughout.
        reps = _ROWS + 3
        rng = np.random.default_rng(29)
        special = rng.normal(scale=3.0, size=(3, reps))
        rows = (0, 1, 2, _ROWS - 2, _ROWS - 1, _ROWS, _ROWS + 1, reps - 1)
        cycle = iter(RAW_SPECIALS * 3)
        for r in rows:
            special[:, r] = [next(cycle), special[1, r], next(cycle)]
        special[:, 3] = (-0.0, -0.0, math.nan)  # negative zeros in a rebuilt row
        finite = rng.exponential(size=(3, reps))
        finite[:, 5] = (-0.0, 0.0, 5e-324)
        outcome = raw_outcome([special, finite])
        lines = list(raw_ndjson_lines(outcome))
        assert len(lines) == 2 * reps
        assert lines == list(reference_raw_lines(outcome))
        # Rows 1, 2, 3, _ROWS + 1 and reps - 1 of the first cell are rebuilt.
        assert sum("null" in line for line in lines) == 5
        assert '"value":-0.0}' in lines[3] and '"value":-0.0}' in lines[reps + 5]

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 3).flatmap(lambda reps: st.lists(
        st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=reps, max_size=reps),
        min_size=3, max_size=3)))
    def test_every_line_parses_and_finite_values_round_trip(self, cell):
        outcome = raw_outcome([cell], lambda_grid=(1.0,))
        for rep, line in enumerate(raw_ndjson_lines(outcome)):
            record = json.loads(line)
            assert (record["lambda"], record["n"], record["rep"]) == (1, 20, rep)
            for name, column in zip(outcome.config.estimators, cell):
                got, want = record[ESTIMATOR_KINDS[name]], column[rep]
                if math.isnan(want):
                    assert got == {"value": None, "failed": True}
                elif math.isinf(want):
                    assert got == {"value": None, "saturated": True}
                else:
                    assert np.float64(got["value"]).tobytes() == np.float64(want).tobytes()


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
