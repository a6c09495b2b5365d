"""Tests for the command-line interface."""

import concurrent.futures
import hashlib
import importlib.metadata
import io
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: pytest itself depends on tomli
    import tomli as tomllib

import pflight
from pflight import (
    ExperimentConfig,
    FlightParams,
    fisher_info,
    moment_closed_form,
    moment_quadrature,
    radial_density_origin,
    run_experiment,
)
from pflight import montecarlo
from pflight.cli import build_parser, main
from pflight.io import fmt_raw, summary_csv_lines

SIM_ARGS = [
    "simulate",
    "--lambda", "1.0",
    "--c", "1.0",
    "--T", "10.0",
    "--n", "20",
    "--seed", "42",
]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_sample_table(self, capsys):
        code, out, err = run_cli(capsys, SIM_ARGS)
        assert code == 0
        assert err == ""
        lines = out.strip().split("\n")
        assert lines[0] == "i,t,x,y"
        assert len(lines) == 22  # header + n + 1 rows
        assert lines[1].split(",")[:2] == ["0", "0"]

    def test_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, SIM_ARGS)
        _, second, _ = run_cli(capsys, SIM_ARGS)
        assert first == second

    def test_stream_changes_output(self, capsys):
        _, first, _ = run_cli(capsys, SIM_ARGS)
        _, second, _ = run_cli(capsys, SIM_ARGS + ["--stream", "1"])
        assert first != second

    def test_trajectory_ndjson(self, capsys):
        code, out, _ = run_cli(
            capsys, SIM_ARGS + ["--emit", "trajectory", "--format", "ndjson"]
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["type"] == "trajectory"
        assert obj["horizon"] == 10.0
        assert len(obj["directions"]) == len(obj["event_times"]) + 1

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "sample.csv"
        code, out, _ = run_cli(capsys, SIM_ARGS + ["--out", str(path)])
        assert code == 0
        assert out == ""
        assert path.read_text().startswith("i,t,x,y\n")

    @pytest.mark.parametrize("emit", ["sample", "trajectory"])
    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_n_checked_for_every_emit(self, capsys, emit, n):
        argv = [*SIM_ARGS[:SIM_ARGS.index("--n")], "--n", n, "--seed", "42", "--emit", emit]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert json.loads(err)["message"] == f"n must be an integer >= 1, got {n}"


class TestEstimate:
    def make_sample_file(self, capsys, tmp_path, fmt="csv"):
        suffix = "csv" if fmt == "csv" else "ndjson"
        path = tmp_path / f"sample.{suffix}"
        code, _, _ = run_cli(
            capsys, SIM_ARGS + ["--format", fmt, "--out", str(path)]
        )
        assert code == 0
        return path

    def test_all_estimators(self, capsys, tmp_path):
        path = self.make_sample_file(capsys, tmp_path)
        code, out, err = run_cli(
            capsys, ["estimate", "--in", str(path), "--c", "1.0"]
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "kind,value,stderr,n,delta,n_plus,saturated"
        kinds = [line.split(",")[0] for line in lines[1:]]
        assert kinds == ["pseudo_mle", "modified_mle", "indicator"]
        value = float(lines[1].split(",")[1])
        assert 0.0 <= value < 10.0

    def test_single_estimator(self, capsys, tmp_path):
        path = self.make_sample_file(capsys, tmp_path)
        code, out, _ = run_cli(
            capsys,
            ["estimate", "--in", str(path), "--c", "1.0", "--estimator", "dot"],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        assert lines[1].startswith("indicator,")

    def test_ndjson_autodetected(self, capsys, tmp_path):
        csv_path = self.make_sample_file(capsys, tmp_path, "csv")
        nd_path = self.make_sample_file(capsys, tmp_path, "ndjson")
        _, out_csv, _ = run_cli(
            capsys, ["estimate", "--in", str(csv_path), "--c", "1.0"]
        )
        _, out_nd, _ = run_cli(
            capsys, ["estimate", "--in", str(nd_path), "--c", "1.0"]
        )
        assert out_csv == out_nd

    @pytest.mark.parametrize("fmt, flags", [("csv", []), ("ndjson", ["--format", "ndjson"])])
    def test_reads_stdin(self, capsys, tmp_path, monkeypatch, fmt, flags):
        path = self.make_sample_file(capsys, tmp_path, fmt)
        _, from_file, _ = run_cli(capsys, ["estimate", "--in", str(path), "--c", "1.0"])
        monkeypatch.setattr(sys, "stdin", io.StringIO(path.read_text()))
        code, from_stdin, err = run_cli(capsys, ["estimate", "--in", "-", "--c", "1.0", *flags])
        assert (code, err) == (0, "")
        assert from_stdin == from_file

    def test_no_turn_prints_positive_zero(self, capsys, tmp_path):
        # A straight record: no stride turned, and both estimators that read
        # n_plus print 0, not -0.
        path = tmp_path / "straight.csv"
        path.write_text("i,t,x,y\n0,0,0,0\n1,1,1,0\n2,2,2,0\n")
        code, out, _ = run_cli(capsys, ["estimate", "--in", str(path), "--c", "1"])
        assert code == 0
        rows = dict(line.split(",", 2)[:2] for line in out.strip().split("\n")[1:])
        assert rows["pseudo_mle"] == "0"
        assert rows["indicator"] == "0"

    def test_boolean_metadata_exits_2(self, capsys, tmp_path):
        # JSON true would read as 1 and pass as delta, n and speed.
        path = tmp_path / "bools.ndjson"
        path.write_text('{"type":"discrete_sample","delta":true,"n":true,"speed":true,'
                        '"positions":[[0,0],[0.5,0]]}\n')
        code, out, err = run_cli(capsys, ["estimate", "--in", str(path), "--c", "1"])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "ParameterError"

    def test_boolean_positions_exit_2(self, capsys, tmp_path):
        # JSON false and true would read as 0.0 and 1.0, strides of one at speed 1.
        path = tmp_path / "bools.ndjson"
        path.write_text('{"type":"discrete_sample","delta":1,"n":2,"speed":1,'
                        '"positions":[[false,false],[true,false],[true,true]]}\n')
        code, out, err = run_cli(capsys, ["estimate", "--in", str(path), "--c", "1"])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "ParameterError"

    @pytest.mark.parametrize("epsilon, expected_code", [(None, 2), ("1e-3", 0)])
    def test_long_stride_limit_is_epsilon(self, capsys, tmp_path, epsilon, expected_code):
        # |step|^2 = 1.0004^2 = 1.0008 (c * delta)^2: beyond the default epsilon,
        # within 1e-3, where that stride counts as not turned.
        path = tmp_path / "long.csv"
        path.write_text("i,t,x,y\n0,0,0,0\n1,1,1.0004,0\n2,2,1.5,0.3\n")
        args = ["estimate", "--in", str(path), "--c", "1"]
        code, out, err = run_cli(capsys, args + (["--epsilon", epsilon] if epsilon else []))
        assert code == expected_code, err
        if expected_code == 2:
            assert json.loads(err)["error"] == "InconsistentSampleError"
        else:
            assert {line.split(",")[5] for line in out.strip().split("\n")[1:]} == {"1"}

    @pytest.mark.parametrize("speed", ["1e-155", "1e-165", "1e-170"])
    def test_underflowing_tolerance_exits_2(self, capsys, tmp_path, speed):
        # At delta = 0.5 the tolerance epsilon * (c * delta)^2 is subnormal at c = 1e-155 and
        # 0 at 1e-165 and 1e-170, where every slack rounded to 0 and pseudo_mle read 0 with
        # n_plus 0. The same flight at c = 1 gives n_plus 7.
        path = tmp_path / "record.csv"

        def estimate(c):
            code, _, err = run_cli(capsys, ["simulate", "--lambda", "1", "--c", c, "--T", "10",
                                            "--n", "20", "--seed", "1", "--out", str(path)])
            assert code == 0, err
            return run_cli(capsys, ["estimate", "--in", str(path), "--c", c])

        code, out, _ = estimate("1")
        assert code == 0
        assert {line.split(",")[5] for line in out.strip().split("\n")[1:]} == {"7"}
        code, out, err = estimate(speed)
        assert (code, out) == (2, "")
        record = json.loads(err)
        assert record["error"] == "ParameterError"
        assert "turn tolerance" in record["message"]


class TestDensity:
    def test_rows_match_library(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "density",
                "--lambda", "1.0",
                "--c", "1.0",
                "--t", "1.0",
                "--r-min", "0.1",
                "--r-max", "0.9",
                "--points", "5",
            ],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "r,ac,singular_weight"
        assert len(lines) == 6
        params = FlightParams(rate=1.0, speed=1.0)
        for line in lines[1:]:
            r, ac, sw = (float(v) for v in line.split(","))
            ref = radial_density_origin(params, 1.0, r)
            assert ac == ref.ac
            assert sw == ref.singular_weight

    def test_origin_start_from_r_zero(self, capsys):
        # At r = 0 the absolutely continuous part is 0; only the atom's weight is left.
        code, out, err = run_cli(
            capsys,
            ["density", "--lambda", "1", "--c", "1", "--t", "1",
             "--r-min", "0", "--r-max", "0.9", "--points", "4"],
        )
        assert code == 0, err
        lines = out.strip().split("\n")
        assert len(lines) == 5
        assert lines[1] == f"0,0,{fmt_raw(math.exp(-1.0))}"
        params = FlightParams(rate=1.0, speed=1.0)
        for line in lines[2:]:
            r = float(line.split(",")[0])
            ref = radial_density_origin(params, 1.0, r)
            assert line == f"{fmt_raw(r)},{fmt_raw(ref.ac)},{fmt_raw(ref.singular_weight)}"

    def test_offset_start_uses_annulus_form(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "density",
                "--lambda", "1.0",
                "--c", "1.0",
                "--t", "1.0",
                "--x0", "0.2",
                "--y0", "0.1",
                "--r-min", "0.6",
                "--r-max", "0.6",
                "--points", "1",
            ],
        )
        assert code == 0
        row = out.strip().split("\n")[1]
        assert float(row.split(",")[1]) == pytest.approx(
            0.6311801789642677, rel=1e-12
        )


    @pytest.mark.parametrize("x0, r_min, r_max, flag", [
        ("0.3", "0.5", "inf", "--r-max"),   # (inf - 0.5) * 0 would be a NaN radius
        ("0.3", "0.5", "nan", "--r-max"),
        ("0", "-0.5", "0.5", "--r-min"),
    ])
    def test_bounds_must_be_finite_and_nonnegative(self, capsys, x0, r_min, r_max, flag):
        code, out, err = run_cli(
            capsys,
            ["density", "--lambda", "1", "--c", "1", "--t", "1", "--x0", x0,
             "--r-min", r_min, "--r-max", r_max, "--points", "1"],
        )
        assert (code, out) == (2, "")
        record = json.loads(err)
        assert record["error"] == "ParameterError"
        assert record["message"].startswith(f"{flag} must be finite and >= 0")


class TestMomentsAndFisher:
    def test_moments_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["moments", "--lambda", "1.0", "--c", "1.0", "--t", "1.0",
             "--p-max", "3"],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "p,value_closed_form,value_quadrature"
        assert len(lines) == 4
        params = FlightParams(rate=1.0, speed=1.0)
        for p, line in zip((1, 2, 3), lines[1:]):
            cells = line.split(",")
            assert int(cells[0]) == p
            assert float(cells[1]) == moment_closed_form(params, 1.0, p)
            assert float(cells[2]) == moment_quadrature(params, 1.0, p)

    def test_fisher_row(self, capsys):
        code, out, _ = run_cli(
            capsys, ["fisher", "--lambda", "2.0", "--delta", "0.5", "--n", "100"]
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "lambda,delta,n,per_obs,idealized,total,full_per_obs"
        cells = lines[1].split(",")
        assert len(cells) == 7
        info = fisher_info(2.0, 0.5, 100)
        assert float(cells[3]) == info.per_observation
        assert float(cells[4]) == info.idealized_per_observation
        assert float(cells[5]) == info.total
        assert float(cells[6]) == info.full_per_observation


class TestMonteCarloCommand:
    CONFIG = {
        "lambda_grid": [1.0],
        "n_grid": [20],
        "T": 50.0,
        "reps": 30,
        "master_seed": 5,
    }

    def write_config(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(self.CONFIG))
        return path

    def test_summary_matches_library(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PFL_THREADS", "1")
        cfg_path = self.write_config(tmp_path)
        code, out, _ = run_cli(capsys, ["mc", "--config", str(cfg_path)])
        assert code == 0
        cfg = ExperimentConfig(
            lambda_grid=(1.0,), n_grid=(20,), horizon=50.0, reps=30,
            master_seed=5,
        )
        expected = "\n".join(summary_csv_lines(run_experiment(cfg, workers=1)))
        assert out.strip() == expected

    def test_worker_env_does_not_change_output(self, capsys, tmp_path,
                                               monkeypatch):
        cfg_path = self.write_config(tmp_path)
        monkeypatch.setenv("PFL_THREADS", "1")
        _, out_one, _ = run_cli(capsys, ["mc", "--config", str(cfg_path)])
        monkeypatch.setenv("PFL_THREADS", "4")
        _, out_four, _ = run_cli(capsys, ["mc", "--config", str(cfg_path)])
        assert out_one == out_four

    def test_raw_records(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PFL_THREADS", "2")
        cfg_path = self.write_config(tmp_path)
        raw_path = tmp_path / "raw.ndjson"
        code, _, _ = run_cli(
            capsys,
            ["mc", "--config", str(cfg_path), "--out", str(tmp_path / "s.csv"),
             "--raw", str(raw_path)],
        )
        assert code == 0
        lines = raw_path.read_text().strip().split("\n")
        assert len(lines) == 30
        first = json.loads(lines[0])
        assert first["rep"] == 0
        assert first["lambda"] == 1.0

    def test_invalid_config_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, out, err = run_cli(capsys, ["mc", "--config", str(path)])
        assert code == 2
        assert json.loads(err)["error"] == "ParameterError"

    def test_duplicate_grid_values_exit_2(self, capsys, tmp_path):
        # Two cells with the same key would write colliding summary rows.
        path = tmp_path / "config.json"
        for field, grid in (("lambda_grid", [1.0, 1.0]), ("n_grid", [20, 20])):
            path.write_text(json.dumps(dict(self.CONFIG, **{field: grid})))
            code, out, err = run_cli(capsys, ["mc", "--config", str(path)])
            assert code == 2, out
            record = json.loads(err)
            assert record["error"] == "ParameterError"
            assert f"duplicate values in {field}" in record["message"]


    def test_boolean_reals_exit_2(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"lambda_grid": [True], "n_grid": [10], "T": True,
                                    "c": True, "reps": 3, "master_seed": 1}))
        code, out, err = run_cli(capsys, ["mc", "--config", str(path)])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "ParameterError"

    def test_huge_expected_event_count_exits_2(self, capsys, tmp_path, monkeypatch):
        # lambda*T = 7e16 for the largest lambda: rejected with the config, before any
        # worker starts or any array is asked for.
        monkeypatch.setenv("PFL_THREADS", "2")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(self.CONFIG, lambda_grid=[0.001, 0.7], T=1e17)))
        code, out, err = run_cli(capsys, ["mc", "--config", str(path)])
        assert (code, out) == (2, "")
        record = json.loads(err)
        assert record["error"] == "ParameterError"
        assert "lambda*T = 7e+16" in record["message"]

    def test_unsquarable_stride_exits_2_before_the_pool(self, capsys, tmp_path, monkeypatch):
        # c * T / n = 1e160 * 50 / 20 cannot be squared: rejected with the config, so no pool
        # is built even where two processes would run.
        built = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            lambda *args, **kwargs: built.append(kwargs))
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        monkeypatch.setenv("PFL_THREADS", "2")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(self.CONFIG, c=1e160)))
        code, out, err = run_cli(capsys, ["mc", "--config", str(path)])
        assert (code, out, built) == (2, "", [])
        record = json.loads(err)
        assert record["error"] == "ParameterError"
        assert "below 1e154" in record["message"]

    def test_zero_stride_exits_2(self, capsys, tmp_path):
        # T / n = 5e-324 / 3 underflows to 0: rejected with the config, not left to empty
        # every cell.
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(self.CONFIG, T=5e-324, n_grid=[3])))
        code, out, err = run_cli(capsys, ["mc", "--config", str(path)])
        assert (code, out) == (2, "")
        record = json.loads(err)
        assert record["error"] == "ParameterError"
        assert record["message"] == "delta must be finite and > 0, got 0.0"

    def test_underflowing_tolerance_exits_2(self, capsys, tmp_path):
        # At c = 1e-170 and delta = 2.5, epsilon * (c * delta)^2 rounds to 0, and every cell
        # read pseudo_mle 0 with bias -1: rejected with the config.
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(self.CONFIG, c=1e-170)))
        code, out, err = run_cli(capsys, ["mc", "--config", str(path)])
        assert (code, out) == (2, "")
        record = json.loads(err)
        assert record["error"] == "ParameterError"
        assert "turn tolerance" in record["message"]

    def test_huge_n_exits_2(self, capsys, tmp_path, monkeypatch):
        # n = 1e12 would ask for a 7.28 TiB positions buffer: rejected with the config.
        monkeypatch.setenv("PFL_THREADS", "2")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(self.CONFIG, n_grid=[20, 10**12])))
        code, out, err = run_cli(capsys, ["mc", "--config", str(path)])
        assert (code, out) == (2, "")
        record = json.loads(err)
        assert record["error"] == "ParameterError"
        assert record["message"] == "n_grid value = 1000000000000 exceeds the limit of 1e+09"


class TestErrorHandling:
    def test_bad_parameter_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["simulate", "--lambda", "-1.0", "--c", "1.0", "--T", "10.0",
             "--n", "20", "--seed", "1"],
        )
        assert code == 2
        record = json.loads(err)
        assert record["error"] == "ParameterError"
        assert "rate" in record["message"]

    def test_inconsistent_positions_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("i,t,x,y\n0,0,0,0\n1,1,5.0,0\n")
        code, _, err = run_cli(
            capsys, ["estimate", "--in", str(path), "--c", "1.0"]
        )
        assert code == 2
        assert json.loads(err)["error"] == "InconsistentSampleError"
        # A NaN coordinate or time must not pass as a "not turned" stride.
        for text in (
            "i,t,x,y\n0,0,0,0\n1,1,0.5,0\n2,2,nan,0\n3,3,0.5,0.5\n",
            "i,t,x,y\n0,0,0,0\n1,1,0.5,0\n2,nan,0.5,0.5\n3,3,0.5,1\n",
        ):
            path.write_text(text)
            code, out, err = run_cli(
                capsys, ["estimate", "--in", str(path), "--c", "1.0"]
            )
            assert code == 2, out
            assert "non-finite" in json.loads(err)["message"]

    @pytest.mark.parametrize("name, text, slack", [
        ("huge.csv", "i,t,x,y\n0,0,0,0\n1,1,1e200,0\n2,2,1e200,0\n", "-inf"),
        ("inf.csv", "i,t,x,y\n0,0,0,0\n1,1,inf,0\n2,2,inf,0\n", "nan"),
        ("huge.ndjson", '{"type":"discrete_sample","delta":1,"n":2,"speed":1,'
                        '"positions":[[0,0],[1e300,1e300],[0,0]]}\n', "-inf"),
    ])
    def test_overflowing_record_prints_one_error_line(self, capsys, tmp_path, name, text,
                                                      slack):
        # An overflowing square (1e200, 1e300) or inf - inf gives a -inf or NaN slack: the
        # record exits 2 with one JSON line on stderr, and numpy warns of neither.
        path = tmp_path / name
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, ["estimate", "--in", str(path), "--c", "1"])
        assert (code, out) == (2, "")
        (line,) = err.splitlines()
        assert json.loads(line) == {
            "error": "InconsistentSampleError", "command": "estimate",
            "message": f"slack {slack} is non-finite or below -epsilon*(speed*delta)^2 = "
                       "-1.0000000000000001e-09; an increment is non-finite or longer than "
                       "one stride"}

    def test_ndjson_metadata_mismatch_exits_2(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, SIM_ARGS + ["--format", "ndjson"])
        assert code == 0
        record = json.loads(out)
        path = tmp_path / "sample.ndjson"
        for field, value in (("speed", 2.0), ("n", 27)):
            path.write_text(json.dumps(dict(record, **{field: value})) + "\n")
            code, out, err = run_cli(
                capsys, ["estimate", "--in", str(path), "--c", "1.0"]
            )
            assert code == 2, out
            assert json.loads(err)["error"] == "ParameterError"

    def test_concatenated_ndjson_records_exit_2(self, capsys, tmp_path):
        records = []
        for seed in ("1", "2"):
            args = SIM_ARGS[:-1] + [seed, "--format", "ndjson"]
            code, out, _ = run_cli(capsys, args)
            assert code == 0
            records.append(out)
        path = tmp_path / "one.ndjson"
        path.write_text(records[0])
        code, _, _ = run_cli(capsys, ["estimate", "--in", str(path), "--c", "1.0"])
        assert code == 0
        path = tmp_path / "two.ndjson"
        path.write_text(records[0] + records[1])
        code, out, err = run_cli(capsys, ["estimate", "--in", str(path), "--c", "1.0"])
        assert code == 2, out
        record = json.loads(err)
        assert record["error"] == "ParameterError"
        assert "expected one discrete_sample record" in record["message"]

    def test_unsquarable_stride_exits_2(self, capsys, tmp_path):
        # (c * delta)^2 overflows a double: a clean error, not a traceback.
        args = ["simulate", "--lambda", "1.0", "--c", "1e160", "--T", "10.0",
                "--n", "20", "--seed", "1"]
        code, _, err = run_cli(capsys, args)
        assert code == 2
        assert "below 1e154" in json.loads(err)["message"]
        path = tmp_path / "s.csv"
        path.write_text("i,t,x,y\n0,0,0,0\n1,1,1e159,0\n")
        code, _, err = run_cli(capsys, ["estimate", "--in", str(path), "--c", "1e160"])
        assert code == 2
        assert "below 1e154" in json.loads(err)["message"]

    def test_huge_expected_event_count_exits_2(self, capsys):
        # Both emits draw the flight; lambda*T = 7e16 fails before the draw asks for memory.
        args = ["simulate", "--lambda", "0.7", "--c", "1.0", "--T", "1e17", "--n", "20",
                "--seed", "1"]
        for emit in ("sample", "trajectory"):
            code, out, err = run_cli(capsys, args + ["--emit", emit])
            assert (code, out) == (2, "")
            record = json.loads(err)
            assert record["error"] == "ParameterError"
            assert "lambda*T = 7e+16" in record["message"]

    def test_huge_n_exits_2(self, capsys):
        # n = 1e12 would ask for a 7.28 TiB grid; both emits reject it before the draw.
        args = ["simulate", "--lambda", "0.7", "--c", "1.0", "--T", "10", "--n", str(10**12),
                "--seed", "1"]
        for emit in ("sample", "trajectory"):
            code, out, err = run_cli(capsys, args + ["--emit", emit])
            assert (code, out) == (2, "")
            record = json.loads(err)
            assert record["error"] == "ParameterError"
            assert record["message"] == "n = 1000000000000 exceeds the limit of 1e+09"

    def test_memory_error_exits_2(self, capsys, monkeypatch):
        # An allocation the record limit allows but the machine cannot serve.
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.45 GiB")

        monkeypatch.setattr("pflight.cli.sample_at_grid", refuse)
        code, out, err = run_cli(capsys, SIM_ARGS)
        assert (code, out) == (2, "")
        record = json.loads(err)
        assert record == {"error": "MemoryError", "message": "Unable to allocate 7.45 GiB",
                          "command": "simulate"}

    def test_degenerate_estimate_exits_1(self, capsys, tmp_path):
        # A walker reported at the same point every time: every stride is
        # a full-shortfall turn and the pseudo estimator's denominator is
        # exactly zero.
        path = tmp_path / "frozen.csv"
        rows = ["i,t,x,y"] + [f"{i},{i},0,0" for i in range(5)]
        path.write_text("\n".join(rows) + "\n")
        code, _, err = run_cli(
            capsys,
            ["estimate", "--in", str(path), "--c", "1.0", "--estimator", "hat"],
        )
        assert code == 1
        assert json.loads(err)["error"] == "NumericalError"

    def test_missing_input_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            ["estimate", "--in", str(tmp_path / "nope.csv"), "--c", "1.0"],
        )
        assert code == 2
        assert json.loads(err)["error"] == "FileNotFoundError"

    def test_exit_2_record_names_the_command(self, capsys):
        code, _, err = run_cli(capsys, ["fisher", "--lambda", "1.0", "--delta", "0",
                                        "--n", "5"])
        assert code == 2
        record = json.loads(err)
        assert set(record) == {"error", "message", "command"}
        assert (record["error"], record["command"]) == ("ParameterError", "fisher")
        assert "delta" in record["message"]

    def test_exit_1_record_names_the_command(self, capsys, tmp_path):
        path = tmp_path / "frozen.csv"
        path.write_text("i,t,x,y\n" + "".join(f"{i},{i},0,0\n" for i in range(5)))
        code, _, err = run_cli(capsys, ["estimate", "--in", str(path), "--c", "1.0",
                                        "--estimator", "hat"])
        assert code == 1
        record = json.loads(err)
        assert set(record) == {"error", "message", "command"}
        assert (record["error"], record["command"]) == ("NumericalError", "estimate")

    @pytest.mark.parametrize("argv, error", [
        (["moments", "--lambda", "1", "--c", "1", "--t", "1", "--p-max", "400"],
         "OverflowError"),
        (["fisher", "--lambda", "1e-300", "--delta", "1e-300", "--n", "5"],
         "ZeroDivisionError"),
    ])
    def test_arithmetic_failure_exits_1(self, capsys, argv, error):
        # Any ArithmeticError, not only NumericalError, is a numerical failure.
        code, _, err = run_cli(capsys, argv)
        assert code == 1
        record = json.loads(err)
        assert (record["error"], record["command"]) == (error, argv[0])

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--bogus", "1"])
        assert exc.value.code == 2


class TestReusedParser:
    """main parses with one parser per process; no call may leave anything for the next."""

    def test_estimator_choice_does_not_stick(self, capsys, tmp_path):
        path = TestEstimate().make_sample_file(capsys, tmp_path)
        argv = ["estimate", "--in", str(path), "--c", "1.0"]
        _, one, _ = run_cli(capsys, argv + ["--estimator", "hat"])
        assert [line.split(",")[0] for line in one.splitlines()[1:]] == ["pseudo_mle"]
        _, every, _ = run_cli(capsys, argv)
        assert [line.split(",")[0] for line in every.splitlines()[1:]] == [
            "pseudo_mle", "modified_mle", "indicator"]

    def test_start_does_not_stick(self, capsys):
        _, moved, _ = run_cli(capsys, SIM_ARGS + ["--x0", "5"])
        assert moved.splitlines()[1] == "0,0,5,0"
        _, plain, _ = run_cli(capsys, SIM_ARGS)
        assert plain.splitlines()[1] == "0,0,0,0"

    def test_parse_failure_does_not_stick(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--lambda", "one"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, err = run_cli(capsys, SIM_ARGS)
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 22

    def test_help_is_unchanged_by_other_calls(self, capsys):
        def help_text(argv):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            return capsys.readouterr().out

        before = [help_text(["--help"]), help_text(["estimate", "--help"])]
        run_cli(capsys, SIM_ARGS + ["--x0", "5", "--format", "ndjson"])
        with pytest.raises(SystemExit):
            main(["estimate", "--bogus"])
        capsys.readouterr()
        assert [help_text(["--help"]), help_text(["estimate", "--help"])] == before
        assert before[0] == build_parser().format_help()

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()


class TestGoldenOutput:
    """sha256 of the bytes each subcommand writes, so that a refactor keeps every one."""

    START = SIM_ARGS + ["--x0", "3.5", "--y0", "-1.25"]
    # A record of 10,001 rows: more than two blocks of the position writers and reader.
    LONG_SAMPLE = ["simulate", "--lambda", "1.0", "--c", "1.0", "--T", "2500.0", "--n", "10000",
                   "--seed", "42", "--x0", "3.5", "--y0", "-1.25", "--emit", "sample"]
    DENSITY = ["density", "--lambda", "1.0", "--c", "1.0", "--t", "1.0",
               "--r-min", "0", "--r-max", "0.9", "--points", "7"]
    MC_CONFIG = {"lambda_grid": [0.5, 2.0], "n_grid": [20, 50], "T": 50.0, "reps": 20,
                 "master_seed": 11}
    # Long records: every block of the Monte Carlo kernel holds one replication.
    MC_LONG_CONFIG = {"lambda_grid": [0.5, 2.0], "n_grid": [20_000], "T": 10_000.0, "reps": 4,
                      "master_seed": 11}
    # Pinned before the shared flag helpers and the single exit-code rule; a change
    # to any of these bytes is an output change, not a refactor.
    DIGESTS = {
        "simulate sample csv": "bbc585b857d1354be3bdd3e75b5029c66447a2d82711a4005b8f4dacc581f4f4",
        "simulate sample ndjson": "d36a51df5497124ae023f3b2447493fabf17144d6de0f9053a6862992bea8d50",
        "simulate trajectory csv": "e4f65841bf6af7a8fbc70d70b2a2a0b83ad473b20c2c0b47e9c2642f17cac20b",
        "simulate trajectory ndjson": "316e46ee5103d1cd2e880670d866eb6ee2f3ee90a04cf440f28baea700369b68",
        "simulate long sample csv": "5e8e7a54a21037f7cfcefb0247fb2acb81df8c99dcc809e9d2ef2589fe319bac",
        "simulate long sample ndjson": "137f58827ad1373a11d6c3de114acc2b0b1b043d08107923556336433d2cb23a",
        "estimate csv": "3d8da986f17ecc8b78937c317f93a04aaf588ad27e7d15e03b4a292eca597c21",
        "estimate ndjson": "3d8da986f17ecc8b78937c317f93a04aaf588ad27e7d15e03b4a292eca597c21",
        "estimate epsilon": "3d8da986f17ecc8b78937c317f93a04aaf588ad27e7d15e03b4a292eca597c21",
        "density origin": "321d8498de5fcf6ae7a6d916155d6f118f5a7eae2e259c81706d8881f356d5f5",
        "density offset": "3c6673ab9c68d3f3d4417ebcbbc8accf6b2ceccacdd95c4885fb6ce58133d85f",
        "moments": "03c2a708f2a10644eda54629bf51222a6b72b7d0db72c24075682df4e7475d40",
        "fisher": "3377cca248e88fe9b99ffc162ea95476676fa586f0d114fccf240dbc9b235b8c",
        "mc summary": "414418bf63e48b242b06a69da253a1b9795c146c0bddeeaf3c3ce6a6b46b9116",
        "mc raw": "59656f949c5aec53d1070f6147a15bdda1e1acf9c19a7d12409ec1c34dc049eb",
        "mc long summary": "086daf092756cdf13c5e6a5c1325edfa05799d81edc939b66333dec0e65c5785",
        "mc long raw": "c654d42e618cc43d06dacb071865bb3d5a1102f2bc8878cbd004f4193952ecd0",
    }

    def outputs(self, capsys, tmp_path):
        out = {}

        def run(name, argv):
            code, text, err = run_cli(capsys, argv)
            assert code == 0, err
            out[name] = text

        for emit in ("sample", "trajectory"):
            for fmt in ("csv", "ndjson"):
                run(f"simulate {emit} {fmt}", self.START + ["--emit", emit, "--format", fmt])
        for fmt in ("csv", "ndjson"):
            run(f"simulate long sample {fmt}", self.LONG_SAMPLE + ["--format", fmt])
        for fmt in ("csv", "ndjson"):
            path = tmp_path / f"sample.{fmt}"
            path.write_text(out[f"simulate sample {fmt}"])
            run(f"estimate {fmt}", ["estimate", "--in", str(path), "--c", "1.0",
                                    "--estimator", "all"])
        run("estimate epsilon", ["estimate", "--in", str(tmp_path / "sample.csv"),
                                 "--c", "1.0", "--epsilon", "1e-4"])
        run("density origin", self.DENSITY)
        run("density offset", self.DENSITY + ["--x0", "0.2", "--y0", "-0.1"])
        run("moments", ["moments", "--lambda", "1.0", "--c", "1.0", "--t", "1.0",
                        "--p-max", "3"])
        run("fisher", ["fisher", "--lambda", "2.0", "--delta", "0.5", "--n", "100"])
        for name, obj in (("mc", self.MC_CONFIG), ("mc long", self.MC_LONG_CONFIG)):
            config, raw = tmp_path / "config.json", tmp_path / "raw.ndjson"
            config.write_text(json.dumps(obj))
            run(f"{name} summary", ["mc", "--config", str(config), "--raw", str(raw)])
            out[f"{name} raw"] = raw.read_text()
        return out

    def test_digests(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PFL_THREADS", "1")
        digests = {name: hashlib.sha256(text.encode()).hexdigest()
                   for name, text in self.outputs(capsys, tmp_path).items()}
        assert digests == self.DIGESTS


class TestInstalledScript:
    FISHER_ARGS = ["fisher", "--lambda", "1.0", "--delta", "1.0", "--n", "5"]

    def check_fisher_output(self, proc):
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().split("\n")
        assert lines[0] == "lambda,delta,n,per_obs,idealized,total,full_per_obs"
        info = fisher_info(1.0, 1.0, 5)
        cells = lines[1].split(",")
        assert len(cells) == 7
        assert float(cells[3]) == info.per_observation
        assert float(cells[6]) == info.full_per_observation

    def test_console_script_runs(self):
        try:
            dist = importlib.metadata.distribution("pflight")
        except importlib.metadata.PackageNotFoundError:
            pytest.skip("the pflight distribution is not installed, so no "
                        "console script exists")
        scripts = {ep.name: ep.value for ep in dist.entry_points
                   if ep.group == "console_scripts"}
        assert scripts.get("pflight") == "pflight.cli:main"
        exe = shutil.which("pflight")
        assert exe is not None, "pflight is installed but its script is not on PATH"
        proc = subprocess.run(
            [exe, *self.FISHER_ARGS],
            capture_output=True,
            text=True,
            timeout=60,
        )
        self.check_fisher_output(proc)

    def test_declared_entry_point_runs_out_of_process(self, tmp_path):
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts == {"pflight": "pflight.cli:main"}
        # Import the package from wherever this process found it; the child
        # runs elsewhere, so a relative path on PYTHONPATH would not do.
        package_root = str(Path(pflight.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [package_root, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "pflight.cli", *self.FISHER_ARGS],
            capture_output=True,
            text=True,
            timeout=60,
            cwd=tmp_path,
            env=env,
        )
        self.check_fisher_output(proc)
