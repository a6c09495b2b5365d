"""Tests for the command-line interface."""

import importlib.metadata
import json
import math
import os
import shutil
import subprocess
import sys
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
from pflight.cli import main
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

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--bogus", "1"])
        assert exc.value.code == 2


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
