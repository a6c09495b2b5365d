"""The benchmark's own tests: each correctness check can fail, and every workload runs.

Run from the repository root with

    python3 -m pytest perfbench/tests -q

They are not part of the package's test suite (``testpaths`` names only
``tests``).
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import anwork, iowork, mcwork, oracle, run, spans, speed  # noqa: E402

TINY = {"lambda_grid": [0.5, 2.0], "n_grid": [200, 1000], "T": 500.0, "reps": 40}


@pytest.fixture(scope="module")
def mc_run(tmp_path_factory):
    wl = mcwork.McWorkload(TINY, workers=1, replay_per_cell=2, check_variance=True)
    inp = wl.setup(7, tmp_path_factory.mktemp("mc"))
    tr = spans.Tracer()
    rounds = [wl.round(inp, tr, layered=False)]
    values, failed = mcwork.parse_raw(inp.raw_path, inp.config)
    return wl, inp, tr, rounds, values, failed


def test_mc_checks_pass_on_the_program(mc_run):
    wl, inp, tr, rounds, values, failed = mc_run
    assert failed == 0
    assert wl.check(inp, rounds, tr) == []


def test_replay_check_trips_on_scaled_pseudo_mle(mc_run):
    wl, inp, tr, _, values, _ = mc_run
    replayed = wl.replay(inp, tr)
    for got, *_ in replayed.values():
        got["pseudo_mle"] *= 1.01
    bad = mcwork.check_replay(replayed, values, inp.config)
    assert len(bad) == 2 * len(replayed)          # raw mismatch and closed-form mismatch
    assert any("closed form" in b for b in bad)


def test_cell_checks_trip(mc_run):
    _, inp, _, _, values, _ = mc_run
    cfg = inp.config
    biased = dict(values)
    biased[(1, 1, "hat")] = values[(1, 1, "hat")] * 1.05
    assert any("bias" in b for b in mcwork.check_cells(biased, cfg, check_variance=False))
    wide = dict(values)
    hat = values[(0, 1, "hat")]
    wide[(0, 1, "hat")] = hat + 2.0 * (hat - hat.mean())
    assert any("variance" in b for b in mcwork.check_cells(wide, cfg, check_variance=True))
    saturated = dict(values)
    saturated[(0, 1, "dot")] = np.full(cfg.reps, math.inf)
    assert any("saturated" in b for b in mcwork.check_cells(saturated, cfg, check_variance=False))


def test_rebuilt_outputs_trip_on_changed_raw_value(mc_run):
    _, inp, tr, _, values, _ = mc_run
    changed = {k: v.copy() for k, v in values.items()}
    changed[(0, 0, "tilde")][3] = np.nextafter(changed[(0, 0, "tilde")][3], 0.0)
    bad = mcwork.rebuild_outputs(inp, changed, tr)
    assert any("mc_raw.ndjson" in b for b in bad)


def test_bias_theory_matches_closed_form():
    # D = min(Exp(rate), delta) on every stride, so the moments have closed forms.
    rate, delta, n = 2.0, 2.5, 200
    e = math.exp(-rate * delta)
    mx = 1.0 - e
    mxy = (1.0 - e * (1.0 + rate * delta)) / rate
    my2t = (2.0 - e * (2.0 + 2.0 * rate * delta + (rate * delta) ** 2)) / rate ** 2
    my = mxy + delta * e
    vy = my2t + delta * delta * e - my * my
    want = (mx * vy / my ** 3 - (mxy - mx * my) / my ** 2) / n
    assert oracle.hat_bias(rate, delta, n) == pytest.approx(want, rel=1e-10)


def test_stride_information_includes_the_atom():
    rate, delta = 2.0, 1.0
    ac = (-math.expm1(-rate * delta) - (rate * delta) ** 2 * math.exp(-rate * delta)) / rate ** 2
    full = oracle.stride_information(rate, delta)
    assert full == pytest.approx(ac + delta ** 2 * math.exp(-rate * delta), rel=1e-10)


@pytest.fixture(scope="module")
def io_run(tmp_path_factory):
    wl = iowork.IoWorkload((200, 1500))
    inp = wl.setup(5, tmp_path_factory.mktemp("io"))
    tr = spans.Tracer()
    rounds = [wl.round(inp, tr, layered=True)]
    return wl, inp, tr, rounds


def test_io_checks_pass_and_malformed_records_count_as_failed(io_run):
    wl, inp, tr, rounds = io_run
    assert wl.check(inp, rounds, tr) == []
    attempted, failed = wl.counts(rounds, inp)
    assert attempted == 2 * 2 + 2
    assert failed == sum(r["accepted"] for r in rounds)


def test_read_back_check_trips_on_perturbed_position(io_run):
    _, inp, _, _ = io_run
    rec = inp.records[1]
    written = iowork.read_sample(rec.path(inp.workdir, "csv"), "csv")[0].copy()
    assert iowork.check_record(inp, rec, "csv", written) == []
    written[17, 0] = np.nextafter(written[17, 0], math.inf)
    assert any("differ" in b for b in iowork.check_record(inp, rec, "csv", written))


def test_estimate_check_trips_on_changed_output(io_run, tmp_path):
    _, inp, _, _ = io_run
    rec = inp.records[0]
    written = iowork.read_sample(rec.path(inp.workdir, "ndjson"), "ndjson")[0]
    out = inp.workdir / f"estimates{rec.index}.ndjson.csv"
    saved = out.read_text()
    try:
        header, first, *rest = saved.splitlines()
        kind, value, *tail = first.split(",")
        first = ",".join([kind, repr(float(value) * (1.0 + 1e-9)), *tail])
        out.write_text("\n".join([header, first, *rest]) + "\n")
        assert any("closed form" in b for b in iowork.check_record(inp, rec, "ndjson", written))
    finally:
        out.write_text(saved)


@pytest.fixture(scope="module")
def an_run():
    inp = anwork.build(3, anwork.PROBE_REGIMES)
    return inp, anwork.evaluate(inp, spans.Tracer())


def test_analytics_checks_pass(an_run):
    inp, out = an_run
    assert out["failed"] == 0
    assert anwork.check_tables(inp, out) == []


def test_analytics_checks_trip(an_run):
    inp, out = an_run
    bad_density = dict(out, densities=[d * 1.001 for d in out["densities"]])
    assert any("integrates" in b for b in anwork.check_tables(inp, bad_density))
    moments = [list(rows) for rows in out["moments"]]
    moments[0][1] = (moments[0][1][0] * (1.0 + 1e-6), moments[0][1][1])
    assert any("moment_quadrature" in b for b in anwork.check_tables(inp, dict(out, moments=moments)))
    bessel = dict(out["bessel"])
    plain, scaled = bessel[1.0]
    bessel[1.0] = (plain, scaled * (1.0 + 1e-9))
    assert any("bessel_i_scaled" in b for b in anwork.check_tables(inp, dict(out, bessel=bessel)))


def test_end_to_end_times_are_scaled_by_each_round():
    assert speed.scale(speed.REFERENCE_S, speed.REFERENCE_S) == 1.0
    assert speed.scale(1.0, 3.0) == speed.REFERENCE_S / 2.0
    cpus = os.sched_getaffinity(0)
    assert speed.sample() > 0.0 and speed.sample(cpus) > 0.0
    assert os.sched_getaffinity(0) == cpus
    r = {"ops": 10, "wall_s": 2.0, "cpu_s": 4.0, "latency_s": np.array([0.5, 1.0])}
    one = run.end_to_end([dict(r, scale=1.0)])
    half = run.end_to_end([dict(r, scale=0.5)] * 3)
    assert half["ops_per_s"][0] == 2.0 * one["ops_per_s"][0]
    for name in ("cpu_us_per_op", "latency_ms_p50", "latency_ms_p90"):
        assert half[name][0] == 0.5 * one[name][0]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_short_run_completes(workload, capsys):
    assert run.main(["--workload", workload, "--seed", "1", "--seconds", "0.1", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric(capsys):
    assert run.main(["--workload", "analytics", "--seed", "1", "--seconds", "0.1", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench["per_layer"]}
    assert result["correct"] is True


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "analytics",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
