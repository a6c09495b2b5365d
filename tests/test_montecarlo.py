"""Tests for the Monte Carlo experiment driver."""

import concurrent.futures
import dataclasses
import json
import math
import multiprocessing
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import pflight
from pflight import montecarlo, simulate
from pflight import (
    EmptyCellError,
    ExperimentConfig,
    ParameterError,
    config_from_json,
    config_to_json,
    resolve_worker_count,
    run_experiment,
    run_replication,
    summarize,
)
from pflight.cli import main
from pflight.io import summary_csv_lines


def small_config(**overrides):
    base = dict(
        lambda_grid=(0.5, 1.0),
        n_grid=(50, 100),
        horizon=50.0,
        reps=40,
        master_seed=314,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestSummarize:
    def test_hand_values(self):
        values = np.array([1.0, 2.0, 3.0, math.inf, math.nan])
        s = summarize(values, rate=2.0, n=10, estimator_kind="pseudo_mle", reps=5)
        assert s.bias == pytest.approx(0.0, abs=1e-15)
        assert s.rmse == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-14)
        assert s.min_value == 1.0
        assert s.max_value == 3.0
        assert s.saturated_count == 2
        assert s.reps == 5

    def test_empty_cell_raises(self):
        with pytest.raises(EmptyCellError):
            summarize(
                np.array([math.inf, math.nan]),
                rate=1.0,
                n=10,
                estimator_kind="indicator",
                reps=2,
            )


class TestConfig:
    def test_json_round_trip(self):
        cfg = small_config(estimators=("hat", "dot"), epsilon=1e-8, speed=2.0)
        again = config_from_json(config_to_json(cfg))
        assert again == cfg

    def test_accepts_kind_names(self):
        cfg = small_config(estimators=("pseudo_mle", "indicator"))
        assert cfg.estimators == ("hat", "dot")

    def test_unknown_key_rejected(self):
        obj = config_to_json(small_config())
        obj["typo_key"] = 1
        with pytest.raises(ParameterError):
            config_from_json(obj)

    def test_missing_key_rejected(self):
        obj = config_to_json(small_config())
        del obj["reps"]
        with pytest.raises(ParameterError):
            config_from_json(obj)

    def test_validation(self):
        with pytest.raises(ParameterError):
            small_config(lambda_grid=())
        with pytest.raises(ParameterError):
            small_config(lambda_grid=(0.5, -1.0))
        with pytest.raises(ParameterError):
            small_config(n_grid=(50, 0))
        with pytest.raises(ParameterError):
            small_config(reps=0)
        with pytest.raises(ParameterError):
            small_config(horizon=-1.0)
        with pytest.raises(ParameterError):
            small_config(estimators=("hat", "nonsense"))
        with pytest.raises(ParameterError):
            small_config(master_seed=-1)
        # T / n underflows to 0 in the cell with the shortest stride.
        with pytest.raises(ParameterError, match="delta must be finite and > 0"):
            small_config(horizon=5e-324, n_grid=(3,))

    def test_n_grid_values_must_be_integers(self):
        # The same rule as reps: no bools, no floats, even integral ones.
        for n_grid in ((True,), (200.0,), (50, 1.5), ()):
            with pytest.raises(ParameterError, match="n_grid"):
                small_config(n_grid=n_grid)
        assert small_config(n_grid=(np.int64(50), 100)).n_grid == (50, 100)

    def test_boolean_reals_rejected(self):
        # JSON true is a Python bool, an int subclass: it must not run as 1.
        for field, value in (("lambda_grid", (True,)), ("horizon", True), ("speed", True)):
            with pytest.raises(ParameterError, match=field):
                small_config(**{field: value})

    def test_duplicate_grid_values_rejected(self):
        # Compared after conversion: 1 and 1.0 are the same rate.
        for field, grid in (("lambda_grid", (1.0, 1.0)), ("lambda_grid", (1, 0.5, 1.0)),
                            ("n_grid", (50, 100, 50)), ("n_grid", (np.int64(50), 50))):
            with pytest.raises(ParameterError, match=f"duplicate values in {field}"):
                small_config(**{field: grid})


class TestWorkerCount:
    def test_explicit_wins(self):
        assert resolve_worker_count(3) == 3

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("PFL_THREADS", "5")
        assert resolve_worker_count() == 5

    def test_zero_means_auto(self, monkeypatch):
        monkeypatch.delenv("PFL_THREADS", raising=False)
        assert resolve_worker_count(0) >= 1

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv("PFL_THREADS", "many")
        with pytest.raises(ParameterError):
            resolve_worker_count()

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            resolve_worker_count(-2)

    @pytest.mark.parametrize("workers", [2.7, 2.0, True, "2"])
    def test_non_integer_rejected(self, workers):
        with pytest.raises(ParameterError, match="worker count"):
            resolve_worker_count(workers)

    def test_blank_env_means_auto(self, monkeypatch):
        monkeypatch.setenv("PFL_THREADS", " ")
        assert resolve_worker_count() >= 1

    def test_auto_counts_usable_cpus(self, monkeypatch):
        # The affinity mask, not the machine: under `taskset -c 0` auto is one worker.
        monkeypatch.delenv("PFL_THREADS", raising=False)
        if hasattr(os, "sched_getaffinity"):
            assert resolve_worker_count() == len(os.sched_getaffinity(0))
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
            assert resolve_worker_count() == 1
            monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolve_worker_count() == 1
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert resolve_worker_count() == 3


class TestRunExperiment:
    def test_worker_count_does_not_change_results(self):
        cfg = small_config()
        one = run_experiment(cfg, workers=1)
        two = run_experiment(cfg, workers=2)
        four = run_experiment(cfg, workers=4)
        assert one.summaries == two.summaries == four.summaries
        for key, vals in one.values.items():
            assert np.array_equal(vals, two.values[key])
            assert np.array_equal(vals, four.values[key])
        csv_one = "\n".join(summary_csv_lines(one))
        csv_two = "\n".join(summary_csv_lines(two))
        csv_four = "\n".join(summary_csv_lines(four))
        assert csv_one == csv_two == csv_four

    def test_replication_agrees_with_value_arrays(self):
        cfg = small_config()
        out = run_experiment(cfg, workers=1)
        for li in (0, 1):
            for ni in (0, 1):
                for rep in (0, 7, 39):
                    res = run_replication(cfg, li, ni, rep)
                    for name in cfg.estimators:
                        est = res.estimates[name]
                        stored = out.values[(li, ni, name)][rep]
                        assert est is not None
                        assert stored == est.value

    def test_summary_grid_complete(self):
        cfg = small_config()
        out = run_experiment(cfg, workers=2)
        keys = {(s.rate, s.n, s.estimator) for s in out.summaries}
        assert len(out.summaries) == 2 * 2 * 3
        assert (0.5, 50, "pseudo_mle") in keys
        assert (1.0, 100, "indicator") in keys

    def test_saturation_accounting(self):
        # rate * delta = 5: nearly every stride turns, so the indicator
        # estimator saturates in most replications.
        cfg = ExperimentConfig(
            lambda_grid=(2.0,),
            n_grid=(20,),
            horizon=50.0,
            reps=60,
            master_seed=7,
            estimators=("dot",),
        )
        out = run_experiment(cfg, workers=1)
        (s,) = out.summaries
        vals = out.values[(0, 0, "dot")]
        good = np.isfinite(vals).sum()
        assert s.saturated_count + good == cfg.reps
        assert s.saturated_count > 30

    def test_rmse_decreases_with_sample_size(self):
        cfg = ExperimentConfig(
            lambda_grid=(1.0,),
            n_grid=(25, 100, 400),
            horizon=100.0,
            reps=200,
            master_seed=99,
            estimators=("hat",),
        )
        out = run_experiment(cfg, workers=2)
        rmse = {s.n: s.rmse for s in out.summaries}
        assert rmse[400] < rmse[100] < rmse[25]

    def test_pool_is_capped_at_tasks_and_cpus(self, monkeypatch):
        # Under the fork start method a pool starts all its processes at the first submit, so
        # PFL_THREADS=64 on one cell of 4 replications must not fork 64: the caller runs share
        # 0 and the pool one worker per other share. A fake pool records its width and the
        # ranges submitted to it and runs each share in-process when its result is asked for.
        widths, submitted, ran = [], [], []

        class FakePool:
            def __init__(self, max_workers):
                widths.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, config, part):
                submitted.append(part[0][2:])
                return SimpleNamespace(result=lambda: fn(config, part))

        run_part = montecarlo._run_part

        def spy(config, part):
            ran.append(part[0][2:])
            return run_part(config, part)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(montecarlo, "_run_part", spy)
        monkeypatch.setenv("PFL_THREADS", "64")
        cfg = small_config(lambda_grid=(0.5,), n_grid=(50,), reps=4)
        want = run_experiment(cfg, workers=1)
        for cpus, pool_widths in ((8, [3]), (3, [2]), (1, [])):
            widths.clear()
            submitted.clear()
            ran.clear()
            monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
            got = run_experiment(cfg)
            assert widths == pool_widths, cpus
            # The caller's share first, then the submitted ones: one contiguous share per
            # process, covering the cell, sizes within one.
            assert ran[1:] == submitted and len(submitted) == sum(widths)
            assert ran[0][0] == 0 and ran[-1][1] == cfg.reps
            assert all(a[1] == b[0] for a, b in zip(ran, ran[1:]))
            sizes = [stop - start for start, stop in ran]
            assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
            assert got.summaries == want.summaries
            for key, vals in want.values.items():
                assert vals.tobytes() == got.values[key].tobytes()

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched kernel reaches the worker only through fork")
    def test_failure_order_and_cleanup(self, monkeypatch, capsys, tmp_path):
        # The caller's share [0, 20) fails at cell 3, the worker's [20, 40) at cell 1. As
        # pool.map over the (cell, share) tasks did, the run raises the cell-1 failure, as it
        # does on one process, and joins the worker before the error goes further.
        run_range, calls = montecarlo._run_range, []

        def failing(config, li, ni, start, stop):
            cell = li * len(config.n_grid) + ni
            calls.append((cell, start, stop))
            for bad_cell, rep in ((3, 0), (1, config.reps - 1)):
                if cell == bad_cell and start <= rep < stop:
                    raise ParameterError(f"cell {bad_cell} fails at replication {rep}")
            return run_range(config, li, ni, start, stop)

        monkeypatch.setattr(montecarlo, "_run_range", failing)
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        cfg = small_config()
        for workers in (1, 2):
            calls.clear()
            with pytest.raises(ParameterError, match="^cell 1 fails at replication 39$"):
                run_experiment(cfg, workers=workers)
            assert multiprocessing.active_children() == []
        # The calls seen here are the caller's: share 0 of cells 0 to 3, where it stopped.
        assert calls == [(cell, 0, 20) for cell in range(4)]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_to_json(cfg)))
        monkeypatch.setenv("PFL_THREADS", "2")
        assert main(["mc", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert json.loads(err) == {"error": "ParameterError", "command": "mc",
                                   "message": "cell 1 fails at replication 39"}
        assert multiprocessing.active_children() == []

    def test_outcome_carries_config(self):
        cfg = small_config()
        out = run_experiment(cfg, workers=1)
        assert out.config == cfg


def _force_rare_rows(monkeypatch, chunk):
    """A cell whose rare rows are common under a smaller chunk rule, and the list that records
    each of _draw's calls."""
    monkeypatch.setattr(simulate, "_chunk", chunk)
    monkeypatch.setattr(montecarlo, "_chunk", chunk)
    redrawn = []
    draw = simulate._draw  # the original: the spy replaces simulate._draw itself

    def spy(rng, rate, horizon):
        redrawn.append(rate)
        return draw(rng, rate, horizon)

    monkeypatch.setattr(simulate, "_draw", spy)
    cfg = ExperimentConfig(lambda_grid=(1.0,), n_grid=(30,), horizon=40.0, reps=17,
                           master_seed=21, speed=1.5)
    monkeypatch.setattr(montecarlo, "_BLOCK_STRIDES", 5 * (30 + chunk(1.0, 40.0)))
    return cfg, redrawn


@pytest.mark.parametrize("chunk", [lambda rate, horizon: 1,
                                   lambda rate, horizon: int(rate * horizon)],
                         ids=["every row", "some rows"])
def test_rare_rows_are_redrawn(monkeypatch, chunk):
    # Under the frozen chunk rule about 1e-9 of the flights outlast their first chunk of
    # exponentials; the kernel takes those rows' n_plus and S from the reference summary,
    # whose draw takes _draw's while branch. A smaller rule, which _draw and the kernel
    # share, makes them common: in every row, or in some rows of each block of 5. Every
    # statistic keeps the reference summary's bits.
    cfg, redrawn = _force_rare_rows(monkeypatch, chunk)
    n_plus, s = montecarlo._run_range(cfg, 0, 0, 2, 17)
    if chunk(1.0, 40.0) == 1:
        assert len(redrawn) == 15
    else:
        assert 0 < len(redrawn) < 15
    assert len(n_plus) == len(s) == 15
    for rep in range(2, 17):
        want = montecarlo._reference_summary(cfg, 0, 0, rep)
        assert n_plus[rep - 2] == want.n_plus, rep
        assert (np.float64(s[rep - 2]).tobytes()
                == np.float64(want.sum_sqrt_u_turned).tobytes()), rep


# At lambda = 2, n = 200, T = 500 every stride turns in about a quarter of the replications,
# so the indicator saturates (+inf) there.
@pytest.mark.parametrize("setup, saturates", [
    (lambda mp: ExperimentConfig(lambda_grid=(2.0,), n_grid=(200,), horizon=500.0, reps=12,
                                 master_seed=3), True),
    (lambda mp: _force_rare_rows(mp, lambda rate, horizon: 1)[0], False),
    (lambda mp: _force_rare_rows(mp, lambda rate, horizon: int(rate * horizon))[0], False),
], ids=["saturating", "rare every row", "rare some rows"])
def test_experiment_values_equal_run_replication(monkeypatch, setup, saturates):
    # run_experiment applies the registry's closed forms to the kernel's n_plus and S: every
    # value keeps run_replication's bits, NaN for a failed estimate and inf for a saturated.
    cfg = setup(monkeypatch)
    values = run_experiment(cfg, workers=1).values
    for rep in range(cfg.reps):
        estimates = run_replication(cfg, 0, 0, rep).estimates
        for name in cfg.estimators:
            est = estimates[name]
            want = np.float64(math.nan if est is None else est.value)
            assert values[(0, 0, name)][rep].tobytes() == want.tobytes(), (name, rep)
    assert np.isinf(values[(0, 0, "dot")]).any() == saturates


def _statistics_or_error(run):
    """n_plus and the bits of S from run(), or its error's type and message."""
    try:
        n_plus, s = run()
    except ValueError as exc:
        return type(exc), str(exc)
    return n_plus, np.float64(s).tobytes()


@pytest.mark.parametrize("edge", [False, True], ids=["epsilon 1e-16", "edge of the bound"])
def test_rows_outside_the_bound_evaluate_every_stride(edge):
    # A row skips its strides without an event only where twice its bound is below epsilon.
    # At epsilon = 1e-16 no row is admitted, and every replication's reference summary
    # raises with the smallest slack in its message. At the edge, epsilon is twice the median
    # bound, so one block holds admitted rows and rows that evaluate every stride. Each
    # replication, alone and in that block, keeps the reference's n_plus and S, or raises
    # the reference's error with its message.
    cfg = ExperimentConfig(lambda_grid=(1.0,), n_grid=(200,), horizon=200.0, reps=12,
                           master_seed=17, epsilon=1e-16)
    bounds = []
    for rep in range(cfg.reps):
        seed = pflight.SeedSpec(cfg.master_seed, pflight.replication_stream(0, 0, rep))
        traj = pflight.simulate_trajectory(pflight.FlightParams(rate=1.0, speed=1.0), 200.0,
                                           seed)
        knots, headings, _ = simulate._flight_arrays(traj)
        bounds += list(simulate._straight_slack_bound(200, 1.0, 200.0, knots,
                                                      simulate._unit_paths(knots, headings)))
    if edge:
        cfg = dataclasses.replace(cfg, epsilon=2.0 * float(np.median(bounds)))
    limit = cfg.epsilon / 2.0
    assert (min(bounds) < limit <= max(bounds)) if edge else (min(bounds) >= limit)

    def reference(rep):
        summary = montecarlo._reference_summary(cfg, 0, 0, rep)
        return summary.n_plus, summary.sum_sqrt_u_turned

    def alone(rep):
        (n_plus,), (s,) = montecarlo._run_range(cfg, 0, 0, rep, rep + 1)
        return n_plus, s

    want = [_statistics_or_error(lambda: reference(rep)) for rep in range(cfg.reps)]
    assert [_statistics_or_error(lambda: alone(rep)) for rep in range(cfg.reps)] == want
    assert all(isinstance(n_plus, int) for n_plus, _ in want) == edge
    if edge:
        n_plus, s = montecarlo._run_range(cfg, 0, 0, 0, cfg.reps)
        assert [(k, np.float64(v).tobytes()) for k, v in zip(n_plus, s)] == want


def test_block_memory_follows_events(monkeypatch):
    # lambda*T = 10,000 events at n = 10: a block is sized by strides plus drawn events, so
    # it holds 3 flights, not the 819 that strides alone allowed. Those took 30 MB for 40
    # replications and 611 MB for a share of 819, growing with lambda*T.
    cfg = ExperimentConfig(lambda_grid=(20.0,), n_grid=(10,), horizon=500.0, reps=40,
                           master_seed=3)
    tracemalloc.start()
    try:
        montecarlo._run_range(cfg, 0, 0, 0, cfg.reps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="pins glibc's heap behaviour through Linux fault counts")
def test_long_record_kernel_keeps_its_heap():
    # At this shape a block holds one replication. _run_range builds the grid and the two
    # draw arrays once for all blocks; each block allocates its event arrays, the per-stride
    # counts and flags (freed before the positions), the indices and times of the stride
    # ends it evaluates, one fresh (2, ends) position array and the slacks. glibc can trim
    # the heap top after a block and fault the pages back in, so the test counts minor
    # faults per replication (Linux, glibc, master seed 1, a fresh interpreter: inside a long
    # pytest run the heap is already grown). Draw arrays per block took 1.8 times the faults.
    # The count also moves with the heap layout of the import: with the same kernel it read
    # 164, 276 and 345 after edits to comments only, so the bound of 650 catches a gross
    # regression, not a small one.
    script = textwrap.dedent("""
        import resource
        from pflight.montecarlo import ExperimentConfig, _run_range
        cfg = ExperimentConfig(lambda_grid=(2.0,), n_grid=(200_000,), horizon=20_000.0,
                               reps=12, master_seed=1)
        _run_range(cfg, 0, 0, 0, 2)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        _run_range(cfg, 0, 0, 2, 12)
        print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
    """)
    package_root = str(Path(pflight.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    per_rep = float(proc.stdout)
    print(f"minor faults per long-record replication: {per_rep:.0f}")
    assert per_rep < 650
