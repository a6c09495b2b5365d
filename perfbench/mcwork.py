"""Monte Carlo workloads: ``pflight mc`` through ``cli.main``.

One round is one ``pflight mc`` call on a fixed config; every round of a
run uses the same config, so every round must write the same bytes. The
layer calls replay a few replications of every cell through the public
functions ``pflight mc`` uses, rebuild the summary and raw files
through ``pflight.io`` from the raw values, and aggregate each cell with
``montecarlo.summarize``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from pflight import cli
from pflight import io as pfio
from pflight.estimators import indicator_estimate, modified_mle, pseudo_mle, summarize_increments
from pflight.montecarlo import (ESTIMATOR_KINDS, ExperimentOutcome, config_from_json,
                                summarize)
from pflight.seeding import SeedSpec, replication_stream
from pflight.simulate import FlightParams, sample_at_grid, simulate_trajectory

from . import oracle

ESTIMATORS = (("hat", pseudo_mle), ("tilde", modified_mle), ("dot", indicator_estimate))

# The paper's acceptance grid at T = 500, with 200 instead of 10,000
# replications per cell so a round lasts about a second on two cores.
GRID = {"lambda_grid": [0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0],
        "n_grid": [200, 300, 500, 1000], "T": 500.0, "reps": 200}
# Both asymptotic schemes at T = 20,000: delta = 1 (n = 20,000) and delta = 0.1.
LONG = {"lambda_grid": [0.5, 2.0], "n_grid": [20000, 200000], "T": 20000.0, "reps": 20}
# A small grid for traced runs of workloads that do not reach these layers.
PROBE = {"lambda_grid": [0.5, 2.0], "n_grid": [200, 1000], "T": 500.0, "reps": 40}


def cpu_seconds(who: int = resource.RUSAGE_SELF) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


@dataclass
class McInputs:
    config_path: Path
    summary_path: Path
    raw_path: Path
    rebuilt_path: Path
    config: object            # pflight.montecarlo.ExperimentConfig
    replay: dict              # (lambda_index, n_index) -> replication indices


class McWorkload:
    def __init__(self, shape: dict, workers: int, replay_per_cell: int,
                 check_variance: bool, array_work: bool = False) -> None:
        self.shape = shape
        self.workers = workers
        # Rounds made of per-element array work are calibrated with array work too.
        self.array_work = array_work
        self.replay_per_cell = replay_per_cell
        # The z-score variance is asymptotic: checked on long records only.
        self.check_variance = check_variance

    def setup(self, seed: int, workdir: Path) -> McInputs:
        rng = random.Random(seed)
        obj = dict(self.shape, master_seed=rng.getrandbits(63),
                   estimators=[name for name, _ in ESTIMATORS])
        config_path = workdir / "mc_config.json"
        config_path.write_text(json.dumps(obj), encoding="utf-8")
        config = config_from_json(obj)
        replay = {(li, ni): sorted(rng.sample(range(config.reps), self.replay_per_cell))
                  for li in range(len(config.lambda_grid)) for ni in range(len(config.n_grid))}
        return McInputs(config_path, workdir / "mc_summary.csv", workdir / "mc_raw.ndjson",
                        workdir / "mc_rebuilt.txt", config, replay)

    def round(self, inp: McInputs, tr, layered: bool) -> dict:
        os.environ["PFL_THREADS"] = str(self.workers)
        argv = ["mc", "--config", str(inp.config_path), "--out", str(inp.summary_path),
                "--raw", str(inp.raw_path)]
        with tr.span("cli.main", cmd="mc") as attrs:
            self_cpu0, child_cpu0 = cpu_seconds(resource.RUSAGE_SELF), cpu_seconds(resource.RUSAGE_CHILDREN)
            t0 = time.perf_counter()
            rc = cli.main(argv)
            wall = time.perf_counter() - t0
            self_cpu = cpu_seconds(resource.RUSAGE_SELF) - self_cpu0
            child_cpu = cpu_seconds(resource.RUSAGE_CHILDREN) - child_cpu0
            reps = inp.config.reps * len(inp.replay)
            attrs.update(reps=reps, workers=self.workers, wall_s=wall,
                         self_cpu_s=self_cpu, child_cpu_s=child_cpu)
        digest = hashlib.sha256(inp.summary_path.read_bytes() + inp.raw_path.read_bytes()).hexdigest()
        if layered:
            self.replay(inp, tr)
            values, _ = parse_raw(inp.raw_path, inp.config)
            rebuild_outputs(inp, values, tr)
        return {"rc": rc, "ops": reps, "wall_s": wall, "cpu_s": self_cpu + child_cpu,
                "latency_s": np.array([wall]), "digest": digest}

    def replay(self, inp: McInputs, tr) -> dict:
        """Replay the sampled replications; per replication: values, n_plus, own (n_plus, S)."""
        cfg = inp.config
        out = {}
        for (li, ni), reps in inp.replay.items():
            params = FlightParams(rate=cfg.lambda_grid[li], speed=cfg.speed)
            n = cfg.n_grid[ni]
            # pflight mc runs a cell's replications back to back, so its arrays
            # of one size are warm; one untraced replication warms them here.
            with tr.paused():
                summarize_increments(sample_at_grid(simulate_trajectory(
                    params, cfg.horizon, SeedSpec(cfg.master_seed,
                                                  replication_stream(li, ni, reps[0]))), n))
            for rep in reps:
                with tr.span("montecarlo.replication") as attrs:
                    cpu0 = time.process_time_ns()
                    stream = tr.call("seeding.stream", replication_stream, li, ni, rep)
                    spec = SeedSpec(cfg.master_seed, stream)
                    tr.call("seeding.generator", spec.generator)
                    traj = tr.call("simulate.trajectory", simulate_trajectory,
                                   params, cfg.horizon, spec)
                    tr.annotate(count=traj.event_count)
                    sample = tr.call("simulate.sample", sample_at_grid, traj, n, count=n)
                    summary = tr.call("estimators.summarize", summarize_increments,
                                      sample, cfg.epsilon, count=n)
                    values = {}
                    for name, func in ESTIMATORS:
                        est = tr.call("estimators.estimate", func, summary)
                        values[ESTIMATOR_KINDS[name]] = est.value
                    attrs["cpu_ns"] = time.process_time_ns() - cpu0
                own = oracle.increment_statistics(sample.positions, sample.delta, cfg.speed,
                                                  cfg.epsilon)
                out[(li, ni, rep)] = (values, summary.n_plus, own, sample.delta)
        return out

    # -- results ---------------------------------------------------------

    def counts(self, rounds: list[dict], inp: McInputs) -> tuple[int, int]:
        _, failed = parse_raw(inp.raw_path, inp.config)
        return (sum(r["ops"] for r in rounds), failed * len(rounds))

    def check(self, inp: McInputs, rounds: list[dict], tr) -> list[str]:
        bad = [f"pflight mc exited {r['rc']}" for r in rounds if r["rc"] != 0]
        if bad:
            return bad[:1]
        if len({r["digest"] for r in rounds}) != 1:
            bad.append("rounds with the same config wrote different summary or raw bytes")
        values, _ = parse_raw(inp.raw_path, inp.config)
        bad += rebuild_outputs(inp, values, tr)
        bad += check_replay(self.replay(inp, tr), values, inp.config)
        bad += check_cells(values, inp.config, self.check_variance)
        return bad


def parse_raw(path: Path, config) -> tuple[dict, int]:
    """Raw NDJSON -> {(li, ni, name): values} (NaN failed, inf saturated), failed replications."""
    li_of = {rate: i for i, rate in enumerate(config.lambda_grid)}
    ni_of = {n: i for i, n in enumerate(config.n_grid)}
    values = {(li, ni, name): np.empty(config.reps) for li in li_of.values()
              for ni in ni_of.values() for name in config.estimators}
    failed = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            li, ni, rep = li_of[rec["lambda"]], ni_of[rec["n"]], rec["rep"]
            any_failed = False
            for name in config.estimators:
                field = rec[ESTIMATOR_KINDS[name]]
                if field.get("failed"):
                    v, any_failed = math.nan, True
                elif field.get("saturated"):
                    v = math.inf
                else:
                    v = field["value"]
                values[(li, ni, name)][rep] = v
            failed += any_failed
    return values, failed


def rebuild_outputs(inp: McInputs, values: dict, tr) -> list[str]:
    """Aggregate the raw values and re-serialize; the bytes must match the CLI's files."""
    cfg = inp.config
    summaries = []
    for li, rate in enumerate(cfg.lambda_grid):
        for ni, n in enumerate(cfg.n_grid):
            for name in cfg.estimators:
                summaries.append(tr.call("montecarlo.summarize", summarize, values[(li, ni, name)],
                                         rate, n, ESTIMATOR_KINDS[name], cfg.reps))
    outcome = ExperimentOutcome(config=cfg, summaries=tuple(summaries), values=values)
    bad = []
    for span, lines, path, count in (
            ("io.summary_csv", pfio.summary_csv_lines, inp.summary_path, len(summaries)),
            ("io.raw_ndjson", pfio.raw_ndjson_lines, inp.raw_path, cfg.reps * len(inp.replay))):
        tr.call(span, write_lines, inp.rebuilt_path, lines(outcome), count=count)
        if inp.rebuilt_path.read_bytes() != path.read_bytes():
            bad.append(f"{path.name} differs from {span} over the parsed raw values")
    return bad


def write_lines(path: Path, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def check_replay(replayed: dict, values: dict, config) -> list[str]:
    """Replayed values are bit-identical to the raw file and obey the closed forms."""
    bad = []
    for (li, ni, rep), (got, n_plus, (own_n_plus, own_s), delta) in replayed.items():
        n = config.n_grid[ni]
        where = f"cell ({config.lambda_grid[li]}, {n}) rep {rep}"
        for name in config.estimators:
            kind = ESTIMATOR_KINDS[name]
            raw = values[(li, ni, name)][rep]
            if np.float64(got[kind]).tobytes() != np.float64(raw).tobytes():
                bad.append(f"{where}: replayed {kind} {got[kind]!r} != raw {raw!r}")
        if n_plus != own_n_plus:
            bad.append(f"{where}: n_plus {n_plus} != {own_n_plus} from the positions")
        want = oracle.closed_form_estimates(own_n_plus, own_s, n, delta, config.speed)
        for kind, value in want.items():
            if oracle.relative_error(got[kind], value) > 1e-12:
                bad.append(f"{where}: {kind} {got[kind]!r} != closed form {value!r}")
    return bad


def check_cells(values: dict, config, check_variance: bool, alpha: float = 6.3e-5) -> list[str]:
    """Per cell: pseudo_mle bias, its z-score variance, and the indicator's saturation count."""
    bad = []
    reps = config.reps
    for li, rate in enumerate(config.lambda_grid):
        for ni, n in enumerate(config.n_grid):
            delta = config.horizon / n
            where = f"cell (lambda={rate}, n={n})"
            hat = values[(li, ni, "hat")]
            hat = hat[np.isfinite(hat)]
            se = float(np.std(hat, ddof=1)) / math.sqrt(hat.size)
            theory = oracle.hat_bias(rate, delta, n, config.speed)
            bias = float(np.mean(hat)) - rate
            # The SE is itself estimated from the replications: Student t, not 4 sigma.
            limit = oracle.t_limit(hat.size - 1, alpha)
            if abs(bias - theory) > limit * se:
                bad.append(f"{where}: pseudo_mle bias {bias:+.5f} is {abs(bias - theory) / se:.2f} SE "
                           f"from the delta-method bias {theory:+.5f} (limit {limit:.2f})")
            if check_variance:
                info = n * oracle.stride_information(rate, delta, config.speed)
                var = float(np.var((hat - rate) * math.sqrt(info), ddof=1))
                lo, hi = oracle.chi2_interval(hat.size - 1)
                if not lo <= var <= hi:
                    bad.append(f"{where}: pseudo_mle z-score variance {var:.3f} outside "
                               f"[{lo:.3f}, {hi:.3f}] for the full one-stride information")
            saturated = int(np.count_nonzero(np.isinf(values[(li, ni, "dot")])))
            lo, hi = oracle.binomial_interval(reps, oracle.saturation_probability(rate, delta, n))
            if not lo <= saturated <= hi:
                bad.append(f"{where}: {saturated} saturated indicator estimates, "
                           f"binomial interval [{lo}, {hi}]")
    return bad
