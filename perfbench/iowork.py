"""Observation records round-tripped through ``pflight simulate`` and ``pflight estimate``.

One round writes every record as CSV and as NDJSON with ``simulate`` and
reads each back with ``estimate``; then it offers ``estimate`` the two
malformed records. A malformed record counts as a failed operation unless
the program rejects it with exit code 2.

The layer calls repeat each CLI call through the public functions it is
made of (simulate, sample, write; read, summarize, estimate, write), so
``cli.overhead_us`` is a CLI call minus those calls.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from pflight import cli
from pflight import io as pfio
from pflight.estimators import IncrementSummary, indicator_estimate, modified_mle, pseudo_mle
from pflight.seeding import SeedSpec
from pflight.simulate import FlightParams, sample_at_grid, simulate_trajectory

from . import oracle, speed
from .mcwork import cpu_seconds

# Record lengths in strides, hundreds to tens of thousands, and each record's
# rate and spacing; fixed so that every seed sends the same amount of text
# and the same number of events through the program. The seed moves the
# rate and spacing by at most 2 % and picks each record's stream.
LENGTHS = (200, 350, 600, 1000, 1800, 3000, 5000, 9000, 15000, 30000)
RATES = (0.5, 1.0, 2.0)
DELTAS = (2.0, 1.0, 0.5, 0.25)
PROBE_LENGTHS = (300, 3000)
FORMATS = ("csv", "ndjson")
EPSILON = 1e-9


@dataclass
class Record:
    index: int
    rate: float
    speed: float
    horizon: float
    n: int
    seed: int

    def path(self, workdir: Path, fmt: str) -> Path:
        return workdir / f"record{self.index}.{fmt}"

    def simulate_argv(self, path: Path, fmt: str) -> list[str]:
        return ["simulate", "--lambda", repr(self.rate), "--c", repr(self.speed),
                "--T", repr(self.horizon), "--n", str(self.n), "--seed", str(self.seed),
                "--stream", str(self.index), "--format", fmt, "--out", str(path)]

    def params(self) -> FlightParams:
        return FlightParams(rate=self.rate, speed=self.speed)


@dataclass
class IoInputs:
    workdir: Path
    records: list
    malformed: list           # (path, speed) of records the program should reject


def make_records(seed: int, lengths) -> list[Record]:
    rng = random.Random(seed)
    records = []
    for i, n in enumerate(lengths):
        delta = DELTAS[i % len(DELTAS)] * rng.uniform(0.98, 1.02)
        rate = RATES[i % len(RATES)] * rng.uniform(0.98, 1.02)
        records.append(Record(index=i, rate=rate, speed=(1.0, 2.5)[i % 2],
                              horizon=n * delta, n=n, seed=rng.getrandbits(32)))
    return records


def write_malformed(workdir: Path) -> list[tuple[Path, float]]:
    """Two records the readers accept today; neither depends on the run's seed.

    * a CSV whose third row has x = nan: the NaN stride counts as "not turned";
    * an NDJSON record whose ``speed`` and ``n`` contradict ``--c`` and the
      number of positions: the reader ignores both fields.
    """
    speed = 1.0
    sample = sample_at_grid(simulate_trajectory(FlightParams(rate=1.0, speed=speed), 50.0,
                                                SeedSpec(20070101)), 50)
    lines = list(pfio.sample_csv_lines(sample))
    i, t, _, y = lines[3].split(",")
    lines[3] = ",".join((i, t, "nan", y))
    nan_csv = workdir / "malformed_nan.csv"
    nan_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rec = json.loads(pfio.sample_ndjson_line(sample))
    rec.update(speed=2.0 * speed, n=sample.n + 7)
    mismatch = workdir / "malformed_meta.ndjson"
    mismatch.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    return [(nan_csv, speed), (mismatch, speed)]


def estimate_argv(path: Path, speed: float, out: Path) -> list[str]:
    return ["estimate", "--in", str(path), "--c", repr(speed), "--out", str(out)]


def write_sample(path: Path, sample, fmt: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if fmt == "csv":
            for line in pfio.sample_csv_lines(sample):
                fh.write(line)
                fh.write("\n")
        else:
            fh.write(pfio.sample_ndjson_line(sample))
            fh.write("\n")


def read_sample(path: Path, fmt: str):
    with open(path, encoding="utf-8") as fh:
        return pfio.read_positions_csv(fh) if fmt == "csv" else pfio.read_sample_ndjson(fh)


def write_estimates(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in pfio.estimates_csv_lines(rows):
            fh.write(line)
            fh.write("\n")


class IoWorkload:
    def __init__(self, lengths) -> None:
        self.lengths = lengths

    def setup(self, seed: int, workdir: Path) -> IoInputs:
        return IoInputs(workdir, make_records(seed, self.lengths), write_malformed(workdir))

    def round(self, inp: IoInputs, tr, layered: bool) -> dict:
        """One round; each estimate call is also scaled by speed samples taken around it.

        A call of a few milliseconds sees the machine's speed of that moment,
        which drifts within a round; the samples' own time is left out of
        the round's wall and CPU time.
        """
        latency, scales, rcs = [], [], []
        paused = [0.0, 0.0]

        def sample() -> float:
            w0, c0 = time.perf_counter(), cpu_seconds()
            got = speed.sample()
            paused[0] += time.perf_counter() - w0
            paused[1] += cpu_seconds() - c0
            return got

        cpu0, t_round = cpu_seconds(), time.perf_counter()
        before = sample()
        for rec in inp.records:
            for fmt in FORMATS:
                path = rec.path(inp.workdir, fmt)
                out = inp.workdir / f"estimates{rec.index}.{fmt}.csv"
                with tr.span("cli.main", cmd="simulate"):
                    rcs.append(cli.main(rec.simulate_argv(path, fmt)))
                if layered:
                    self.simulate_layers(inp, rec, fmt, tr)
                with tr.span("cli.main", cmd="estimate"):
                    t0 = time.perf_counter()
                    rcs.append(cli.main(estimate_argv(path, rec.speed, out)))
                    latency.append(time.perf_counter() - t0)
                after = sample()
                scales.append(speed.scale(before, after))
                before = after
                if layered:
                    self.estimate_layers(inp, rec, fmt, tr)
        valid_s = time.perf_counter() - t_round - paused[0]
        cpu_s = cpu_seconds() - cpu0 - paused[1]
        accepted = 0
        for path, c in inp.malformed:
            rc = cli.main(estimate_argv(path, c, inp.workdir / "estimates_malformed.csv"))
            accepted += rc != 2
        return {"rcs": rcs, "ops": len(latency), "wall_s": valid_s, "cpu_s": cpu_s,
                "latency_s": np.array(latency), "latency_scale": np.array(scales),
                "accepted": accepted}

    def simulate_layers(self, inp: IoInputs, rec: Record, fmt: str, tr) -> None:
        with tr.span("cli.equivalent", cmd="simulate"):
            traj = tr.call("simulate.trajectory", simulate_trajectory, rec.params(),
                           rec.horizon, SeedSpec(rec.seed, rec.index))
            tr.annotate(count=traj.event_count)
            sample = tr.call("simulate.sample", sample_at_grid, traj, rec.n, count=rec.n)
            tr.call(f"io.{fmt}_write", write_sample, inp.workdir / f"layer.{fmt}", sample, fmt,
                    count=rec.n + 1)

    def estimate_layers(self, inp: IoInputs, rec: Record, fmt: str, tr) -> None:
        with tr.span("cli.equivalent", cmd="estimate"):
            positions, delta = tr.call(f"io.{fmt}_read", read_sample,
                                       rec.path(inp.workdir, fmt), fmt, count=rec.n + 1)
            summary = tr.call("estimators.summarize", IncrementSummary.from_positions,
                              positions, delta, rec.speed, EPSILON, count=rec.n)
            rows = [(tr.call("estimators.estimate", f, summary), summary.n_plus)
                    for f in (pseudo_mle, modified_mle, indicator_estimate)]
            tr.call("io.estimates_csv", write_estimates, inp.workdir / "layer_estimates.csv", rows)

    # -- results ---------------------------------------------------------

    def counts(self, rounds: list[dict], inp: IoInputs) -> tuple[int, int]:
        per_round = len(inp.records) * len(FORMATS) + len(inp.malformed)
        failed = sum(r["accepted"] + sum(bool(a or b) for a, b in zip(r["rcs"][0::2], r["rcs"][1::2]))
                     for r in rounds)
        return per_round * len(rounds), failed

    def check(self, inp: IoInputs, rounds: list[dict], tr) -> list[str]:
        bad = []
        if any(rc != 0 for r in rounds for rc in r["rcs"]):
            bad.append("pflight simulate or estimate exited non-zero on a valid record")
        for rec in inp.records:
            written = sample_at_grid(simulate_trajectory(rec.params(), rec.horizon,
                                                         SeedSpec(rec.seed, rec.index)), rec.n)
            for fmt in FORMATS:
                bad += check_record(inp, rec, fmt, written.positions)
        return bad


def own_parse(path: Path, fmt: str) -> tuple[np.ndarray, float]:
    """The record's positions and spacing, parsed without pflight."""
    text = path.read_text(encoding="utf-8")
    if fmt == "csv":
        rows = [line.split(",") for line in text.splitlines()[1:] if line]
        positions = np.array([[float(x), float(y)] for _, _, x, y in rows])
        return positions, float(rows[1][1]) - float(rows[0][1])
    obj = json.loads(text)
    return np.array(obj["positions"], dtype=np.float64), float(obj["delta"])


def check_record(inp: IoInputs, rec: Record, fmt: str, written: np.ndarray) -> list[str]:
    where = f"record {rec.index} ({rec.n} strides, {fmt})"
    path = rec.path(inp.workdir, fmt)
    read_back, _ = read_sample(path, fmt)
    positions, delta = own_parse(path, fmt)
    bad = []
    for label, got in (("pflight's reader", read_back), ("the text", positions)):
        if got.shape != written.shape or got.tobytes() != written.tobytes():
            bad.append(f"{where}: positions from {label} differ from the written ones")
    if bad:
        return bad
    n_plus, s = oracle.increment_statistics(positions, delta, rec.speed, EPSILON)
    want = oracle.closed_form_estimates(n_plus, s, rec.n, delta, rec.speed)
    lines = (inp.workdir / f"estimates{rec.index}.{fmt}.csv").read_text(encoding="utf-8").splitlines()
    for line in lines[1:]:
        kind, value, _, n, _, got_n_plus, _ = line.split(",")
        if int(n) != rec.n or int(got_n_plus) != n_plus:
            bad.append(f"{where}: {kind} reports n={n}, n_plus={got_n_plus}; want {rec.n}, {n_plus}")
        elif oracle.relative_error(float(value), want[kind]) > 1e-12:
            bad.append(f"{where}: {kind} {value} != closed form {want[kind]!r}")
    return bad
