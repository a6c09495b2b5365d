"""Serialization: position tables as CSV, entities as NDJSON.

``csv_lines`` is the one place a CSV cell is formatted, for every table
pflight writes: floats go through its ``fmt``, bools are written
``true``/``false``, ints and strings through ``str``. Raw numeric output is
printed with 17 significant digits so every float64 round-trips exactly;
Monte Carlo summary tables use 6 significant digits. Writers format the
Python floats of ``ndarray.tolist()``, not numpy scalars. JSON has no
representation for non-finite floats, so a saturated or failed estimate
serializes as ``null`` plus a boolean flag.
"""

from __future__ import annotations

import json
import math
from itertools import count
from typing import Callable, Iterable, Iterator, TextIO

import numpy as np

from .errors import ParameterError
from .estimators import ESTIMATOR_KINDS, Estimate
from .simulate import DiscreteSample, Trajectory, vertex_positions

POSITIONS_HEADER = "i,t,x,y"
ESTIMATES_HEADER = "kind,value,stderr,n,delta,n_plus,saturated"
SUMMARY_HEADER = "lambda,c,T,n,delta,estimator,reps,bias,rmse,min,max,saturated"
DENSITY_HEADER = "r,ac,singular_weight"
MOMENTS_HEADER = "p,value_closed_form,value_quadrature"
FISHER_HEADER = "lambda,delta,n,per_obs,idealized,total,full_per_obs"


def fmt_raw(x: float) -> str:
    """17 significant digits: lossless for float64."""
    return format(float(x), ".17g")


def fmt_json(x: float) -> str:
    """``fmt_raw`` for NDJSON, where "-0" would read back as the integer 0."""
    s = format(float(x), ".17g")
    return "-0.0" if s == "-0" else s


def fmt_summary(x: float) -> str:
    return format(float(x), ".6g")


def csv_lines(header: str, rows: Iterable[tuple], fmt: Callable[[float], str] = fmt_raw
              ) -> Iterator[str]:
    """The header, then one line per row: floats through ``fmt``, bools as true/false,
    anything else through ``str``."""
    yield header
    for row in rows:
        yield ",".join([fmt(v) if isinstance(v, float)
                        else ("true" if v else "false") if isinstance(v, bool)
                        else str(v) for v in row])


# ---------------------------------------------------------------------------
# positions as CSV
# ---------------------------------------------------------------------------

def positions_csv_lines(times: np.ndarray, positions: np.ndarray) -> Iterator[str]:
    xs, ys = np.asarray(positions, dtype=np.float64).T.tolist()
    return csv_lines(POSITIONS_HEADER,
                     zip(count(), np.asarray(times, dtype=np.float64).tolist(), xs, ys))


def sample_csv_lines(sample: DiscreteSample) -> Iterator[str]:
    times = np.arange(sample.n + 1) * sample.delta
    return positions_csv_lines(times, sample.positions)


def trajectory_csv_lines(traj: Trajectory) -> Iterator[str]:
    times, pos = vertex_positions(traj)
    return positions_csv_lines(times, pos)


def read_positions_csv(fh: TextIO) -> tuple[np.ndarray, float]:
    """Parse an ``i,t,x,y`` table back into (positions, delta).

    Rows must be complete and ordered by i = 0..n; the time column must be
    an equidistant grid starting at 0 with finite values.
    """
    header = fh.readline().strip()
    if header != POSITIONS_HEADER:
        raise ParameterError(f"expected header {POSITIONS_HEADER!r}, got {header!r}")
    rows: list[tuple[float, float, float]] = []
    for lineno, line in enumerate(fh, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ParameterError(f"line {lineno}: expected 4 fields, got {len(parts)}")
        try:
            i = int(parts[0])
            row = (float(parts[1]), float(parts[2]), float(parts[3]))
        except ValueError as exc:
            raise ParameterError(f"line {lineno}: {exc}") from None
        if i != len(rows):
            raise ParameterError(f"line {lineno}: expected index {len(rows)}, got {i}")
        rows.append(row)
    if len(rows) < 2:
        raise ParameterError("need at least two position rows")
    if rows[0][0] != 0.0:
        raise ParameterError(f"time grid must start at 0, got {rows[0][0]}")
    n = len(rows) - 1
    delta = rows[1][0] - rows[0][0]
    if delta <= 0.0:
        raise ParameterError(f"non-increasing time grid: delta = {delta}")
    table = np.array(rows)
    grid = table[:, 0]
    expected = np.arange(n + 1) * delta
    # Written so that a NaN time fails the test.
    if not np.max(np.abs(grid - expected)) <= 1e-9 * max(delta, grid[-1]):
        raise ParameterError("time column is non-finite or not an equidistant grid")
    return np.ascontiguousarray(table[:, 1:]), delta


# ---------------------------------------------------------------------------
# NDJSON records
# ---------------------------------------------------------------------------

def _json_pair(x: float, y: float) -> str:
    return f"[{fmt_json(x)},{fmt_json(y)}]"


def _json_array(values: Iterable[float]) -> str:
    return "[" + ",".join(fmt_json(v) for v in values) + "]"


def trajectory_ndjson_line(traj: Trajectory) -> str:
    p = traj.params
    return ("{"
            f'"type":"trajectory","rate":{fmt_json(p.rate)},"speed":{fmt_json(p.speed)},'
            f'"origin":{_json_pair(*p.origin)},"horizon":{fmt_json(traj.horizon)},'
            f'"event_times":{_json_array(traj.event_times.tolist())},'
            f'"directions":{_json_array(traj.directions.tolist())}'
            "}")


def sample_ndjson_line(sample: DiscreteSample) -> str:
    p = sample.params
    pos = ",".join([_json_pair(x, y) for x, y in sample.positions.tolist()])
    return ("{"
            f'"type":"discrete_sample","rate":{fmt_json(p.rate)},"speed":{fmt_json(p.speed)},'
            f'"origin":{_json_pair(*p.origin)},"delta":{fmt_json(sample.delta)},'
            f'"n":{sample.n},"positions":[{pos}]'
            "}")


def read_sample_ndjson(fh: TextIO, *, speed: float | None = None) -> tuple[np.ndarray, float]:
    """Read the one discrete-sample record of a file; returns (positions, delta).

    Blank lines are ignored. The record's ``delta``, ``n`` and ``speed`` must be JSON numbers
    (not booleans), its ``n`` must match its number of positions, and its ``speed`` must
    equal ``speed`` when the caller gives one.
    """
    lines = [line for line in map(str.strip, fh) if line]
    if len(lines) != 1:
        raise ParameterError(f"expected one discrete_sample record, got {len(lines)} lines")
    try:
        obj = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ParameterError(f"invalid NDJSON record: {exc}") from None
    kind = obj.get("type") if isinstance(obj, dict) else type(obj).__name__
    if kind != "discrete_sample":
        raise ParameterError(f"expected a discrete_sample record, got {kind!r}")
    try:
        positions = np.asarray(obj["positions"], dtype=np.float64)
        meta = delta, n, record_speed = obj["delta"], obj["n"], obj["speed"]
        if not all(type(v) in (int, float) for v in meta):
            raise TypeError(f"delta, n and speed must be numbers, got {meta!r}")
        delta = float(delta)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # OverflowError: an integer too large for a float64, in delta or a position.
        raise ParameterError(f"malformed discrete_sample record: {exc}") from None
    if positions.ndim == 0 or n != positions.shape[0] - 1:
        raise ParameterError(
            f"record's n = {n!r} does not match its positions of shape {positions.shape}")
    if speed is not None and record_speed != speed:
        raise ParameterError(f"record's speed {record_speed!r} differs from {speed!r}")
    return positions, delta


# ---------------------------------------------------------------------------
# estimate and Monte Carlo tables
# ---------------------------------------------------------------------------

def estimates_csv_lines(rows: Iterable[tuple[Estimate, int]]) -> Iterator[str]:
    """Rows are (estimate, n_plus) pairs."""
    return csv_lines(ESTIMATES_HEADER, ((est.kind, est.value, est.stderr, est.n, est.delta,
                                         n_plus, est.saturated) for est, n_plus in rows))


def summary_csv_lines(outcome) -> Iterator[str]:
    """Rows of a Monte Carlo outcome's cell summaries."""
    cfg = outcome.config
    return csv_lines(SUMMARY_HEADER, (
        (s.rate, cfg.speed, cfg.horizon, s.n, cfg.horizon / s.n, s.estimator, s.reps,
         s.bias, s.rmse, s.min_value, s.max_value, s.saturated_count)
        for s in outcome.summaries), fmt_summary)


def raw_ndjson_lines(outcome) -> Iterator[str]:
    """One record per replication, cells in run order, replications ascending."""
    cfg = outcome.config
    for li, rate in enumerate(cfg.lambda_grid):
        for ni, n in enumerate(cfg.n_grid):
            columns = [(ESTIMATOR_KINDS[name], outcome.values[(li, ni, name)].tolist())
                       for name in cfg.estimators]
            for rep in range(cfg.reps):
                fields = []
                for kind, values in columns:
                    v = values[rep]
                    if math.isnan(v):
                        fields.append(f'"{kind}":{{"value":null,"failed":true}}')
                    elif math.isinf(v):
                        fields.append(f'"{kind}":{{"value":null,"saturated":true}}')
                    else:
                        fields.append(f'"{kind}":{{"value":{fmt_json(v)}}}')
                yield ("{" + f'"lambda":{fmt_json(rate)},"n":{n},"rep":{rep},'
                       + ",".join(fields) + "}")
