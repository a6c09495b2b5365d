"""Serialization: position tables as CSV, entities as NDJSON.

Raw numeric output is printed with the one spec ``RAW_SPEC``, 17 significant
digits, so every float64 round-trips exactly; ``fmt_raw``, ``fmt_json`` and
the block writers all read it. Position tables and Monte Carlo raw records,
the only tables that grow with a record or a study, are written ``_ROWS`` rows
at a time: one ``%`` template per block over the Python floats of
``ndarray.tolist()``, a raw record with a non-finite value rebuilt value by
value. ``csv_lines`` formats every other (small) table a cell at a time: floats
through its ``fmt``, bools as ``true``/``false``, ints and strings through
``str``; Monte Carlo summary tables use 6 significant digits. The positions
reader hands ``_ROWS`` raw lines at a time to numpy's text reader, which skips
empty lines and parses each float with the same C routine as ``float``; a
block that numpy declines (underscores, non-ASCII digits, any bad field, a
whitespace-only line) is parsed line by line with ``int`` and ``float``.
Either way the reader accepts exactly what ``int`` and ``float`` accept,
with the values they give. JSON has no representation for non-finite
floats, so a saturated or failed estimate serializes as ``null`` plus a
boolean flag.
"""

from __future__ import annotations

import json
import math
from itertools import chain, islice
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

# 17 significant digits: lossless for float64. `format` and `%` give the same text.
RAW_SPEC = ".17g"
# Rows of a position table per block of text, written or read.
_ROWS = 4096
# One row of a position table as numpy's text reader parses it.
_POSITION_ROW = np.dtype([("i", np.int64), ("t", np.float64), ("x", np.float64),
                          ("y", np.float64)])


def fmt_raw(x: float) -> str:
    return format(float(x), RAW_SPEC)


def fmt_json(x: float) -> str:
    """``fmt_raw`` for NDJSON, where "-0" would read back as the integer 0."""
    s = format(float(x), RAW_SPEC)
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


def _text_blocks(table: np.ndarray, row: str, sep: str, numbered: bool = False
                 ) -> Iterator[str]:
    """``table``'s rows ``_ROWS`` at a time, each block one string: every row through the
    ``%`` template ``row``, the rows joined by ``sep``. A ``numbered`` table's first
    column is replaced by the row numbers as ints, which ``%d`` formats faster."""
    full = sep.join([row] * _ROWS)
    for start in range(0, len(table), _ROWS):
        block = table[start:start + _ROWS]
        values = block.ravel().tolist()
        if numbered:
            values[::block.shape[1]] = range(start, start + len(block))
        template = full if len(block) == _ROWS else sep.join([row] * len(block))
        yield template % tuple(values)


# ---------------------------------------------------------------------------
# positions as CSV
# ---------------------------------------------------------------------------

_CSV_ROW = f"%d,%{RAW_SPEC},%{RAW_SPEC},%{RAW_SPEC}"


def positions_csv_lines(times: np.ndarray, positions: np.ndarray) -> Iterator[str]:
    """The header, then one ``i,t,x,y`` line per row."""
    times = np.asarray(times, dtype=np.float64)
    table = np.column_stack((np.zeros_like(times), times, np.asarray(positions, np.float64)))
    yield POSITIONS_HEADER
    for text in _text_blocks(table, _CSV_ROW, "\n", numbered=True):
        yield from text.split("\n")


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
    blocks: list[np.ndarray] = []
    rows, lineno = 0, 2
    while raw := list(islice(fh, _ROWS)):
        block = _parse_block(raw, rows, lineno)
        blocks.append(block)
        rows += len(block)
        lineno += len(raw)
    if rows < 2:
        raise ParameterError("need at least two position rows")
    table = np.concatenate(blocks)
    grid = table[:, 0]
    if grid[0] != 0.0:
        raise ParameterError(f"time grid must start at 0, got {float(grid[0])}")
    n = rows - 1
    delta = float(grid[1] - grid[0])
    if delta <= 0.0:
        raise ParameterError(f"non-increasing time grid: delta = {delta}")
    expected = np.arange(n + 1) * delta
    # Written so that a NaN time fails the test; scaled by the expected end, not the last
    # time read, so that an infinite last time cannot widen the tolerance.
    if not np.max(np.abs(grid - expected)) <= 1e-9 * n * delta:
        raise ParameterError("time column is non-finite or not an equidistant grid")
    return np.ascontiguousarray(table[:, 1:]), delta


def _parse_block(raw: list[str], first: int, lineno: int) -> np.ndarray:
    """The (t, x, y) rows of ``raw`` lines, the first numbered ``lineno``, which must hold
    the rows ``first``, ``first + 1``, ... and blank lines."""
    # Stops at the first line with text, almost always the first. A block of blank lines
    # holds no rows; numpy would warn that it read no data.
    if not any(map(str.strip, raw)):
        return np.empty((0, 3))
    try:
        # numpy skips empty lines and declines a block with a whitespace-only line.
        rows = np.loadtxt(raw, delimiter=",", comments=None, dtype=_POSITION_ROW, ndmin=1)
    except ValueError:
        pass
    else:
        if np.array_equal(rows["i"], np.arange(first, first + len(rows))):
            # Each row as four float64s, of which the first, the index's bits, is dropped.
            return rows.view(np.float64).reshape(-1, 4)[:, 1:]
    # numpy declined the block or its index is off: parse it line by line with int and
    # float, which accept what numpy does and more, and name the first bad line.
    values = []
    for lineno, line in enumerate(raw, start=lineno):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ParameterError(f"line {lineno}: expected 4 fields, got {len(parts)}")
        try:
            i = int(parts[0])
            values.append((float(parts[1]), float(parts[2]), float(parts[3])))
        except ValueError as exc:
            raise ParameterError(f"line {lineno}: {exc}") from None
        if i != first:
            raise ParameterError(f"line {lineno}: expected index {first}, got {i}")
        first += 1
    return np.array(values)


# ---------------------------------------------------------------------------
# NDJSON records
# ---------------------------------------------------------------------------

def _json_array(table: np.ndarray, row: str = f"%{RAW_SPEC}") -> str:
    """A JSON array of ``table``'s rows through the template ``row``. "-0," and "-0]" can
    only end the token -0, as RAW_SPEC writes two-digit exponents, so each becomes -0.0."""
    text = "[" + ",".join(_text_blocks(np.asarray(table, dtype=np.float64), row, ",")) + "]"
    return text.replace("-0,", "-0.0,").replace("-0]", "-0.0]")


def trajectory_ndjson_line(traj: Trajectory) -> str:
    p = traj.params
    return ("{"
            f'"type":"trajectory","rate":{fmt_json(p.rate)},"speed":{fmt_json(p.speed)},'
            f'"origin":{_json_array(p.origin)},"horizon":{fmt_json(traj.horizon)},'
            f'"event_times":{_json_array(traj.event_times)},'
            f'"directions":{_json_array(traj.directions)}'
            "}")


def sample_ndjson_line(sample: DiscreteSample) -> str:
    p = sample.params
    pos = _json_array(sample.positions, f"[%{RAW_SPEC},%{RAW_SPEC}]")
    return ("{"
            f'"type":"discrete_sample","rate":{fmt_json(p.rate)},"speed":{fmt_json(p.speed)},'
            f'"origin":{_json_array(p.origin)},"delta":{fmt_json(sample.delta)},'
            f'"n":{sample.n},"positions":{pos}'
            "}")


def read_sample_ndjson(fh: TextIO, *, speed: float | None = None) -> tuple[np.ndarray, float]:
    """Read the one discrete-sample record of a file; returns (positions, delta).

    Blank lines are ignored. The record's ``delta``, ``n``, ``speed`` and every coordinate
    of its ``positions`` rows must be JSON numbers (not booleans), its ``n`` must match its
    number of positions, and its ``speed`` must equal ``speed`` when the caller gives one.
    An ``origin`` is optional; where the record has one, it must be two JSON numbers equal
    to its first position.
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
        rows = obj["positions"]
        # The coordinates in one flat list, checked and converted by C-level passes; a bare
        # number among the rows is a TypeError.
        flat = list(chain.from_iterable(rows))
        if not set(map(type, flat)) <= {int, float}:
            raise TypeError("positions must be rows of numbers")
        widths = set(map(len, rows))
        if len(widths) > 1:
            raise ValueError(f"positions rows have {sorted(widths)} coordinates")
        # No rows keep shape (0,), which the n check below reports.
        positions = np.fromiter(flat, np.float64, len(flat)).reshape(len(rows), *widths)
        meta = delta, n, record_speed = obj["delta"], obj["n"], obj["speed"]
        if not all(type(v) in (int, float) for v in meta):
            raise TypeError(f"delta, n and speed must be numbers, got {meta!r}")
        delta = float(delta)
        origin = obj.get("origin")
        if "origin" in obj and not (type(origin) is list and len(origin) == 2
                                    and set(map(type, origin)) <= {int, float}):
            raise TypeError(f"origin must be two numbers, got {origin!r}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # OverflowError: an integer too large for a float64, in delta or a position.
        raise ParameterError(f"malformed discrete_sample record: {exc}") from None
    if n != positions.shape[0] - 1:
        raise ParameterError(
            f"record's n = {n!r} does not match its positions of shape {positions.shape}")
    if speed is not None and record_speed != speed:
        raise ParameterError(f"record's speed {record_speed!r} differs from {speed!r}")
    first = positions[0].tolist() if len(positions) else None
    if origin is not None and origin != first:
        raise ParameterError(f"record's origin {origin!r} differs from its first position "
                             f"{first!r}")
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
    """One record per replication, cells in run order, replications ascending. A cell's rows
    go through one ``%`` template per block, with "-0}" made "-0.0}" as in ``_json_array``; a
    row holding a NaN or an inf is then rebuilt value by value."""
    cfg = outcome.config
    kinds = [ESTIMATOR_KINDS[name] for name in cfg.estimators]
    for li, rate in enumerate(cfg.lambda_grid):
        for ni, n in enumerate(cfg.n_grid):
            head = f'{{"lambda":{fmt_json(rate)},"n":{n},"rep":'
            table = np.column_stack([np.zeros(cfg.reps)] + [outcome.values[(li, ni, name)]
                                                            for name in cfg.estimators])
            nonfinite = ~np.isfinite(table)
            rebuilt = np.flatnonzero(nonfinite.any(axis=1)).tolist()
            slow = table[rebuilt, 1:].tolist()
            table[nonfinite] = 0.0
            row = head + "%d," + ",".join(f'"{kind}":{{"value":%{RAW_SPEC}}}' for kind in kinds)
            text = "\n".join(_text_blocks(table, row + "}", "\n", numbered=True))
            lines = text.replace("-0}", "-0.0}").split("\n")
            for rep, values in zip(rebuilt, slow):
                lines[rep] = f"{head}{rep}," + ",".join(
                    f'"{kind}":{{"value":null,"failed":true}}' if math.isnan(v)
                    else f'"{kind}":{{"value":null,"saturated":true}}' if math.isinf(v)
                    else f'"{kind}":{{"value":{fmt_json(v)}}}'
                    for kind, v in zip(kinds, values)) + "}"
            yield from lines
