"""Monte Carlo study of the rate estimators on a (rate, n) grid.

For every grid cell the engine simulates ``reps`` independent flights over
a fixed horizon, observes each on an equidistant grid of n steps, applies
the requested estimators, and reports bias, root-MSE about the true rate,
and the min/max estimate per cell.

Reproducibility contract: every replication draws from its own stream,
derived from (master_seed, rate index, n index, replication index) alone.
Results are assembled into arrays ordered by replication index before any
aggregation, so the output is byte-identical whatever the worker count or
scheduling order. Each process, one per usable CPU at most, takes one task: its
contiguous share of every cell. The caller runs share 0 and forked workers the
others; ``PFL_THREADS`` (0 = auto) sets their number when the caller passes no
count. A share reseeds one generator per replication with states derived
for a chunk of replications at once, bit-identical to ``SeedSpec.generator``.

A cell's replications run in blocks of about ``_BLOCK_STRIDES`` columns,
strides plus drawn events, evaluated as 2-d arrays. Each replication fills one
row of the block's exponentials and uniforms from its own stream; a flight that
outlasts its first chunk of exponentials, about 1e-9 of them, takes its
statistics from the reference summary. The kernel returns each replication's
``n_plus`` and ``S`` with the bits of ``run_replication``'s summary, and each
share applies the registry's closed forms to them. Positions come
from ``sample_at_grid``'s formula, and slacks are taken only of the strides that
``_run_range`` evaluates: a stride without an event is straight, so its slack
is rounding alone, and a row skips such strides where that rounding is bounded
well inside the turn tolerance.

Failed replications (a closed form's NaN, where c*n*delta - S <= 0) and
saturated indicator estimates are excluded from the moments and counted in
``saturated_count``; the per-cell invariant
``saturated_count + successful = reps`` always holds.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCellError, NumericalError, ParameterError, require_int, require_positive
from .estimators import (
    DEFAULT_EPSILON,
    ESTIMATOR_KINDS,
    ESTIMATORS,
    Estimate,
    IncrementSummary,
    _classify,
    _turn_tolerance,
    check_epsilon,
    estimator_name,
    summarize_increments,
)
from .seeding import SeedSpec, _replication_generators, replication_stream
from .simulate import (_STEP_MARGIN, FlightParams, _check_event_count, _check_n, _check_steps,
                       _check_stride, _chunk, _flight_block, _grid, _grid_counts, _positions,
                       _straight_slack_bound, _stride_slack, _unit_paths, sample_at_grid,
                       simulate_trajectory)

__all__ = [
    "ExperimentConfig",
    "ExperimentSummary",
    "ExperimentOutcome",
    "ReplicationResult",
    "run_replication",
    "run_experiment",
    "summarize",
    "resolve_worker_count",
    "config_from_json",
    "config_to_json",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one study; everything a run needs, nothing hidden."""

    lambda_grid: tuple[float, ...]
    n_grid: tuple[int, ...]
    horizon: float
    reps: int
    master_seed: int
    speed: float = 1.0
    estimators: tuple[str, ...] = tuple(ESTIMATORS)
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self) -> None:
        lams = tuple(require_positive("lambda_grid value", v) for v in self.lambda_grid)
        ns = tuple(_check_n(v, "n_grid value") for v in self.n_grid)
        if not lams or not ns:
            raise ParameterError("lambda_grid and n_grid must not be empty")
        names = tuple(estimator_name(e) for e in self.estimators)
        if not names:
            raise ParameterError("estimators must not be empty")
        # On converted values, so that 1 and 1.0 are the same grid value.
        for field, values in (("lambda_grid", lams), ("n_grid", ns), ("estimators", names)):
            if len(set(values)) != len(values):
                raise ParameterError(f"duplicate values in {field}: {getattr(self, field)}")
        checked = {
            "lambda_grid": lams,
            "n_grid": ns,
            "horizon": require_positive("horizon", self.horizon),
            "reps": require_int("reps", self.reps, 1, 1 << 24),
            "master_seed": require_int("master_seed", self.master_seed, 0, 1 << 64),
            "speed": require_positive("speed", self.speed),
            "estimators": names,
            "epsilon": check_epsilon(self.epsilon),
        }
        for field, value in checked.items():
            object.__setattr__(self, field, value)
        _check_event_count(max(lams), self.horizon)
        _check_stride(self.speed, self.horizon / min(ns))  # the cell with the longest stride
        # The cell with the shortest stride: a positive delta and a normal turn tolerance.
        _turn_tolerance(self.epsilon, self.speed, require_positive("delta", self.horizon / max(ns)))


@dataclass(frozen=True)
class ExperimentSummary:
    """Aggregates of one (rate, n, estimator) cell."""

    rate: float
    n: int
    estimator: str          # estimator kind, e.g. "pseudo_mle"
    reps: int
    bias: float
    rmse: float
    min_value: float
    max_value: float
    saturated_count: int


@dataclass(frozen=True)
class ReplicationResult:
    """Estimates of a single replication, keyed by short estimator name."""

    lambda_index: int
    n_index: int
    rep_index: int
    estimates: dict[str, Estimate | None]


@dataclass(frozen=True)
class ExperimentOutcome:
    """Summaries plus the raw per-replication values, in replication order.

    ``values`` maps (lambda_index, n_index, estimator name) to an array of
    length reps; +inf marks a saturated estimate, NaN a failed replication.
    """

    config: ExperimentConfig
    summaries: tuple[ExperimentSummary, ...]
    values: dict[tuple[int, int, str], np.ndarray]


def _reference_summary(config: ExperimentConfig, li: int, ni: int, rep: int) -> IncrementSummary:
    """One replication's record summary through the public functions."""
    params = FlightParams(rate=config.lambda_grid[li], speed=config.speed)
    seed = SeedSpec(config.master_seed, replication_stream(li, ni, rep))
    traj = simulate_trajectory(params, config.horizon, seed)
    return summarize_increments(sample_at_grid(traj, config.n_grid[ni]), config.epsilon)


def run_replication(config: ExperimentConfig, lambda_index: int, n_index: int,
                    rep_index: int) -> ReplicationResult:
    """One replication of one cell, through the public functions: the block kernel's reference."""
    summary = _reference_summary(config, lambda_index, n_index, rep_index)
    estimates: dict[str, Estimate | None] = {}
    for name in config.estimators:
        try:
            estimates[name] = ESTIMATORS[name][1](summary)
        except NumericalError:
            estimates[name] = None
    return ReplicationResult(lambda_index=lambda_index, n_index=n_index,
                             rep_index=rep_index, estimates=estimates)


# Columns per block of replications, strides plus drawn events: mc-grid timed alike at 2^14
# and 2^15, slower at 2^13 and 2^16.
_BLOCK_STRIDES = 1 << 15


def _run_range(config: ExperimentConfig, lambda_index: int, n_index: int,
               start: int, stop: int) -> tuple[list[int], list[float]]:
    """n_plus and S of replications [start, stop) of one cell, run in blocks of replications.

    Every block runs the same stages in order: draws, ``_flight_block``, ``_grid_counts`` and
    ``_unit_paths``, the per-row bound (only where the bound for any flight is too wide), end
    selection, ``_positions``, slacks and checks, classification. Positions are taken only at
    the two ends of each evaluated stride: every stride that holds an event (a positive cell
    of ``_grid_counts``) in a row whose ``_straight_slack_bound`` is below
    min(epsilon, 2 * _STEP_MARGIN) / 2, and every stride of any other row. Slacks are taken
    of those strides alone, so no difference spans a skipped stride.
    """
    rate, n = config.lambda_grid[lambda_index], config.n_grid[n_index]
    horizon, speed = config.horizon, config.speed
    delta, chunk = horizon / n, _chunk(rate, horizon)
    # A row skips its strides without an event where twice their bound is inside the turn
    # tolerance and the step check's margin; with the bound for any flight, every row does.
    limit = min(config.epsilon, 2.0 * _STEP_MARGIN) / 2.0
    all_admitted = _straight_slack_bound(n, delta, horizon) < limit
    n_plus, s = [], []
    size = max(1, min(stop - start, _BLOCK_STRIDES // (n + chunk)))
    # Built once for all blocks: at n = 200,000, draw arrays per block took 1.8 times the
    # page faults. The grid repeats once per row, so that the ends' times are one take.
    grid, row_starts = np.tile(_grid(horizon, n), size), np.arange(size + 1) * (n + 1)
    gaps, uniforms = np.empty((size, chunk)), np.empty((size, chunk))
    rngs = _replication_generators(config.master_seed, lambda_index, n_index, start, stop)
    for first in range(start, stop, size):
        rows = min(size, stop - first)
        for row in range(rows):
            rng = next(rngs)
            rng.standard_exponential(out=gaps[row], method="inv")
            rng.random(out=uniforms[row])
        knots, headings, counts, rare = _flight_block(gaps[:rows], uniforms[:rows], rate,
                                                      horizon)
        cells, paths = _grid_counts(grid[:n + 1], knots, counts), _unit_paths(knots, headings)
        # right[r, i]: stride i is evaluated; ends: the times of its ends, and every row's 0.
        right = cells > 0
        if not all_admitted:
            right[_straight_slack_bound(n, delta, horizon, knots, paths) >= limit, 1:] = True
        ends = right.copy()
        ends[:, :-1] |= right[:, 1:]
        ends[:, 0] = True
        at = np.flatnonzero(ends)
        # p: the evaluated strides, by the index in ``at`` of their right ends; each left end
        # is the end before it, in the same row, as a row's column 0 is never a right end.
        p = np.flatnonzero(right.take(at))
        # Every event's cell is an end, so a running sum over the ends counts a row's events;
        # column 0 takes it from row r - 1's offset plus events to row r's offset, r * w.
        cells[1:, 0] = knots.shape[1] - counts[:-1]
        k = cells.take(at)
        # Freed before the positions: kept to the end of the block, they raised the peak RSS at
        # (2, 200,000) by 1.5 to 4 MB, and the minor faults with it.
        del cells, ends, right
        x, y = _positions(speed, knots, paths, grid.take(at), np.cumsum(k, out=k))
        del paths, k
        slack = _stride_slack(x[p] - x[p - 1], y[p] - y[p - 1], speed, delta)
        _check_steps(slack, speed, delta)
        _, block_n_plus, block_s = _classify(slack, delta, speed, config.epsilon,
                                             at.take(p).searchsorted(row_starts[:rows + 1]))
        for row in rare:
            summary = _reference_summary(config, lambda_index, n_index, first + row)
            block_n_plus[row], block_s[row] = summary.n_plus, summary.sum_sqrt_u_turned
        n_plus += block_n_plus
        s += block_s
    return n_plus, s


def summarize(values: np.ndarray, rate: float, n: int, estimator_kind: str,
              reps: int) -> ExperimentSummary:
    """Aggregate one cell's replication values (inf = saturated, NaN = failed)."""
    values = np.asarray(values, dtype=np.float64)
    good = values[np.isfinite(values)]
    if good.size == 0:
        raise EmptyCellError(
            f"cell (rate={rate}, n={n}, {estimator_kind}) has no successful replications")
    diff = good - rate
    return ExperimentSummary(
        rate=rate,
        n=n,
        estimator=estimator_kind,
        reps=reps,
        bias=float(np.mean(good) - rate),
        rmse=float(math.sqrt(np.mean(diff * diff))),
        min_value=float(good.min()),
        max_value=float(good.max()),
        saturated_count=int(values.size - good.size),
    )


def resolve_worker_count(workers: int | None = None) -> int:
    """Explicit count, else PFL_THREADS's, else one per usable CPU (0 = auto); runs cap it there."""
    if workers is None:
        raw = os.environ.get("PFL_THREADS", "").strip()
        try:
            workers = int(raw) if raw else 0
        except ValueError:
            raise ParameterError(f"PFL_THREADS must be an integer, got {raw!r}") from None
    return require_int("worker count", workers, 0) or _usable_cpus()


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_part(config: ExperimentConfig, part: list[tuple[int, int, int, int]]) -> list:
    """Each (li, ni, start, stop) task of ``part`` through ``_run_range`` and the closed forms:
    one float64 array per configured estimator, a list per task. The first task that raises
    ends the list with the exception in its place."""
    arrays, formulas = [], [ESTIMATORS[name][2] for name in config.estimators]
    for li, ni, start, stop in part:
        n, delta, c = config.n_grid[ni], config.horizon / config.n_grid[ni], config.speed
        try:
            n_plus, s = _run_range(config, li, ni, start, stop)
            arrays.append([np.array([formula(k, s_k, n, delta, c) for k, s_k in zip(n_plus, s)],
                                    dtype=np.float64) for formula in formulas])
        except Exception as exc:
            return arrays + [exc]
    return arrays


def run_experiment(config: ExperimentConfig, workers: int | None = None) -> ExperimentOutcome:
    """Run the whole grid and aggregate per cell.

    Each process takes one task, its contiguous share of every cell, and applies the closed
    forms to its own replications; the caller runs share 0 while forked workers run the
    others. The same config and master seed produce byte-identical summaries for any worker
    count: each cell's values are concatenated in share order, that is replication order,
    before the cell is aggregated. A failure raises as in (cell, share) order.
    """
    processes = min(resolve_worker_count(workers), _usable_cpus())
    reps = config.reps
    cells = [(li, ni) for li in range(len(config.lambda_grid))
             for ni in range(len(config.n_grid))]
    # One share of each cell per process: a cell's replications cost alike, so none idles.
    shares = min(processes, reps)
    parts = [[(li, ni, reps * i // shares, reps * (i + 1) // shares) for li, ni in cells]
             for i in range(shares)]
    if shares > 1:
        # Imported here: `import pflight` and one-process runs load no multiprocessing.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=shares - 1) as pool:
            futures = [pool.submit(_run_part, config, part) for part in parts[1:]]
            results = [_run_part(config, parts[0])] + [future.result() for future in futures]
    else:
        results = [_run_part(config, parts[0])]
    values, summaries = {}, []
    for cell, (li, ni) in enumerate(cells):
        for arrays in results:
            if isinstance(arrays[cell], Exception):
                raise arrays[cell]
        rate, n = config.lambda_grid[li], config.n_grid[ni]
        for j, name in enumerate(config.estimators):
            values[(li, ni, name)] = cell_values = np.concatenate(
                [arrays[cell][j] for arrays in results])
            summaries.append(summarize(cell_values, rate=rate, n=n,
                                       estimator_kind=ESTIMATOR_KINDS[name], reps=reps))
    return ExperimentOutcome(config=config, summaries=tuple(summaries), values=values)


# ---------------------------------------------------------------------------
# JSON configuration
# ---------------------------------------------------------------------------

# JSON keys -> ExperimentConfig fields, in the order config_to_json writes them.
_JSON_FIELDS = {"lambda_grid": "lambda_grid", "n_grid": "n_grid", "T": "horizon", "c": "speed",
                "reps": "reps", "master_seed": "master_seed", "estimators": "estimators",
                "epsilon": "epsilon"}
_JSON_REQUIRED = {"lambda_grid", "n_grid", "T", "reps", "master_seed"}


def config_from_json(obj: dict) -> ExperimentConfig:
    """Build a config from the documented JSON shape; unknown keys are errors."""
    if not isinstance(obj, dict):
        raise ParameterError(f"config must be a JSON object, got {type(obj).__name__}")
    unknown = set(obj) - set(_JSON_FIELDS)
    if unknown:
        raise ParameterError(f"unknown config keys: {sorted(unknown)}")
    missing = _JSON_REQUIRED - set(obj)
    if missing:
        raise ParameterError(f"missing config keys: {sorted(missing)}")
    try:
        return ExperimentConfig(**{_JSON_FIELDS[key]: value for key, value in obj.items()})
    except TypeError as exc:
        raise ParameterError(f"malformed config: {exc}") from None


def config_to_json(config: ExperimentConfig) -> dict:
    obj = {key: getattr(config, field) for key, field in _JSON_FIELDS.items()}
    for key in ("lambda_grid", "n_grid", "estimators"):
        obj[key] = list(obj[key])
    return obj
