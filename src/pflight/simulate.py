"""Simulation of planar random flights.

A mover starts at ``origin`` and travels at constant speed ``c``. Direction
changes happen at the events of a Poisson process with intensity ``rate``;
at each event (and once at time zero) a new heading is drawn uniformly on
(0, 2*pi]. Between events the motion is a straight line, so a trajectory is
fully described by its event times and the heading used on each of the
``N + 1`` straight segments.

Positions follow by integrating the piecewise-constant velocity:

    x(t) = x0 + c * sum_j (min(s_j, t) - min(s_{j-1}, t)) * cos(theta_j)

with s_0 = 0 and s_{N+1} = T, and the same with sin for y(t). The total
path length is always exactly c * T, and every position lies inside the
closed disc of radius c * t around the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, require_int, require_positive
from .seeding import SeedSpec

__all__ = [
    "FlightParams",
    "Trajectory",
    "DiscreteSample",
    "simulate_trajectory",
    "position_at",
    "sample_at_grid",
    "ground_truth_counts",
    "vertex_positions",
]


@dataclass(frozen=True)
class FlightParams:
    """Model parameters: direction-change intensity, speed, starting point."""

    rate: float
    speed: float
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rate", require_positive("rate", self.rate))
        object.__setattr__(self, "speed", require_positive("speed", self.speed))
        ox, oy = self.origin
        if not (math.isfinite(ox) and math.isfinite(oy)):
            raise ParameterError(f"origin must be finite, got {self.origin}")
        object.__setattr__(self, "origin", (float(ox), float(oy)))


@dataclass(frozen=True)
class Trajectory:
    """One continuous-time path on [0, horizon].

    ``event_times`` holds the N direction-change epochs, strictly increasing
    and strictly inside (0, horizon). ``directions`` holds N + 1 headings in
    (0, 2*pi]; ``directions[j]`` applies on the segment starting at
    ``event_times[j - 1]`` (at 0 for j = 0).
    """

    params: FlightParams
    horizon: float
    event_times: np.ndarray
    directions: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "horizon", require_positive("horizon", self.horizon))
        events = np.asarray(self.event_times, dtype=np.float64)
        dirs = np.asarray(self.directions, dtype=np.float64)
        if events.ndim != 1 or dirs.ndim != 1:
            raise ParameterError("event_times and directions must be 1-d arrays")
        if dirs.size != events.size + 1:
            raise ParameterError(
                f"expected {events.size + 1} directions for {events.size} events, got {dirs.size}")
        if events.size:
            if not (events[0] > 0.0 and events[-1] < self.horizon):
                raise ParameterError("event times must lie strictly inside (0, horizon)")
            if not np.all(np.diff(events) > 0.0):
                raise ParameterError("event times must be strictly increasing")
        if dirs.size and not (np.all(dirs > 0.0) and np.all(dirs <= 2.0 * np.pi)):
            raise ParameterError("directions must lie in (0, 2*pi]")
        object.__setattr__(self, "event_times", events)
        object.__setattr__(self, "directions", dirs)

    @property
    def event_count(self) -> int:
        return int(self.event_times.size)

    def knots(self) -> np.ndarray:
        """Segment boundaries (0, event_times..., horizon)."""
        return np.concatenate(([0.0], self.event_times, [self.horizon]))

    def path_length(self) -> float:
        """Total distance travelled: the speed times the sum of segment durations."""
        return self.params.speed * float(np.sum(np.diff(self.knots())))


def _stride_slack(pos: np.ndarray, speed: float, delta: float) -> np.ndarray:
    """Each stride's (speed*delta)^2 - |P_i - P_{i-1}|^2, for float64 positions (..., n+1, 2)."""
    if not speed * delta < 1e154:
        raise ParameterError(f"speed*delta = {speed * delta:.17g} must be below 1e154 to square")
    dx, dy = pos[..., 1:, 0] - pos[..., :-1, 0], pos[..., 1:, 1] - pos[..., :-1, 1]
    dx *= dx
    dx += np.square(dy, out=dy)
    return np.subtract((speed * delta) ** 2, dx, out=dx)


def _record_slack(pos: np.ndarray, speed: float, delta: float) -> np.ndarray:
    """The stride slacks of one record, whose positions must have shape (n+1, 2)."""
    if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 2:
        raise ParameterError(f"positions must have shape (n+1, 2) with n >= 1, got {pos.shape}")
    return _stride_slack(pos, speed, delta)


def _check_steps(slack: np.ndarray, speed: float, delta: float) -> None:
    """Raise unless every step is at most speed*delta*(1 + 1e-9); a NaN slack fails."""
    stride_sq, bound = (speed * delta) ** 2, speed * delta * (1.0 + 1e-9)
    if not np.all(slack >= stride_sq - bound * bound):
        worst = math.sqrt(stride_sq - float(slack.min()))
        raise ParameterError(f"step displacement {worst:.17g} is non-finite or exceeds "
                             f"speed*delta={bound:.17g}")


@dataclass(frozen=True)
class DiscreteSample:
    """Positions observed on the grid 0, delta, ..., n * delta."""

    params: FlightParams
    delta: float
    positions: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta", require_positive("delta", self.delta))
        pos = np.asarray(self.positions, dtype=np.float64)
        slack = _record_slack(pos, self.params.speed, self.delta)
        if tuple(pos[0]) != self.params.origin:
            raise ParameterError("positions[0] must equal the origin")
        _check_steps(slack, self.params.speed, self.delta)
        object.__setattr__(self, "positions", pos)

    @property
    def n(self) -> int:
        return int(self.positions.shape[0] - 1)


# The largest record, in expected events rate * horizon and in steps n: 1e9 times fill 8 GB.
_MAX_RECORD = 10**9


def _check_event_count(rate: float, horizon: float) -> float:
    """``rate * horizon``, checked against ``_MAX_RECORD`` before anything is drawn."""
    mean_count = rate * horizon
    if not mean_count <= _MAX_RECORD:
        raise ParameterError(f"lambda*T = {mean_count:.6g} expected events exceeds the limit "
                             f"of {_MAX_RECORD:.0e}")
    return mean_count


def _check_n(n: int, name: str = "n") -> int:
    """The step count ``n``, checked to be an integer in [1, _MAX_RECORD] before any grid."""
    n = require_int(name, n)
    if n > _MAX_RECORD:
        raise ParameterError(f"{name} = {n} exceeds the limit of {_MAX_RECORD:.0e}")
    return n


def _draw(rng: np.random.Generator, rate: float, horizon: float) -> tuple[np.ndarray, np.ndarray]:
    """The event times and headings of one flight, in the order ``simulate_trajectory`` draws."""
    mean_count = _check_event_count(rate, horizon)
    chunk = max(16, int(mean_count + 6.0 * math.sqrt(mean_count) + 16.0))
    gaps = rng.standard_exponential(chunk, method="inv") / rate
    times = np.add.accumulate(gaps)
    while times[-1] <= horizon:
        gaps = rng.standard_exponential(chunk, method="inv") / rate
        times = np.concatenate((times, times[-1] + np.add.accumulate(gaps)))
    events = times[times < horizon]
    return events, 2.0 * np.pi * (1.0 - rng.random(events.size + 1))


def simulate_trajectory(params: FlightParams, horizon: float,
                        seed: SeedSpec | int) -> Trajectory:
    """Draw one trajectory on [0, horizon].

    Event times come from exponential interarrivals generated by inversion
    (-log(U) / rate) and truncated at the horizon; headings are 2*pi*U with
    U in (0, 1]. The draw is fully determined by ``seed``. An expected event
    count rate * horizon above 1e9 raises ``ParameterError``.
    """
    if isinstance(seed, (int, np.integer)):
        seed = SeedSpec(seed)
    horizon = require_positive("horizon", horizon)
    events, directions = _draw(seed.generator(), params.rate, horizon)
    return Trajectory(params=params, horizon=horizon,
                      event_times=events, directions=directions)


def position_at(traj: Trajectory, t: float) -> tuple[float, float]:
    """Exact position at time t; equal to ``sample_at_grid``'s row at the same time."""
    t = float(t)
    if not 0.0 <= t <= traj.horizon:
        raise ParameterError(f"t must lie in [0, {traj.horizon}], got {t}")
    x, y = _trajectory_positions(traj, np.array([t]))[0]
    return (float(x), float(y))


def _grid(horizon: float, n: int) -> np.ndarray:
    return np.linspace(0.0, horizon, n + 1)


def _grid_counts(grid: np.ndarray, event_rows: list[np.ndarray]) -> np.ndarray:
    """Events per grid cell: (rows, n+1), [r, i] counting event_rows[r] in (grid[i-1], grid[i]].

    ``grid`` is ``_grid(horizon, n)`` and every event lies in (0, horizon). An event e's cell is
    the first j with grid[j] >= e. With grid[j] = j * (horizon/n) rounded (grid[n] = horizon)
    and n below 2**51 (``_check_n``), rint(e / (horizon/n)) is that j or j - 1, so one
    comparison with grid[j] makes it exact, also for an event on a grid time or one ulp from
    one. Column 0 counts nothing; the cumulative sum along a row is each grid time's segment.
    """
    rows, n = len(event_rows), grid.size - 1
    events = np.concatenate(event_rows)
    q = np.divide(events, grid[-1] / n)
    j = np.rint(q, out=q).astype(np.intp)
    j += grid.take(j) < events
    j += np.repeat(np.arange(0, rows * (n + 1), n + 1), [e.size for e in event_rows])
    return np.bincount(j, minlength=rows * (n + 1)).reshape(rows, n + 1)


def _positions(params: FlightParams, horizon: float, flights: list[tuple[np.ndarray, np.ndarray]],
               times: np.ndarray, k: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Fill ``pos`` (rows, m, 2) with positions at ``times``, (m,) or (rows, m).

    Row r follows ``flights[r]`` = (event_times, directions). ``k`` (rows, m), which it
    overwrites, gives the number of the row's events at or before each time: the segment
    holding it. With rem the time since the segment started, a position is
    o + c * (cum[k] + rem * trig[k]), cum being the prefix sum of unit displacements. Rows
    are padded with knots at the horizon and headings of 0: padded segments have length 0,
    so no row's prefix sums change, and k never reaches them.
    """
    rows, width = len(flights), 2 + max(events.size for events, _ in flights)
    knots = np.full((rows, width), horizon)
    knots[:, 0] = 0.0
    headings = np.zeros((rows, width))
    for row, (events, directions) in enumerate(flights):
        knots[row, 1:1 + events.size] = events
        headings[row, :directions.size] = directions
    k += np.arange(0, rows * width, width)[:, None]  # flat indices, for .take
    # Per-segment arrays first, each freed once used, then per-time ones in place.
    seg_dt = knots[:, 1:] - knots[:, :-1]
    trigs = (np.cos(headings), np.sin(headings))
    del headings
    cums = []
    for trig in trigs:
        cums.append(np.zeros((rows, width)))
        np.add.accumulate(seg_dt * trig[:, :-1], axis=1, out=cums[-1][:, 1:])
    del seg_dt
    rem = knots.take(k)
    np.subtract(times, rem, out=rem)
    del knots
    for col, (o, trig, cum) in enumerate(zip(params.origin, trigs, cums)):
        v = pos[..., col]
        trig.take(k, out=v, mode="clip")  # k is in range; "clip" fills v unbuffered
        v *= rem
        v += cum.take(k)
        v *= params.speed
        v += o
    return pos


def _grid_positions(params: FlightParams, horizon: float,
                    flights: list[tuple[np.ndarray, np.ndarray]], grid: np.ndarray,
                    pos: np.ndarray) -> np.ndarray:
    """``_positions`` on ``grid`` = ``_grid(horizon, n)``, with segments from ``_grid_counts``."""
    k = _grid_counts(grid, [events for events, _ in flights])
    return _positions(params, horizon, flights, grid, np.cumsum(k, axis=1, out=k), pos)


def _trajectory_positions(traj: Trajectory, times: np.ndarray) -> np.ndarray:
    """Positions (times.size, 2) of one trajectory at 1-d ``times`` in [0, horizon], any order."""
    k = traj.event_times.searchsorted(times, side="right")
    return _positions(traj.params, traj.horizon, [(traj.event_times, traj.directions)],
                      times, k[None], np.empty((1, times.size, 2)))[0]


def sample_at_grid(traj: Trajectory, n: int) -> DiscreteSample:
    """Observe the trajectory at times i * horizon / n for i = 0..n.

    One vectorized pass over the grid, with no search (``_grid_positions``); equal to
    ``position_at`` at every grid point, bit for bit. n is at most 1e9.
    """
    n = _check_n(n)
    pos = _grid_positions(traj.params, traj.horizon, [(traj.event_times, traj.directions)],
                          _grid(traj.horizon, n), np.empty((1, n + 1, 2)))[0]
    return DiscreteSample(params=traj.params, delta=traj.horizon / n, positions=pos)


def vertex_positions(traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Knot times (0, events..., horizon) and the positions at each knot.

    The path is the polyline through these vertices; useful for plotting
    and for serializing a trajectory as position rows.
    """
    knots = traj.knots()
    return knots, _trajectory_positions(traj, knots)


def ground_truth_counts(traj: Trajectory, n: int) -> np.ndarray:
    """Number of direction changes inside each grid cell ((i-1)*delta, i*delta]."""
    return _grid_counts(_grid(traj.horizon, _check_n(n)), [traj.event_times])[0, 1:]
