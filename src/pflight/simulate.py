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


def _check_stride(speed: float, delta: float) -> None:
    """Raise unless a full stride speed*delta squares to a finite double with room to spare."""
    if not speed * delta < 1e154:
        raise ParameterError(f"speed*delta = {speed * delta:.17g} must be below 1e154 to square")


def _stride_slack(dx: np.ndarray, dy: np.ndarray, speed: float, delta: float) -> np.ndarray:
    """Each stride's (speed*delta)^2 - (dx^2 + dy^2), for float64 steps dx, dy, in place in dx."""
    _check_stride(speed, delta)
    dx *= dx
    dx += np.square(dy, out=dy)
    return np.subtract((speed * delta) ** 2, dx, out=dx)


def _record_slack(pos: np.ndarray, speed: float, delta: float) -> np.ndarray:
    """The stride slacks of one record, whose positions must have shape (n+1, 2).

    A non-finite or huge position gives a NaN or -inf slack, with no numpy warning, for the
    caller's checks to reject."""
    if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 2:
        raise ParameterError(f"positions must have shape (n+1, 2) with n >= 1, got {pos.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        return _stride_slack(np.diff(pos[:, 0]), np.diff(pos[:, 1]), speed, delta)


# The relative margin by which a step may exceed speed*delta, for the rounding of its ends.
_STEP_MARGIN = 1e-9


def _check_steps(slack: np.ndarray, speed: float, delta: float) -> None:
    """Raise unless every step is at most speed*delta*(1 + _STEP_MARGIN); a NaN slack fails."""
    stride_sq, bound = (speed * delta) ** 2, speed * delta * (1.0 + _STEP_MARGIN)
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


def _chunk(rate: float, horizon: float) -> int:
    """Exponentials drawn at a time for one flight: the expected count plus 6 sd plus 16."""
    mean_count = _check_event_count(rate, horizon)
    return max(16, int(mean_count + 6.0 * math.sqrt(mean_count) + 16.0))


def _draw(rng: np.random.Generator, rate: float, horizon: float) -> tuple[np.ndarray, np.ndarray]:
    """The event times and headings of one flight, in the order ``simulate_trajectory`` draws."""
    chunk = _chunk(rate, horizon)
    gaps = rng.standard_exponential(chunk, method="inv") / rate
    times = np.add.accumulate(gaps)
    while times[-1] <= horizon:
        gaps = rng.standard_exponential(chunk, method="inv") / rate
        times = np.concatenate((times, times[-1] + np.add.accumulate(gaps)))
    events = times[times < horizon]
    return events, 2.0 * np.pi * (1.0 - rng.random(events.size + 1))


def _flight_block(gaps: np.ndarray, uniforms: np.ndarray, rate: float, horizon: float
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A block of flights as padded arrays: knots (rows, w), headings (rows, w), event counts,
    and the indices of the rare rows.

    Row r of ``gaps`` (rows, chunk) holds the ``_chunk`` standard exponentials that ``_draw``
    draws first from row r's stream, and row r of ``uniforms`` (rows, chunk) the uniforms
    drawn next; ``gaps`` is overwritten. The headings are the first uniforms of the stream
    after the exponentials, so a row with N events keeps ``_draw``'s bits in its first N + 1.
    A rare row, whose first chunk ends at or before the horizon (about 1e-9 of them), would
    take ``_draw``'s while branch: it keeps its first chunk - 1 events and runs straight from
    the last of them to the horizon; the Monte Carlo kernel takes such a replication's
    n_plus and S from the summary behind ``run_replication``. Every other row has at most
    chunk - 1 events, so w <= chunk.

    A row's knots are 0 then its events, padded at the horizon; its headings are its
    directions, padded with finite values; w is one more than the most events of any row.
    """
    times = np.divide(gaps, rate, out=gaps)
    np.add.accumulate(times, axis=1, out=times)
    rare = np.flatnonzero(times[:, -1] <= horizon)
    times[rare, -1] = horizon
    counts = np.count_nonzero(times < horizon, axis=1)
    width = int(counts.max()) + 1
    knots = np.empty((times.shape[0], width))
    knots[:, 0] = 0.0
    np.minimum(times[:, :width - 1], horizon, out=knots[:, 1:])
    headings = np.subtract(1.0, uniforms[:, :width])
    headings *= 2.0 * np.pi
    return knots, headings, counts, rare


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


def _flight_arrays(traj: Trajectory) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One trajectory as a block of one row, as ``_flight_block`` returns one."""
    return traj.knots()[None, :-1], traj.directions[None], np.array([traj.event_count])


def _grid_counts(grid: np.ndarray, knots: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Events per grid cell: (rows, n+1), [r, i] counting row r's events in (grid[i-1], grid[i]].

    ``grid`` is ``_grid(horizon, n)``; ``knots`` and ``counts`` are as ``_flight_block``
    returns them, so row r's events lie in (0, horizon) and its padding equals horizon. An
    event e's cell is the first j with grid[j] >= e. With grid[j] = j * (horizon/n) rounded
    (grid[n] = horizon) and n below 2**51 (``_check_n``), rint(e / (horizon/n)) is that j or
    j - 1, so one comparison with grid[j] makes it exact, also for an event on a grid time or
    one ulp from one. Padding lands in cell n and is taken off there. Column 0 counts nothing;
    the cumulative sum along a row is each grid time's segment.
    """
    rows, n = knots.shape[0], grid.size - 1
    events = knots[:, 1:]
    q = np.divide(events, grid[-1] / n)
    j = np.rint(q, out=q).astype(np.intp)
    j += grid.take(j) < events
    j += np.arange(0, rows * (n + 1), n + 1)[:, None]
    k = np.bincount(j.ravel(), minlength=rows * (n + 1)).reshape(rows, n + 1)
    k[:, n] -= events.shape[1] - counts
    return k


def _unit_paths(knots: np.ndarray, headings: np.ndarray) -> list:
    """The list of (trig, cum) (rows, w) per coordinate, x then y: cos or sin of the headings,
    and cum the prefix sums of unit displacements, for ``knots`` and ``headings`` as
    ``_flight_block`` returns them. Padded segments have length 0, so no row's prefix sums
    change."""
    seg_dt = knots[:, 1:] - knots[:, :-1]
    paths = []
    for trig in (np.cos(headings), np.sin(headings)):
        cum = np.empty(trig.shape)
        cum[:, 0] = 0.0
        np.add.accumulate(np.multiply(seg_dt, trig[:, :-1], out=cum[:, 1:]), axis=1,
                          out=cum[:, 1:])
        paths.append((trig, cum))
    return paths


def _positions(speed: float, knots: np.ndarray, paths: list, times: np.ndarray,
               k: np.ndarray) -> np.ndarray:
    """Positions (2, *k.shape), x then y, relative to the origin at ``times``.

    ``times`` broadcasts to ``k``'s shape: grid times, every one (``sample_at_grid``) or the
    ends of the strides that the Monte Carlo kernel's ``_run_range`` evaluates. ``paths`` is
    ``_unit_paths(knots, headings)``; ``k`` is row r's flat offset r * w plus the number of the
    row's events at or before each time: the segment holding it. With rem the time since the
    segment started, a coordinate is c * (cum[k] + rem * trig[k]). Callers add the origin
    after this, the last operation.
    """
    out = np.empty((2, *k.shape))
    x, y = out
    rem = knots.take(k)
    np.subtract(times, rem, out=rem)
    # cum[k] goes into an array that is free by then: y before y is filled, rem after its use.
    for (trig, cum), (v, spare) in zip(paths, ((x, y), (y, rem))):
        trig.take(k, out=v, mode="clip")  # k is in range; "clip" fills out unbuffered
        v *= rem
        v += cum.take(k, out=spare, mode="clip")
        v *= speed
    return out


def _straight_slack_bound(n: int, delta: float, horizon: float, knots: np.ndarray | None = None,
                          paths: list | None = None) -> np.ndarray | float:
    """An upper bound on |slack| / (c*delta)^2 of a stride without an event, as ``_positions``
    and ``_stride_slack`` compute it on ``_grid(horizon, n)`` from the origin: per row of a
    block (``knots``; ``paths`` from ``_unit_paths``), or for any flight. The stride's ends
    share segment k, so cum[k] and trig[k] cancel; with u = 2^-53, the terms are:
    - grid[j] = fl(j * delta) and grid[n] = horizon: a stride within 2 u n delta of delta, 4 u n;
    - the rem, product, sum and scale roundings move an end by at most u c (2 |cum[k]| + 4 rem)
      per coordinate, |cum_x[k]| + |cum_y[k]| <= M, the row's largest |cum_x| plus largest
      |cum_y| (2 horizon for any flight), and rem <= L, its longest segment, the last included
      (horizon): 8 u (M + 2 L) / delta;
    - trig_x^2 + trig_y^2 within 16 u of 1 (np.cos and np.sin within 4 ulp), the difference,
      the squares, their sum and (c*delta)^2: 32 u;
    - a subnormal time, product or sum errs by up to 2^-1075 instead: 2^-1070 / delta.
    Below 1e-6, products of terms add under 1e-6 of the bound. ``estimators._turn_tolerance``
    keeps (c*delta)^2 normal, so that an underflowing square errs by under 1e-300 of it.
    """
    farthest, longest = 2.0 * horizon, horizon
    if knots is not None:
        farthest = sum(np.abs(cum).max(axis=1) for _, cum in paths)
        longest = np.maximum((knots[:, 1:] - knots[:, :-1]).max(axis=1, initial=0.0),
                             horizon - knots[:, -1])
    return 2.0**-53 * (4.0 * n + 8.0 * (farthest + 2.0 * longest) / delta + 32.0) \
        + 2.0**-1070 / delta


def _with_origin(planes: np.ndarray, origin: tuple[float, float]) -> np.ndarray:
    """Positions (m, 2) from one row's planes (2, m) relative to ``origin``."""
    return np.add(planes.T, origin, out=np.empty((planes.shape[1], 2)))


def _trajectory_positions(traj: Trajectory, times: np.ndarray) -> np.ndarray:
    """Positions (times.size, 2) of one trajectory at 1-d ``times`` in [0, horizon], any order."""
    knots, headings, _ = _flight_arrays(traj)
    k = traj.event_times.searchsorted(times, side="right")
    planes = _positions(traj.params.speed, knots, _unit_paths(knots, headings), times, k[None])
    return _with_origin(planes[:, 0], traj.params.origin)


def sample_at_grid(traj: Trajectory, n: int) -> DiscreteSample:
    """Observe the trajectory at times i * horizon / n for i = 0..n.

    One vectorized pass over the grid, with segments from ``_grid_counts``, not a search; equal
    to ``position_at`` at every grid point, bit for bit. n is at most 1e9.
    """
    n = _check_n(n)
    grid, (knots, headings, counts) = _grid(traj.horizon, n), _flight_arrays(traj)
    k = _grid_counts(grid, knots, counts)  # one row, whose flat offset is 0
    planes = _positions(traj.params.speed, knots, _unit_paths(knots, headings), grid,
                        np.cumsum(k, axis=1, out=k))
    del grid, k  # freed before the sample's positions and slacks
    return DiscreteSample(params=traj.params, delta=traj.horizon / n,
                          positions=_with_origin(planes[:, 0], traj.params.origin))


def vertex_positions(traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Knot times (0, events..., horizon) and the positions at each knot.

    The path is the polyline through these vertices; useful for plotting
    and for serializing a trajectory as position rows.
    """
    knots = traj.knots()
    return knots, _trajectory_positions(traj, knots)


def ground_truth_counts(traj: Trajectory, n: int) -> np.ndarray:
    """Number of direction changes inside each grid cell ((i-1)*delta, i*delta]."""
    knots, _, counts = _flight_arrays(traj)
    return _grid_counts(_grid(traj.horizon, _check_n(n)), knots, counts)[0, 1:]
