"""Property tests: invariances and identities of the estimators, and exact
serialization round-trips.

Estimator examples are simulated flights, so every stride is consistent
with the claimed speed. Runs are derandomized, so the suite draws the same
examples every time.
"""

import io
import math
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pflight import (
    DiscreteSample,
    EmptyCellError,
    ExperimentConfig,
    FlightParams,
    IncrementSummary,
    SeedSpec,
    indicator_estimate,
    modified_mle,
    position_at,
    pseudo_mle,
    run_experiment,
    sample_at_grid,
    score,
    simulate_trajectory,
    vertex_positions,
)
from pflight import montecarlo
from pflight.io import (_ROWS, fmt_json, fmt_raw, positions_csv_lines, read_positions_csv,
                        read_sample_ndjson, sample_ndjson_line, summary_csv_lines)
from pflight.simulate import (Trajectory, _flight_arrays, _grid_counts, _record_slack,
                              _straight_slack_bound, _unit_paths, ground_truth_counts)

ESTIMATORS = (pseudo_mle, modified_mle, indicator_estimate)
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@st.composite
def flights(draw, origin=st.just((0.0, 0.0))):
    """A simulated flight and the number of grid steps to observe it on."""
    rate = draw(st.floats(0.05, 3.0))
    speed = draw(st.floats(0.5, 4.0))
    n = draw(st.integers(5, 300))
    delta = draw(st.floats(0.05, 3.0))
    seed = draw(st.integers(0, 2**32 - 1))
    params = FlightParams(rate=rate, speed=speed, origin=draw(origin))
    return simulate_trajectory(params, n * delta, SeedSpec(seed)), n


def samples(origin=st.just((0.0, 0.0))):
    """A simulated flight observed on a grid."""
    return flights(origin).map(lambda flight: sample_at_grid(*flight))


ORIGINS = st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))


def records():
    """(positions, delta, speed) of a simulated flight observed on a grid."""
    return samples().map(lambda sample: (sample.positions, sample.delta, sample.params.speed))


def values(positions, delta, speed):
    summary = IncrementSummary.from_positions(positions, delta, speed)
    out = []
    for func in ESTIMATORS:
        try:
            out.append(func(summary).value)
        except ArithmeticError:
            out.append(None)
    return summary.n_plus, out


@PROPERTY
@given(records(), st.floats(0.0, 2.0 * math.pi), st.floats(-100.0, 100.0),
       st.floats(-100.0, 100.0))
def test_rotation_and_translation_invariance(record, angle, tx, ty):
    positions, delta, speed = record
    rot = np.array([[math.cos(angle), -math.sin(angle)],
                    [math.sin(angle), math.cos(angle)]])
    moved = positions @ rot.T + np.array([tx, ty])
    n_plus, base = values(positions, delta, speed)
    moved_n_plus, got = values(moved, delta, speed)
    assert moved_n_plus == n_plus
    # The indicator reads n_plus only; the others move by rounding in S.
    assert got[2] == base[2]
    for a, b in zip(base[:2], got[:2]):
        assert (a is None) == (b is None)
        if a is not None:
            assert b == pytest.approx(a, rel=1e-8, abs=1e-12)


@PROPERTY
@given(records(), st.integers(-8, 8), st.floats(1e-3, 1e3))
def test_scale_invariance(record, k, scale):
    # Positions and speed times s, delta fixed. A power of two scales every
    # slack exactly, so n_plus and the estimates keep their bits (repr tells
    # every float64 apart, -0.0 from 0.0 too).
    positions, delta, speed = record
    n_plus, base = values(positions, delta, speed)
    exact = values(positions * 2.0**k, delta, speed * 2.0**k)
    assert repr(exact) == repr((n_plus, base))
    scaled_n_plus, got = values(positions * scale, delta, speed * scale)
    assert scaled_n_plus == n_plus
    for a, b in zip(base, got):
        assert (a is None) == (b is None)
        if a is not None:
            assert b == pytest.approx(a, rel=1e-12, abs=0.0)


@PROPERTY
@given(records())
def test_score_vanishes_at_pseudo_mle(record):
    summary = IncrementSummary.from_positions(*record)
    assume(summary.n_plus > 0)
    hat = pseudo_mle(summary).value
    scale = summary.n * summary.delta
    assert abs(score(summary, hat)) <= 1e-12 * scale


# At epsilon = 2^-10 - 2^-22 the first stride's slack is exactly the turn tolerance (not
# turned), the second's lies between it and twice it (turned), and the third's is 0.75.
AT_TOLERANCE = DiscreteSample(FlightParams(rate=1.0, speed=1.0), 1.0, np.array(
    [[0.0, 0.0], [1.0 - 2.0**-11, 0.0], [2.0 - 3.0 * 2.0**-11, 0.0], [2.0 - 3.0 * 2.0**-11, 0.5]]))


@PROPERTY
@given(samples(origin=ORIGINS), st.sampled_from((1e-9, 1e-6, 1e-3)))
@example(AT_TOLERANCE, 2.0**-10 - 2.0**-22)
def test_closed_forms_on_the_single_slack_sum(sample, epsilon):
    positions, delta, c = sample.positions, sample.delta, sample.params.speed
    summary = IncrementSummary.from_positions(positions, delta, c, epsilon)
    n, s = summary.n, summary.sum_sqrt_u_turned
    # The slacks, turned strides and S, computed here apart.
    slack = (c * delta) ** 2 - np.sum(np.diff(positions, axis=0) ** 2, axis=1)
    turned = slack > epsilon * (c * delta) ** 2
    assert summary.u.tobytes() == np.maximum(slack, 0.0).tobytes()
    assert np.array_equal(turned, summary.turned)
    assert turned.sum() == summary.n_plus
    assert s == pytest.approx(math.fsum(np.sqrt(slack[turned])), rel=1e-12, abs=1e-300)
    assume(c * n * delta - s > 0.0)
    assert pseudo_mle(summary).value == c * summary.n_plus / (c * n * delta - s)
    assert modified_mle(summary).value == c * n / (c * n * delta - s)


@PROPERTY
@given(flights(origin=ORIGINS))
def test_one_position_formula(flight):
    # sample_at_grid observes at np.linspace(0, horizon, n + 1); position_at
    # and vertex_positions must give the same bits at the same times.
    traj, n = flight
    grid = np.linspace(0.0, traj.horizon, n + 1)
    at_grid = np.array([position_at(traj, t) for t in grid])
    assert at_grid.tobytes() == sample_at_grid(traj, n).positions.tobytes()
    knots, vertices = vertex_positions(traj)
    at_knots = np.array([position_at(traj, t) for t in knots])
    assert at_knots.tobytes() == vertices.tobytes()


# Horizons whose delta = T/n is mostly not exactly representable, and arbitrary ones.
HORIZONS = st.sampled_from((500.0 / 3.0, 1e-3, 1e6, 20_000.0)) | st.floats(1e-3, 1e6)


@st.composite
def event_blocks(draw, max_rows=5):
    """(horizon, n, event rows): sorted events in (0, horizon), many on a grid time or one
    ulp either side of one, some rows empty, rows of different lengths."""
    horizon, n = draw(HORIZONS), draw(st.integers(1, 300))
    grid = np.linspace(0.0, horizon, n + 1)
    rows = []
    for _ in range(draw(st.integers(1, max_rows))):
        near = draw(st.lists(st.tuples(st.integers(0, n), st.sampled_from((-1, 0, 1))),
                             max_size=40))
        inside = draw(st.lists(st.floats(0.0, 1.0), max_size=10))
        times = [np.nextafter(grid[i], side * math.inf) if side else grid[i] for i, side in near]
        times += [u * horizon for u in inside]
        rows.append(np.array(sorted({float(t) for t in times if 0.0 < t < horizon})))
    return horizon, n, rows


def _on_grid(horizon, n, side):
    """One row with an event on every inner grid time, or one ulp above (side 1) or below (-1)."""
    grid = np.linspace(0.0, horizon, n + 1)[1:-1]
    return horizon, n, [np.nextafter(grid, side * math.inf) if side else grid]


@PROPERTY
@given(event_blocks())
@example((500.0 / 3.0, 1, [np.array([]), np.array([np.nextafter(500.0 / 3.0, 0.0)])]))
@example((1e-3, 7, [np.array([]), np.array([5e-324, 1e-3 / 7.0]), np.array([])]))
@example(_on_grid(500.0 / 3.0, 300, 0))
@example(_on_grid(1e6, 299, 1))
@example(_on_grid(1e-3, 300, -1))
def test_grid_index_equals_searchsorted(block):
    # The grid paths find each grid time's segment by arithmetic on the equidistant grid;
    # searchsorted on the sorted times is the reference, for the running count k and for
    # ground_truth_counts alike. Rows are padded at the horizon, as a flight block is, with
    # at least one padded column each.
    horizon, n, rows = block
    grid = np.linspace(0.0, horizon, n + 1)
    knots = np.full((len(rows), 2 + max(events.size for events in rows)), horizon)
    knots[:, 0] = 0.0
    for r, events in enumerate(rows):
        knots[r, 1:1 + events.size] = events
    k = _grid_counts(grid, knots, np.array([events.size for events in rows]))
    np.cumsum(k, axis=1, out=k)
    assert k.tolist() == [events.searchsorted(grid, side="right").tolist() for events in rows]
    params = FlightParams(rate=1.0, speed=1.0)
    for events in rows:
        traj = Trajectory(params, horizon, events, np.full(events.size + 1, 1.0))
        want = np.bincount(np.searchsorted(grid, events, side="left"), minlength=n + 1)[1:]
        assert ground_truth_counts(traj, n).tolist() == want.tolist()


def _check_straight_slack_bound(traj, n):
    """Every stride of the record without an event, on the full path, has |slack| within the
    kernel's bound for its flight, and that bound within the one for any flight."""
    sample = sample_at_grid(traj, n)
    c, delta = traj.params.speed, sample.delta
    slack = _record_slack(sample.positions, c, delta)
    knots, headings, _ = _flight_arrays(traj)
    (bound,) = _straight_slack_bound(n, delta, traj.horizon, knots, _unit_paths(knots, headings))
    assert bound <= _straight_slack_bound(n, delta, traj.horizon)
    straight = ground_truth_counts(traj, n) == 0
    assert np.all(np.abs(slack[straight]) <= bound * (c * delta) ** 2)


@st.composite
def long_flights(draw):
    """A flight from the Monte Carlo origin, lambda from 1e-6, on up to 3,000 strides."""
    rate = draw(st.sampled_from((1e-6, 1e-4, 1e-2)) | st.floats(0.05, 3.0))
    n, delta = draw(st.integers(1, 3000)), draw(st.floats(0.05, 3.0))
    params = FlightParams(rate=rate, speed=draw(st.floats(0.5, 4.0)))
    return simulate_trajectory(params, n * delta, SeedSpec(draw(st.integers(0, 2**32 - 1)))), n


def _flight(rate, speed, horizon, seed):
    return simulate_trajectory(FlightParams(rate=rate, speed=speed), horizon, SeedSpec(seed))


# The mc-long cells at delta = 0.1, where the grid term dominates (the largest |slack| read
# about half the bound), and long straight records, where the position terms do.
@PROPERTY
@given(long_flights())
@example((_flight(0.5, 1.0, 20_000.0, 1), 200_000))
@example((_flight(2.0, 1.0, 20_000.0, 2), 200_000))
@example((_flight(1e-6, 3.0, 2e6 / 3.0, 3), 1_000_000))
@example((_flight(3e-6, 1.0, 7e5, 2), 1_000_000))
def test_straight_strides_stay_within_the_kernel_bound(flight):
    _check_straight_slack_bound(*flight)


@PROPERTY
@given(event_blocks(max_rows=1), st.floats(0.5, 4.0), st.integers(0, 2**32 - 1))
@example(_on_grid(500.0 / 3.0, 300, 0), 1.0, 1)
@example(_on_grid(1e6, 299, 1), 3.0, 2)
@example(_on_grid(1e-3, 300, -1), 0.5, 3)
def test_straight_strides_within_the_bound_with_events_on_grid_times(block, speed, seed):
    # An event on a grid time ends a stride with an event and starts a straight one at
    # rem = 0; one ulp either side of it moves it to the neighbouring stride.
    horizon, n, (events,) = block
    headings = 2.0 * math.pi * (1.0 - np.random.default_rng(seed).random(events.size + 1))
    _check_straight_slack_bound(
        Trajectory(FlightParams(rate=1.0, speed=speed), horizon, events, headings), n)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


# The written text is pinned to one call of fmt_raw or fmt_json per numpy scalar, so a
# writer that formats Python floats must give the same bytes, signed zeros, subnormals
# and the largest magnitudes included.
@PROPERTY
@given(st.lists(st.tuples(FINITE, FINITE), min_size=2, max_size=40), st.floats(1e-3, 1e3))
@example([(-0.0, 5e-324), (1.7976931348623157e308, -0.0), (-5e-324, -1.7976931348623157e308)],
         0.1)
def test_csv_round_trip_is_exact(rows, delta):
    positions = np.array(rows, dtype=np.float64)
    times = np.arange(len(rows)) * delta
    text = "\n".join(positions_csv_lines(times, positions)) + "\n"
    per_scalar = [f"{i},{fmt_raw(t)},{fmt_raw(x)},{fmt_raw(y)}"
                  for i, (t, (x, y)) in enumerate(zip(times, positions))]
    assert text == "\n".join(["i,t,x,y", *per_scalar]) + "\n"
    back, back_delta = read_positions_csv(io.StringIO(text))
    assert back.tobytes() == positions.tobytes()
    assert back_delta == delta


# Bounded so that squared strides stay finite; subnormals are included.
BOUNDED = st.floats(-1e150, 1e150)


@PROPERTY
@given(st.lists(st.tuples(BOUNDED, BOUNDED), min_size=2, max_size=40), st.floats(1e-3, 1e3))
@example([(-0.0, 5e-324), (1e150, -0.0), (-5e-324, -1e150)], 0.1)
def test_ndjson_round_trip_is_exact(rows, delta):
    positions = np.array(rows, dtype=np.float64)
    step = float(np.max(np.hypot(*np.diff(positions, axis=0).T)))
    speed = 2.0 * step / delta + 1.0
    params = FlightParams(rate=1.0, speed=speed, origin=tuple(positions[0]))
    line = sample_ndjson_line(DiscreteSample(params, delta, positions))
    per_scalar = ",".join(f"[{fmt_json(x)},{fmt_json(y)}]" for x, y in positions)
    assert line.endswith(f'"n":{len(rows) - 1},"positions":[{per_scalar}]}}')
    back, back_delta = read_sample_ndjson(io.StringIO(line + "\n"), speed=speed)
    assert back.tobytes() == positions.tobytes()
    assert back_delta == delta


# Spellings of position fields that int() and float() accept. numpy's text reader takes
# the padded, signed, zero-led, exponent and nan/inf ones; it declines underscores and
# non-ASCII digits, which send the block to the line-by-line parse.
PADDING = st.text(" \t", max_size=2)
ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


@st.composite
def any_case(draw, word):
    return "".join(draw(st.sampled_from((c, c.upper()))) for c in word)


@st.composite
def int_spellings(draw, value):
    return draw(st.sampled_from(("", "+"))) + "0" * draw(st.integers(0, 2)) + str(value)


@st.composite
def float_spellings(draw, value):
    """A spelling of ``value`` that float() reads back with the same bits, but for a NaN's
    payload: its sign is spelled too."""
    sign = "-" if math.copysign(1.0, value) < 0 else draw(st.sampled_from(("", "+")))
    if not math.isfinite(value):
        return sign + draw(any_case("nan" if math.isnan(value)
                                    else draw(st.sampled_from(("inf", "infinity")))))
    # The decimal digits of repr, zero-led, with the point anywhere (".5" and "5." too)
    # and the exponent that keeps the value.
    _, digits, exponent = Decimal(repr(abs(value))).as_tuple()
    digits = "0" * draw(st.integers(0, 2)) + "".join(map(str, digits))
    point = draw(st.integers(0, len(digits)))
    exponent += len(digits) - point
    mantissa = digits if point == len(digits) and draw(st.booleans()) else (
        digits[:point] + "." + digits[point:])
    if exponent == 0 and draw(st.booleans()):
        return sign + mantissa
    plus = "+" if exponent >= 0 and draw(st.booleans()) else ""
    return f"{sign}{mantissa}{draw(st.sampled_from('eE'))}{plus}{exponent}"


@st.composite
def declined(draw, spelling):
    """``spelling`` with an underscore between two of its digits, or in Arabic-Indic digits;
    unchanged when it has too few digits for either."""
    pairs = [j for j in range(1, len(spelling))
             if spelling[j - 1].isdigit() and spelling[j].isdigit()]
    if pairs and draw(st.booleans()):
        j = draw(st.sampled_from(pairs))
        return spelling[:j] + "_" + spelling[j:]
    return spelling.translate(ARABIC_INDIC)


@st.composite
def spelled_lines(draw, row, t, x, y, decline):
    """The line of one row, each field padded and spelled; a ``decline``d row spells its
    index with a spelling numpy declines, and maybe other fields too."""
    fields = [draw(int_spellings(row))] + [draw(float_spellings(v)) for v in (t, x, y)]
    if decline:
        fields[0] = draw(declined(fields[0]))
    fields[1:] = [draw(declined(f)) if decline and draw(st.booleans()) else f
                  for f in fields[1:]]
    return ",".join(draw(PADDING) + f + draw(PADDING) for f in fields)


@PROPERTY
@given(st.data(), st.integers(1, 12), st.integers(1, 12), st.booleans())
def test_csv_reader_reads_what_int_and_float_read(data, before, after, first_declined):
    # Two blocks: the last ``before`` rows of the first and the ``after`` rows of the second
    # are spelled, and one of the two blocks holds a spelling that numpy declines.
    rows = _ROWS + after
    times = np.arange(rows) * 0.25
    lines = list(positions_csv_lines(times, np.random.default_rng(rows).normal(size=(rows, 2))))
    declined_row = data.draw(st.integers(_ROWS - before, _ROWS - 1) if first_declined
                             else st.integers(_ROWS, rows - 1))
    for row in range(_ROWS - before, rows):
        x, y = data.draw(st.floats()), data.draw(st.floats())
        decline = row == declined_row
        lines[row + 1] = data.draw(spelled_lines(row, float(times[row]), x, y, decline))
    text = "\n".join(lines) + "\n"
    parsed = [line.split(",") for line in lines[1:]]
    assert [int(i) for i, *_ in parsed] == list(range(rows))
    reference = np.array([[float(v) for v in fields[1:]] for fields in parsed])

    paths, loadtxt = [], np.loadtxt

    def spy(*args, **kwargs):
        try:
            table = loadtxt(*args, **kwargs)
        except ValueError:
            paths.append("line by line")
            raise
        paths.append("numpy")
        return table

    with mock.patch.object(np, "loadtxt", spy):
        positions, delta = read_positions_csv(io.StringIO(text))
    assert paths == (["line by line", "numpy"] if first_declined else ["numpy", "line by line"])
    assert positions.tobytes() == reference[:, 1:].tobytes()
    assert delta == 0.25


@st.composite
def cells(draw, max_reps=12):
    """A one-cell Monte Carlo config with a short record."""
    return ExperimentConfig(
        lambda_grid=(draw(st.floats(0.05, 3.0)),),
        n_grid=(draw(st.integers(1, 300)),),
        horizon=draw(st.floats(1.0, 600.0)),
        reps=draw(st.integers(1, max_reps)),
        master_seed=draw(st.integers(0, 2**64 - 1)),
        speed=draw(st.floats(0.5, 4.0)),
        epsilon=draw(st.sampled_from((1e-9, 1e-6, 1e-3))))


# At lambda = 2, n = 200, T = 500 every stride turns in about a quarter of
# the replications, so the indicator saturates there. Further examples below: n = 1; a
# dense cell, lambda * delta = 6; c * T = 5e155, where a difference across the skipped
# strides of a straight flight would overflow when squared, so the kernel must take slacks of
# evaluated strides only; a cell with no event, where no block evaluates a stride; n = 1
# with replications 1, 5 and 6 free of events, so that the block of 5 and 6 evaluates none;
# and n = 200,000 at T = 20,000, whose bound for any flight (7.99e-10) is above the limit of
# 5e-10, so that it takes the per-row branch at the default epsilon and reads the unit paths
# twice, for the per-row bound and for the positions.
SATURATING = ExperimentConfig(lambda_grid=(2.0,), n_grid=(200,), horizon=500.0, reps=12,
                              master_seed=3)


@st.composite
def block_ranges(draw):
    """A cell, a block size B and a range [start, stop) of its replications, as a pool task."""
    cfg = draw(cells())
    start = draw(st.integers(0, cfg.reps - 1))
    return cfg, draw(st.integers(1, cfg.reps)), start, draw(st.integers(start + 1, cfg.reps))


@PROPERTY
@given(block_ranges())
@example((SATURATING, 5, 0, 12))
@example((SATURATING, 5, 3, 11))
@example((ExperimentConfig(lambda_grid=(0.7,), n_grid=(1,), horizon=3.0, reps=6,
                           master_seed=5), 4, 1, 6))
@example((ExperimentConfig(lambda_grid=(3.0,), n_grid=(50,), horizon=100.0, reps=8,
                           master_seed=11, speed=2.5), 3, 0, 8))
@example((ExperimentConfig(lambda_grid=(1e-3,), n_grid=(100,), horizon=1e4, reps=3,
                           master_seed=2, speed=5e151), 2, 0, 3))
@example((ExperimentConfig(lambda_grid=(1e-4,), n_grid=(50,), horizon=10.0, reps=4,
                           master_seed=1), 2, 0, 4))
@example((ExperimentConfig(lambda_grid=(0.2,), n_grid=(1,), horizon=3.0, reps=8,
                           master_seed=4), 2, 1, 8))
@example((ExperimentConfig(lambda_grid=(0.5,), n_grid=(200_000,), horizon=20_000.0, reps=3,
                           master_seed=7), 2, 0, 3))
def test_block_kernel_equals_run_replication(cell):
    # B replications per block, for any B from 1 to reps, over any range of a cell: every
    # replication's n_plus and S keep the reference summary's bits, also in blocks that
    # reuse the call's buffers after a mid-cell start.
    cfg, block, start, stop = cell
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "_BLOCK_STRIDES",
                   block * (cfg.n_grid[0] + montecarlo._chunk(cfg.lambda_grid[0], cfg.horizon)))
        n_plus, s = montecarlo._run_range(cfg, 0, 0, start, stop)
    assert len(n_plus) == len(s) == stop - start
    for rep in range(start, stop):
        want = montecarlo._reference_summary(cfg, 0, 0, rep)
        assert n_plus[rep - start] == want.n_plus, rep
        assert (np.float64(s[rep - start]).tobytes()
                == np.float64(want.sum_sqrt_u_turned).tobytes()), rep


def _outcome(cfg, workers):
    try:
        out = run_experiment(cfg, workers=workers)
    except EmptyCellError as exc:
        return str(exc)
    return list(summary_csv_lines(out)), {key: v.tobytes() for key, v in out.values.items()}


@settings(PROPERTY, max_examples=10)
@given(st.lists(st.floats(0.05, 3.0), min_size=1, max_size=2, unique=True),
       st.lists(st.integers(1, 120), min_size=1, max_size=2, unique=True),
       st.floats(1.0, 300.0), st.integers(1, 30), st.integers(0, 2**64 - 1))
def test_worker_count_invariance(rates, ns, horizon, reps, seed):
    # Each example forks a worker to run share 1 beside the caller, hence the few examples.
    cfg = ExperimentConfig(lambda_grid=tuple(rates), n_grid=tuple(ns), horizon=horizon,
                           reps=reps, master_seed=seed)
    assert _outcome(cfg, 1) == _outcome(cfg, 2)
