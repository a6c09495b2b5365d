"""Command-line interface.

Subcommands: simulate, estimate, density, moments, fisher, mc. Tables go
to --out (default stdout). Validation problems exit with code 2, runtime
numerical failures with code 1; both print a one-line JSON error record to
stderr. The PFL_THREADS environment variable (0 = auto) sets the number of
Monte Carlo worker processes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Iterable

from . import io as pfio
from .analytics import (
    fisher_info,
    moment_closed_form,
    moment_quadrature,
    radial_density_offset,
)
from .errors import NumericalError, ParameterError, require_int
from .estimators import DEFAULT_EPSILON, ESTIMATORS, IncrementSummary
from .montecarlo import config_from_json, run_experiment
from .seeding import SeedSpec
from .simulate import FlightParams, sample_at_grid, simulate_trajectory


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pflight",
        description="Planar random flights: simulation, analytics, rate estimation.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate one flight and print positions")
    sim.add_argument("--lambda", dest="rate", type=float, required=True,
                     help="direction-change rate")
    sim.add_argument("--c", dest="speed", type=float, required=True, help="speed")
    sim.add_argument("--T", dest="horizon", type=float, required=True, help="time horizon")
    sim.add_argument("--n", type=int, required=True, help="number of observation steps")
    sim.add_argument("--seed", type=int, required=True, help="master seed")
    sim.add_argument("--stream", type=int, default=0, help="stream index (default 0)")
    sim.add_argument("--x0", type=float, default=0.0, help="start x (default 0)")
    sim.add_argument("--y0", type=float, default=0.0, help="start y (default 0)")
    sim.add_argument("--emit", choices=("sample", "trajectory"), default="sample",
                     help="grid sample (default) or the event-time polyline")
    sim.add_argument("--format", choices=("csv", "ndjson"), default="csv")
    sim.add_argument("--out", default="-", help="output path (default stdout)")
    sim.set_defaults(func=_cmd_simulate)

    est = sub.add_parser("estimate", help="estimate the rate from a position table")
    est.add_argument("--in", dest="infile", required=True,
                     help="input path or - for stdin")
    est.add_argument("--c", dest="speed", type=float, required=True, help="speed")
    est.add_argument("--estimator", choices=(*ESTIMATORS, "all"), default="all")
    est.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON,
                     help="turn-classification tolerance (default %(default)g)")
    est.add_argument("--format", choices=("auto", "csv", "ndjson"), default="auto")
    est.add_argument("--out", default="-")
    est.set_defaults(func=_cmd_estimate)

    den = sub.add_parser("density", help="radial density values on an r grid")
    den.add_argument("--lambda", dest="rate", type=float, required=True)
    den.add_argument("--c", dest="speed", type=float, required=True)
    den.add_argument("--t", type=float, required=True, help="elapsed time")
    den.add_argument("--x0", type=float, default=0.0)
    den.add_argument("--y0", type=float, default=0.0)
    den.add_argument("--r-min", type=float, required=True)
    den.add_argument("--r-max", type=float, required=True)
    den.add_argument("--points", type=int, default=101,
                     help="number of grid points (default 101)")
    den.add_argument("--out", default="-")
    den.set_defaults(func=_cmd_density)

    mom = sub.add_parser("moments", help="radial moments, closed form and quadrature")
    mom.add_argument("--lambda", dest="rate", type=float, required=True)
    mom.add_argument("--c", dest="speed", type=float, required=True)
    mom.add_argument("--t", type=float, required=True)
    mom.add_argument("--p-max", type=int, required=True, help="largest moment order")
    mom.add_argument("--out", default="-")
    mom.set_defaults(func=_cmd_moments)

    fis = sub.add_parser("fisher", help="Fisher information of the discretized flight")
    fis.add_argument("--lambda", dest="rate", type=float, required=True)
    fis.add_argument("--delta", type=float, required=True, help="observation spacing")
    fis.add_argument("--n", type=int, required=True, help="number of observations")
    fis.add_argument("--out", default="-")
    fis.set_defaults(func=_cmd_fisher)

    mc = sub.add_parser("mc", help="Monte Carlo study from a JSON config")
    mc.add_argument("--config", required=True, help="JSON config path")
    mc.add_argument("--out", default="-", help="summary CSV path (default stdout)")
    mc.add_argument("--raw", default=None,
                    help="also write per-replication NDJSON records here")
    mc.set_defaults(func=_cmd_mc)

    return parser


def _write_lines(path: str, lines: Iterable[str]) -> None:
    with (contextlib.nullcontext(sys.stdout) if path == "-"
          else open(path, "w", encoding="utf-8")) as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def _cmd_simulate(args: argparse.Namespace) -> int:
    params = FlightParams(rate=args.rate, speed=args.speed, origin=(args.x0, args.y0))
    seed = SeedSpec(args.seed, args.stream)
    traj = simulate_trajectory(params, args.horizon, seed)
    if args.emit == "trajectory":
        record, csv_lines, ndjson_line = traj, pfio.trajectory_csv_lines, pfio.trajectory_ndjson_line
    else:
        record, csv_lines, ndjson_line = (sample_at_grid(traj, args.n), pfio.sample_csv_lines,
                                          pfio.sample_ndjson_line)
    _write_lines(args.out, csv_lines(record) if args.format == "csv" else [ndjson_line(record)])
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    fmt = args.format
    if fmt == "auto":
        fmt = "ndjson" if args.infile.endswith((".ndjson", ".jsonl", ".json")) else "csv"
    with (contextlib.nullcontext(sys.stdin) if args.infile == "-"
          else open(args.infile, "r", encoding="utf-8")) as fh:
        positions, delta = (pfio.read_positions_csv(fh) if fmt == "csv"
                            else pfio.read_sample_ndjson(fh, speed=args.speed))
    summary = IncrementSummary.from_positions(positions, delta, args.speed, args.epsilon)
    names = tuple(ESTIMATORS) if args.estimator == "all" else (args.estimator,)
    rows = [(ESTIMATORS[name][1](summary), summary.n_plus) for name in names]
    _write_lines(args.out, pfio.estimates_csv_lines(rows))
    return 0


def _cmd_density(args: argparse.Namespace) -> int:
    params = FlightParams(rate=args.rate, speed=args.speed, origin=(args.x0, args.y0))
    require_int("--points", args.points)
    if not args.r_min <= args.r_max:
        raise ParameterError(f"--r-min {args.r_min} must not exceed --r-max {args.r_max}")
    lines = [pfio.DENSITY_HEADER]
    for i in range(args.points):
        r = args.r_min + (args.r_max - args.r_min) * i / max(args.points - 1, 1)
        value = radial_density_offset(params, args.t, r)
        lines.append(f"{pfio.fmt_raw(r)},{pfio.fmt_raw(value.ac)},"
                     f"{pfio.fmt_raw(value.singular_weight)}")
    _write_lines(args.out, lines)
    return 0


def _cmd_moments(args: argparse.Namespace) -> int:
    params = FlightParams(rate=args.rate, speed=args.speed)
    require_int("--p-max", args.p_max)
    lines = [pfio.MOMENTS_HEADER]
    for p in range(1, args.p_max + 1):
        closed = moment_closed_form(params, args.t, p)
        quad = moment_quadrature(params, args.t, p)
        lines.append(f"{p},{pfio.fmt_raw(closed)},{pfio.fmt_raw(quad)}")
    _write_lines(args.out, lines)
    return 0


def _cmd_fisher(args: argparse.Namespace) -> int:
    info = fisher_info(args.rate, args.delta, args.n)
    lines = [
        pfio.FISHER_HEADER,
        (f"{pfio.fmt_raw(args.rate)},{pfio.fmt_raw(args.delta)},{info.n},"
         f"{pfio.fmt_raw(info.per_observation)},"
         f"{pfio.fmt_raw(info.idealized_per_observation)},{pfio.fmt_raw(info.total)},"
         f"{pfio.fmt_raw(info.full_per_observation)}"),
    ]
    _write_lines(args.out, lines)
    return 0


def _cmd_mc(args: argparse.Namespace) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"config is not valid JSON: {exc}") from None
    config = config_from_json(obj)
    outcome = run_experiment(config)
    _write_lines(args.out, pfio.summary_csv_lines(outcome))
    if args.raw is not None:
        _write_lines(args.raw, pfio.raw_ndjson_lines(outcome))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        _print_error(args.command, exc)
        return 1
    except (ValueError, OSError) as exc:
        _print_error(args.command, exc)
        return 2


def _print_error(command: str, exc: Exception) -> None:
    record = {"error": type(exc).__name__, "message": str(exc), "command": command}
    print(json.dumps(record), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
