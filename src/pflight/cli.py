"""Command-line interface.

Subcommands: simulate, estimate, density, moments, fisher, mc. Tables go
to --out (default stdout). Arithmetic failures (a NumericalError, an overflow,
a division by zero) exit with code 1, invalid input, I/O problems and memory
exhaustion with code 2; each prints a one-line JSON error record to stderr. The
PFL_THREADS environment variable (0 = auto) sets how many processes, the caller
among them, compute a Monte Carlo run, each claiming whole cells in turn, at most
one per usable CPU. ``main`` builds its parser once per process and reuses it:
parsing leaves the parser as it was, so every call parses as a fresh parser would.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
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
from .errors import ParameterError, require_int, require_nonnegative
from .estimators import DEFAULT_EPSILON, ESTIMATORS, IncrementSummary
from .montecarlo import config_from_json, run_experiment
from .seeding import SeedSpec
from .simulate import FlightParams, _check_n, sample_at_grid, simulate_trajectory


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pflight",
        description="Planar random flights: simulation, analytics, rate estimation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def flight(p: argparse.ArgumentParser) -> None:
        p.add_argument("--lambda", dest="rate", type=float, required=True,
                       help="direction-change rate")
        p.add_argument("--c", dest="speed", type=float, required=True, help="speed")

    def start(p: argparse.ArgumentParser) -> None:
        p.add_argument("--x0", type=float, default=0.0, help="start x (default 0)")
        p.add_argument("--y0", type=float, default=0.0, help="start y (default 0)")

    def out(p: argparse.ArgumentParser, func) -> None:
        p.add_argument("--out", default="-", help="output path (default stdout)")
        p.set_defaults(func=func)

    sim = sub.add_parser("simulate", help="simulate one flight and print positions")
    flight(sim)
    sim.add_argument("--T", dest="horizon", type=float, required=True, help="time horizon")
    sim.add_argument("--n", type=int, required=True, help="number of observation steps")
    sim.add_argument("--seed", type=int, required=True, help="master seed")
    sim.add_argument("--stream", type=int, default=0, help="stream index (default 0)")
    start(sim)
    sim.add_argument("--emit", choices=("sample", "trajectory"), default="sample",
                     help="grid sample (default) or the event-time polyline")
    sim.add_argument("--format", choices=("csv", "ndjson"), default="csv")
    out(sim, _cmd_simulate)

    est = sub.add_parser("estimate", help="estimate the rate from a position table")
    est.add_argument("--in", dest="infile", required=True,
                     help="input path or - for stdin")
    est.add_argument("--c", dest="speed", type=float, required=True, help="speed")
    est.add_argument("--estimator", choices=(*ESTIMATORS, "all"), default="all")
    est.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON,
                     help="turn-classification tolerance (default %(default)g)")
    est.add_argument("--format", choices=("auto", "csv", "ndjson"), default="auto")
    out(est, _cmd_estimate)

    den = sub.add_parser("density", help="radial density values on an r grid")
    flight(den)
    den.add_argument("--t", type=float, required=True, help="elapsed time")
    start(den)
    den.add_argument("--r-min", type=float, required=True)
    den.add_argument("--r-max", type=float, required=True)
    den.add_argument("--points", type=int, default=101,
                     help="number of grid points (default 101)")
    out(den, _cmd_density)

    mom = sub.add_parser("moments", help="radial moments, closed form and quadrature")
    flight(mom)
    mom.add_argument("--t", type=float, required=True)
    mom.add_argument("--p-max", type=int, required=True, help="largest moment order")
    out(mom, _cmd_moments)

    fis = sub.add_parser("fisher", help="Fisher information of the discretized flight")
    fis.add_argument("--lambda", dest="rate", type=float, required=True)
    fis.add_argument("--delta", type=float, required=True, help="observation spacing")
    fis.add_argument("--n", type=int, required=True, help="number of observations")
    out(fis, _cmd_fisher)

    mc = sub.add_parser("mc", help="Monte Carlo study from a JSON config")
    mc.add_argument("--config", required=True, help="JSON config path")
    out(mc, _cmd_mc)
    mc.add_argument("--raw", default=None,
                    help="also write per-replication NDJSON records here")

    return parser


def _write_lines(path: str, lines: Iterable[str]) -> None:
    with (contextlib.nullcontext(sys.stdout) if path == "-"
          else open(path, "w", encoding="utf-8")) as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def _cmd_simulate(args: argparse.Namespace) -> int:
    params = FlightParams(rate=args.rate, speed=args.speed, origin=(args.x0, args.y0))
    _check_n(args.n)  # for both emits, though a trajectory does not use n
    traj = simulate_trajectory(params, args.horizon, SeedSpec(args.seed, args.stream))
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
    require_nonnegative("--r-min", args.r_min)
    require_nonnegative("--r-max", args.r_max)
    if not args.r_min <= args.r_max:
        raise ParameterError(f"--r-min {args.r_min} must not exceed --r-max {args.r_max}")
    rows = []
    for i in range(args.points):
        r = args.r_min + (args.r_max - args.r_min) * i / max(args.points - 1, 1)
        value = radial_density_offset(params, args.t, r)
        rows.append((r, value.ac, value.singular_weight))
    _write_lines(args.out, pfio.csv_lines(pfio.DENSITY_HEADER, rows))
    return 0


def _cmd_moments(args: argparse.Namespace) -> int:
    params = FlightParams(rate=args.rate, speed=args.speed)
    require_int("--p-max", args.p_max)
    rows = [(p, moment_closed_form(params, args.t, p), moment_quadrature(params, args.t, p))
            for p in range(1, args.p_max + 1)]
    _write_lines(args.out, pfio.csv_lines(pfio.MOMENTS_HEADER, rows))
    return 0


def _cmd_fisher(args: argparse.Namespace) -> int:
    info = fisher_info(args.rate, args.delta, args.n)
    row = (args.rate, args.delta, info.n, info.per_observation, info.idealized_per_observation,
           info.total, info.full_per_observation)
    _write_lines(args.out, pfio.csv_lines(pfio.FISHER_HEADER, [row]))
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


# Built on main's first call: building costs more than parsing a small record.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ArithmeticError, ValueError, OSError, MemoryError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc), "command": args.command}
        print(json.dumps(record), file=sys.stderr)
        return 1 if isinstance(exc, ArithmeticError) else 2


if __name__ == "__main__":
    sys.exit(main())
