"""Density, moment, Bessel and information tables from ``pflight.analytics``.

Regimes run from rate*t about 0.5, where the boundary atom carries most
of the mass, to the diffusive regime rate = c^2 with c up to 100. Each
density table is evaluated on the nodes of a quadrature rule, so its
weighted sum plus the atom must be 1.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

import numpy as np
from scipy import special

from pflight.analytics import (bessel_i, bessel_i_scaled, bessel_limit_density, cramer_rao_bound,
                               fisher_info, moment_closed_form, moment_quadrature,
                               radial_density_offset, radial_density_origin)
from pflight.simulate import FlightParams

from . import oracle
from .mcwork import cpu_seconds

# (rate, c, t); every regime but the first has rate = c^2, so it also gets a
# table of the diffusive limit's density.
REGIMES = ((0.5, 1.0, 1.0), (4.0, 2.0, 2.0), (1.0, 1.0, 2.0), (100.0, 10.0, 1.0),
           (10000.0, 100.0, 1.0))
PROBE_REGIMES = REGIMES[:2]
BESSEL_ORDERS = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.5)
BESSEL_POINTS = 150
FISHER_RATES = (0.1, 0.25, 0.5, 1.0, 2.0, 5.0)
FISHER_DELTAS = (0.01, 0.1, 0.5, 1.0, 2.5, 10.0)


@dataclass
class Table:
    kind: str                 # "origin", "offset" or "limit"
    label: str
    call: tuple               # (function, leading arguments); r is appended
    nodes: np.ndarray
    weights: np.ndarray
    atom: float


@dataclass
class AnInputs:
    tables: list
    moments: list             # (params, t)
    bessel_x: np.ndarray
    fisher: list              # (rate, delta, n)


def build(seed: int, regimes) -> AnInputs:
    rng = random.Random(seed)
    tables, moments = [], []
    for rate, c, t in regimes:
        t *= 1.0 + 0.02 * rng.random()
        ct = c * t
        spread = math.sqrt(oracle.second_moment(rate, c, t))
        atom = math.exp(-rate * t)
        label = f"rate={rate:g} c={c:g} t={t:.4g}"
        origin = FlightParams(rate=rate, speed=c)
        moments.append((origin, t))
        r, w = oracle.origin_table_rule(rate, c, t)
        tables.append(Table("origin", label, (radial_density_origin, origin, t), r, w, atom))
        for factor in (0.3, 1.5):
            rho = factor * min(ct, spread)
            angle = 2.0 * math.pi * rng.random()
            start = FlightParams(rate=rate, speed=c,
                                 origin=(rho * math.cos(angle), rho * math.sin(angle)))
            r, w = oracle.offset_table_rule(rate, c, t, rho)
            tables.append(Table("offset", f"{label} rho0={rho:.4g}",
                                (radial_density_offset, start, t), r, w, atom))
            if rate == c * c:
                r, w = oracle.limit_table_rule(t, rho)
                tables.append(Table("limit", f"t={t:.4g} rho0={rho:.4g}",
                                    (bessel_limit_density, start.origin, t), r, w, 0.0))
    # One point in each of BESSEL_POINTS equal slices of log x, so every seed
    # puts the same number of points on each side of the series/asymptotic switch.
    lo, hi = math.log(1e-3), math.log(700.0)
    bessel_x = np.exp([lo + (hi - lo) * (i + rng.random()) / BESSEL_POINTS
                       for i in range(BESSEL_POINTS)])
    fisher = [(rate, delta, rng.randrange(10, 10000)) for rate in FISHER_RATES
              for delta in FISHER_DELTAS]
    return AnInputs(tables, moments, bessel_x, fisher)


class AnWorkload:
    def __init__(self, regimes) -> None:
        self.regimes = regimes

    def setup(self, seed: int, workdir) -> AnInputs:
        return build(seed, self.regimes)

    def round(self, inp: AnInputs, tr, layered: bool) -> dict:
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        out = evaluate(inp, tr)
        return {"ops": len(out["latency_s"]), "wall_s": time.perf_counter() - t0,
                "cpu_s": cpu_seconds() - cpu0, "latency_s": out["latency_s"],
                "failed": out["failed"]}

    def counts(self, rounds: list[dict], inp: AnInputs) -> tuple[int, int]:
        return sum(r["ops"] for r in rounds), sum(r["failed"] for r in rounds)

    def check(self, inp: AnInputs, rounds: list[dict], tr) -> list[str]:
        return check_tables(inp, evaluate(inp, tr))


_SPAN = {radial_density_origin: "analytics.density_origin",
         radial_density_offset: "analytics.density_offset",
         bessel_limit_density: "analytics.bessel_limit"}


def evaluate(inp: AnInputs, tr) -> dict:
    """Every call of one round, timed one by one; failed calls give NaN and are counted."""
    latency = []
    failed = 0

    def run(name, func, *args):
        nonlocal failed
        t0 = time.perf_counter()
        try:
            return tr.call(name, func, *args)
        except (ValueError, ArithmeticError):
            failed += 1
            return math.nan
        finally:
            latency.append(time.perf_counter() - t0)

    densities = []
    for table in inp.tables:
        func, *lead = table.call
        values = [run(_SPAN[func], func, *lead, r) for r in table.nodes]
        densities.append(np.array([getattr(v, "ac", v) for v in values]))
    moments = []
    for params, t in inp.moments:
        moments.append([(run("analytics.moment_quadrature", moment_quadrature, params, t, p),
                         run("analytics.moment_closed_form", moment_closed_form, params, t, p))
                        for p in (1, 2, 3, 4)])
    bessel = {}
    for nu in BESSEL_ORDERS:
        bessel[nu] = (np.array([run("analytics.bessel_i", bessel_i, nu, x) for x in inp.bessel_x]),
                      np.array([run("analytics.bessel_i_scaled", bessel_i_scaled, nu, x)
                                for x in inp.bessel_x]))
    for rate, delta, n in inp.fisher:
        run("analytics.fisher", fisher_info, rate, delta, n)
        run("analytics.cramer_rao", cramer_rao_bound, rate, n)
    return {"latency_s": np.array(latency), "failed": failed, "densities": densities,
            "moments": moments, "bessel": bessel}


def check_tables(inp: AnInputs, out: dict) -> list[str]:
    bad = []
    for table, values in zip(inp.tables, out["densities"]):
        mass = float(np.dot(table.weights, values)) + table.atom
        if not abs(mass - 1.0) <= 1e-6:
            bad.append(f"{table.kind} density table ({table.label}) plus atom integrates to {mass!r}")
    for (params, t), rows in zip(inp.moments, out["moments"]):
        want = oracle.second_moment(params.rate, params.speed, t)
        got = rows[1][0]
        if not oracle.relative_error(got, want) <= 1e-7:
            bad.append(f"moment_quadrature p=2 at rate={params.rate:g} c={params.speed:g} "
                       f"t={t:.4g}: {got!r} != 2c^2/rate^2 (rate t - 1 + e^-rate t) = {want!r}")
    for nu, (plain, scaled) in out["bessel"].items():
        for label, got, want in (("bessel_i", plain, special.iv(nu, inp.bessel_x)),
                                 ("bessel_i_scaled", scaled, special.ive(nu, inp.bessel_x))):
            err = np.abs(got - want) / want
            if not np.all(err <= 1e-10):
                bad.append(f"{label}({nu:g}, x) differs from scipy by {np.nanmax(err):.2e} relative")
    return bad
