"""End-to-end acceptance checks.

Eight numbered checks cover the package's headline claims: the Monte
Carlo study reproduces the reference bias/rmse table, the densities
normalize, the Fisher information closed form agrees with direct
quadrature of the density, the moment quadrature agrees with simulation,
the estimators satisfy their exact algebraic identities, the indicator
estimator is asymptotically normal, the high-rate regime approaches the
diffusive limit, and results are independent of the worker count and of
how each cell is split between processes.

Each test prints one line

    ACCEPTANCE <k> <name>: PASS|FAIL (<detail>)

before asserting, so a full run leaves a readable verdict list (the
project's pytest options echo these lines for passed tests too).

Check 1 pins one reference cell as inconsistent.  For every cell it
tests the Monte Carlo bias against the second-order delta-method bias of
the pseudo maximum likelihood estimator, computed by quadrature from the
exact one-step law (the atom exp(-rate * delta) plus the absolutely
continuous radial density).  The theory lies inside the reference bias
band in three cells and is about +0.0097 at (rate=2.0, n=200), far
outside the quoted -0.031 +/- 0.008; the test asserts exactly that split,
so a change in either the theory or the table trips it.  The discrepancy
is documented in the README; no band is widened.
"""

import concurrent.futures
import math

import numpy as np
import pytest
from scipy import integrate

from pflight import (
    ExperimentConfig,
    FlightParams,
    SeedSpec,
    bessel_limit_density,
    fisher_info,
    ground_truth_counts,
    modified_mle,
    moment_closed_form,
    moment_quadrature,
    position_at,
    pseudo_mle,
    radial_density_offset,
    radial_density_origin,
    run_experiment,
    sample_at_grid,
    score,
    simulate_trajectory,
    summarize_increments,
)
from pflight import montecarlo
from pflight.io import summary_csv_lines

MASTER_SEED = 20250817


def report(index: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {index} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def hat_bias_theory(rate: float, n: int, horizon: float) -> float:
    """Second-order delta-method bias of ``pseudo_mle`` at unit speed.

    The estimator is n_plus / sum(D_i) with D_i = delta - sqrt(u_i) / c.
    Stride lengths are independent and identically distributed (Poisson
    counts on disjoint strides are independent and the carried-over
    heading drops out by rotational symmetry), so the ratio-estimator
    expansion applies with the moments of one stride: the atom
    exp(-rate * delta) at D = delta, and the radial density on turned
    strides.
    """
    delta = horizon / n
    params = FlightParams(rate=rate, speed=1.0)
    atom = math.exp(-rate * delta)

    def turned_moment(k):
        def integrand(r):
            d = delta - math.sqrt((delta - r) * (delta + r))
            return d**k * radial_density_origin(params, delta, r).ac

        val, _ = integrate.quad(
            integrand, 0.0, delta, epsabs=1e-13, epsrel=1e-12, limit=400
        )
        return val

    mean_x = turned_moment(0)
    mean_xy = turned_moment(1)
    mean_y = mean_xy + delta * atom
    var_y = turned_moment(2) + delta * delta * atom - mean_y * mean_y
    cov_xy = mean_xy - mean_x * mean_y
    return (mean_x * var_y / mean_y**3 - cov_xy / mean_y**2) / n


def test_criterion_1_reference_table_cells():
    # (rate, n, bias target, bias tol, rmse target, rmse tol); T = 500.
    cells = (
        (0.10, 200, 0.002, 0.005, 0.015, 0.005),
        (0.50, 500, 0.002, 0.005, 0.035, 0.005),
        (1.00, 1000, 0.002, 0.005, 0.050, 0.005),
        (2.00, 200, -0.031, 0.008, 0.141, 0.008),
    )
    # The one reference cell whose quoted bias band excludes the theory.
    known_inconsistent = {(2.00, 200)}
    checks = []  # (passed, failure message), asserted after the report
    details = []
    for i, (rate, n, b0, btol, r0, rtol) in enumerate(cells):
        cfg = ExperimentConfig(
            lambda_grid=(rate,),
            n_grid=(n,),
            horizon=500.0,
            reps=10000,
            master_seed=MASTER_SEED + i,
            estimators=("hat",),
        )
        outcome = run_experiment(cfg)
        (s,) = outcome.summaries
        vals = outcome.values[(0, 0, "hat")]
        good = vals[np.isfinite(vals)]
        se = float(np.std(good, ddof=1) / math.sqrt(good.size))
        theory = hat_bias_theory(rate, n, 500.0)
        z = (s.bias - theory) / se
        pinned = (rate, n) in known_inconsistent
        theory_in_band = abs(theory - b0) <= btol
        bias_ok = abs(s.bias - b0) <= btol
        rmse_ok = abs(s.rmse - r0) <= rtol
        cell = f"cell (rate={rate}, n={n})"
        band = f"reference band {b0:+.3f}+/-{btol}"

        checks.append((
            abs(z) <= 4.0,
            f"{cell}: measured bias {s.bias:+.4f} is {z:+.2f} SE "
            f"({se:.4f}) from the delta-method theory {theory:+.4f}",
        ))
        checks.append((rmse_ok, f"{cell}: rmse {s.rmse:.4f} outside {r0:.3f}+/-{rtol}"))
        if pinned:
            checks.append((
                not theory_in_band,
                f"{cell}: the {band} now contains the delta-method theory "
                f"{theory:+.4f}; this cell is pinned as the table's one "
                "inconsistent entry (see the README section on the known "
                "reference-table discrepancy), so either the theory or the "
                "table changed meaning.",
            ))
        else:
            checks.append((
                theory_in_band,
                f"{cell}: the delta-method theory {theory:+.4f} left the {band}",
            ))
            checks.append((
                bias_ok,
                f"{cell}: measured bias {s.bias:+.4f} outside the {band}",
            ))
        details.append(
            f"rate={rate} n={n}: bias={s.bias:+.4f} vs theory {theory:+.4f}, "
            f"z={z:+.2f} (tol 4){'' if abs(z) <= 4.0 else ' <-OUT'}, "
            f"{band}{' excludes theory (pinned)' if pinned else ''}"
            f"{'' if pinned or bias_ok else ' <-OUT'}, rmse={s.rmse:.4f} vs "
            f"{r0:.3f}+/-{rtol}{'' if rmse_ok else ' <-OUT'}"
        )

    ok = all(passed for passed, _ in checks)
    report(1, "reference-table-cells", ok, "; ".join(details))
    for passed, message in checks:
        assert passed, message


def test_criterion_2_density_normalization():
    worst_origin = 0.0
    for rate in (0.5, 1.0, 2.0):
        for c in (0.5, 1.0, 2.0):
            for t in (0.5, 1.0, 2.0):
                params = FlightParams(rate=rate, speed=c)
                val, _ = integrate.quad(
                    lambda r: radial_density_origin(params, t, r).ac,
                    0.0,
                    c * t,
                    epsabs=1e-12,
                    epsrel=1e-12,
                    limit=400,
                )
                worst_origin = max(
                    worst_origin, abs(val + math.exp(-rate * t) - 1.0)
                )

    # Off-center start: split the radial integral at the interior
    # tangency radius c*t - |x0| where the density has an integrable
    # singularity.
    start = (0.2, 0.1)
    rho0 = math.hypot(*start)
    worst_offset = 0.0
    for rate in (0.5, 1.0, 2.0):
        for c in (0.5, 1.0, 2.0):
            for t in (0.5, 1.0, 2.0):
                params = FlightParams(rate=rate, speed=c, origin=start)
                ct = c * t

                def f(r):
                    return radial_density_offset(params, t, r).ac

                inner, _ = integrate.quad(
                    f, 0.0, ct - rho0, epsabs=1e-11, epsrel=1e-11, limit=400
                )
                outer, _ = integrate.quad(
                    f, ct - rho0, ct + rho0, epsabs=1e-11, epsrel=1e-11,
                    limit=400,
                )
                total = inner + outer + math.exp(-rate * t)
                worst_offset = max(worst_offset, abs(total - 1.0))

    ok = worst_origin <= 1e-8 and worst_offset <= 1e-6
    report(
        2,
        "density-normalization",
        ok,
        f"worst |mass-1|: centered {worst_origin:.2e} (tol 1e-8), "
        f"off-center {worst_offset:.2e} (tol 1e-6)",
    )
    assert worst_origin <= 1e-8
    assert worst_offset <= 1e-6


def test_criterion_3_fisher_information_quadrature():
    worst = 0.0
    for rate in (0.5, 1.0, 2.0):
        for delta in (0.5, 1.0, 2.0):
            params = FlightParams(rate=rate, speed=1.0)

            def integrand(r):
                # Squared score of one increment, weighted by the
                # absolutely continuous radial density of the step.
                g = 1.0 / rate - delta + math.sqrt(delta * delta - r * r)
                return radial_density_origin(params, delta, r).ac * g * g

            val, _ = integrate.quad(
                integrand, 0.0, delta, epsabs=1e-12, epsrel=1e-12, limit=400
            )
            closed = fisher_info(rate, delta, 1).per_observation
            worst = max(worst, abs(val - closed))

    spot = fisher_info(1.0, 1.0, 1).per_observation
    spot_ok = abs(spot - (1.0 - 2.0 / math.e)) <= 1e-12
    ok = worst <= 1e-8 and spot_ok
    report(
        3,
        "fisher-information-closed-form",
        ok,
        f"worst |quadrature-closed| {worst:.2e} (tol 1e-8), "
        f"spot value at rate=delta=1: {spot:.15f} vs 1-2/e",
    )
    assert worst <= 1e-8
    assert spot_ok


def test_criterion_4_moments_match_simulation():
    params = FlightParams(rate=1.0, speed=1.0)
    reps = 100_000
    r = np.empty(reps)
    for k in range(reps):
        traj = simulate_trajectory(params, 1.0, SeedSpec(2025081704, k))
        x, y = position_at(traj, 1.0)
        r[k] = math.hypot(x, y)

    details = []
    ok = True
    for p in (1, 2, 3):
        powers = r**p
        emp = float(np.mean(powers))
        se = float(np.std(powers, ddof=1) / math.sqrt(reps))
        quad = moment_quadrature(params, 1.0, p)
        closed = moment_closed_form(params, 1.0, p)
        z_quad = (quad - emp) / se
        z_closed = (closed - emp) / se
        quad_ok = abs(z_quad) <= 3.0
        closed_off = abs(z_closed) > 10.0
        ok = ok and quad_ok and closed_off
        details.append(
            f"p={p}: quadrature z={z_quad:+.2f}"
            f"{'' if quad_ok else ' <-OUT'}, closed form z={z_closed:+.0f}"
            f" (stays off by design{'' if closed_off else ' <-UNEXPECTEDLY CLOSE'})"
        )
    report(4, "moments-vs-simulation", ok, "; ".join(details))

    for p in (1, 2, 3):
        powers = r**p
        emp = float(np.mean(powers))
        se = float(np.std(powers, ddof=1) / math.sqrt(reps))
        assert abs(moment_quadrature(params, 1.0, p) - emp) <= 3.0 * se
        # The known-defective closed form must keep disagreeing; if this
        # fires, one of the two routines changed meaning.
        assert abs(moment_closed_form(params, 1.0, p) - emp) > 10.0 * se


def test_criterion_5_estimator_exact_identities():
    params = FlightParams(rate=1.0, speed=1.0)

    # (a) the pseudo-likelihood score vanishes at the estimate
    worst_score = 0.0
    for k in range(20):
        traj = simulate_trajectory(params, 100.0, SeedSpec(2025081705, k))
        summ = summarize_increments(sample_at_grid(traj, 100))
        est = pseudo_mle(summ)
        worst_score = max(worst_score, abs(score(summ, est.value)))
    score_ok = worst_score <= 1e-10 * 100

    # (b) rotation and scale invariance
    traj = simulate_trajectory(params, 50.0, SeedSpec(2025081715))
    sample = sample_at_grid(traj, 50)
    base = pseudo_mle(summarize_increments(sample)).value
    theta = 1.234
    rot = np.array(
        [
            [math.cos(theta), -math.sin(theta)],
            [math.sin(theta), math.cos(theta)],
        ]
    )
    from pflight import DiscreteSample

    rotated = DiscreteSample(params, sample.delta, sample.positions @ rot.T)
    rot_val = pseudo_mle(summarize_increments(rotated)).value
    s = 2.7
    scaled_params = FlightParams(rate=1.0, speed=s)
    scaled = DiscreteSample(scaled_params, sample.delta, sample.positions * s)
    scale_val = pseudo_mle(summarize_increments(scaled)).value
    invariance_ok = (
        abs(rot_val - base) <= 1e-12 * base
        and abs(scale_val - base) <= 1e-12 * base
    )

    # (c) the two likelihood estimators coincide when every stride turned
    busy_params = FlightParams(rate=2.0, speed=1.0)
    busy = simulate_trajectory(busy_params, 40.0, SeedSpec(3))
    busy_summ = summarize_increments(sample_at_grid(busy, 8))
    coincide_ok = (
        busy_summ.n_plus == busy_summ.n
        and pseudo_mle(busy_summ).value == modified_mle(busy_summ).value
    )

    # (d) turn classification agrees with the simulator's event counts
    long_traj = simulate_trajectory(params, 10000.0, SeedSpec(2025081755))
    long_summ = summarize_increments(sample_at_grid(long_traj, 10000))
    counts = ground_truth_counts(long_traj, 10000)
    classify_ok = np.array_equal(long_summ.turned, counts > 0)

    ok = score_ok and invariance_ok and coincide_ok and classify_ok
    report(
        5,
        "estimator-exact-identities",
        ok,
        f"max |score at root| {worst_score:.1e} (tol 1e-8); rotation "
        f"{abs(rot_val - base):.1e} and scale {abs(scale_val - base):.1e} "
        f"drift (tol 1e-12 rel); all-turned coincidence {coincide_ok}; "
        f"classification match on 10000 strides {classify_ok}",
    )
    assert score_ok
    assert invariance_ok
    assert coincide_ok
    assert classify_ok


def test_criterion_6_indicator_normality():
    # rate=1, c=1, T=400, delta=0.1: the normalized error
    # sqrt(n*delta) * (estimate - rate) / sqrt(rate) should be close to
    # standard normal; at this delta the exact variance inflation factor
    # is (exp(rate*delta) - 1)/(rate*delta) = 1.0517.
    cfg = ExperimentConfig(
        lambda_grid=(1.0,),
        n_grid=(4000,),
        horizon=400.0,
        reps=2000,
        master_seed=2025081706,
        estimators=("dot",),
    )
    vals = run_experiment(cfg).values[(0, 0, "dot")]
    finite_ok = bool(np.all(np.isfinite(vals)))
    z = math.sqrt(400.0) * (vals - 1.0)
    mean = float(z.mean())
    var = float(z.var(ddof=1))
    ok = finite_ok and abs(mean) <= 0.1 and 0.8 <= var <= 1.2
    report(
        6,
        "indicator-asymptotic-normality",
        ok,
        f"normalized mean {mean:+.4f} (tol 0.1), variance {var:.4f} "
        f"(band [0.8, 1.2]), saturated replications: "
        f"{int((~np.isfinite(vals)).sum())}",
    )
    assert finite_ok
    assert abs(mean) <= 0.1
    assert 0.8 <= var <= 1.2


def test_criterion_7_diffusive_limit():
    # rate = c^2 with c growing: the radial law converges to the
    # Gaussian-limit density.  The sup distance over a fixed grid must be
    # small at c=100 and decrease along c in {10, 30, 100}.
    grid = np.linspace(0.05, 4.0, 80)
    sups = []
    for c in (10.0, 30.0, 100.0):
        params = FlightParams(rate=c * c, speed=c)
        sup = 0.0
        for r in grid:
            exact = radial_density_origin(params, 1.0, float(r)).ac
            limit = bessel_limit_density((0.0, 0.0), 1.0, float(r))
            sup = max(sup, abs(exact - limit))
        sups.append(sup)
    ok = sups[2] <= 1e-2 and sups[0] > sups[1] > sups[2]
    report(
        7,
        "diffusive-limit",
        ok,
        f"sup|exact - limit| = {sups[0]:.2e} (c=10) > {sups[1]:.2e} (c=30) "
        f"> {sups[2]:.2e} (c=100, tol 1e-2)",
    )
    assert sups[2] <= 1e-2
    assert sups[0] > sups[1] > sups[2]


def test_criterion_8_worker_count_determinism(monkeypatch):
    cfg = ExperimentConfig(
        lambda_grid=(0.10, 0.25, 0.50, 0.75, 1.00, 1.50, 2.00),
        n_grid=(200, 300, 500, 1000),
        horizon=500.0,
        reps=10000,
        master_seed=MASTER_SEED,
        estimators=("hat",),
    )
    cpus = montecarlo._usable_cpus()
    shares = {1: 1, 2: min(2, cpus), 8: 8}
    outcomes = {w: run_experiment(cfg, workers=w) for w in (1, 2)}
    # Eight shares per cell on any host: run_experiment is told of 8 CPUs, and a pool no
    # wider than the real ones runs the 224 shares.
    real_pool = concurrent.futures.ProcessPoolExecutor
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 8)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: real_pool(max_workers=min(max_workers, cpus)))
    outcomes[8] = run_experiment(cfg, workers=8)
    csvs = {
        w: ("\n".join(summary_csv_lines(o)) + "\n").encode()
        for w, o in outcomes.items()
    }
    bytes_ok = csvs[1] == csvs[2] == csvs[8]
    values_ok = all(
        np.array_equal(outcomes[1].values[key], outcomes[w].values[key])
        for w in (2, 8)
        for key in outcomes[1].values
    )
    ok = bytes_ok and values_ok
    report(
        8,
        "worker-count-determinism",
        ok,
        f"summary CSV ({len(csvs[1])} bytes, 28 cells x 10000 replications) "
        f"identical across {shares[1]}/{shares[2]}/{shares[8]} shares per cell: {bytes_ok}; "
        f"raw value arrays identical: {values_ok}",
    )
    assert bytes_ok
    assert values_ok
