"""pflight's benchmark: run one workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload mc-grid --seed 1 --seconds 24 --trace 0

Run it from the repository root. It imports pflight from ``src/``, builds
the workload's inputs from ``--seed``, repeats whole rounds of the
workload's operations for ``--seconds`` seconds, checks the outputs, and
prints ``{"correct", "attempted", "failed", "metrics"}`` as the last line of
standard output. With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` rounds alternate between untraced and traced, and the
metrics are the per-layer ones computed from the spans, plus the tracing
overhead. Every time in the end-to-end metrics is scaled to a reference
machine speed, sampled before and after each round (``speed.py``). See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("mc-grid", "mc-long", "estimate-io", "analytics")
SETUPS = 5
IMPORTS = 3  # fresh interpreters that import pflight, for setup_s
IMPORT_PROBE = ("import time; t0 = time.perf_counter_ns(); import pflight; "
                "print(time.perf_counter_ns() - t0)")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def workloads(nproc: int) -> tuple[dict, list]:
    """The four workloads, and the probes a traced run uses for layers its workload bypasses."""
    from perfbench import anwork, iowork, mcwork

    named = {
        "mc-grid": mcwork.McWorkload(mcwork.GRID, workers=nproc, replay_per_cell=3,
                                     check_variance=False),
        "mc-long": mcwork.McWorkload(mcwork.LONG, workers=1, replay_per_cell=2,
                                     check_variance=True, array_work=True),
        "estimate-io": iowork.IoWorkload(iowork.LENGTHS),
        "analytics": anwork.AnWorkload(anwork.REGIMES),
    }
    probes = [
        ("mc", ("seeding.", "simulate.", "estimators.", "montecarlo.", "io.raw", "io.summary"),
         mcwork.McWorkload(mcwork.PROBE, workers=nproc, replay_per_cell=3, check_variance=False)),
        ("estimate-io", ("io.csv", "io.ndjson", "cli.overhead"),
         iowork.IoWorkload(iowork.PROBE_LENGTHS)),
        ("analytics", ("analytics.",), anwork.AnWorkload(anwork.PROBE_REGIMES)),
    ]
    return named, probes


def fresh_import_ns(src: Path) -> int:
    """Nanoseconds a fresh interpreter takes to import pflight from src."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    return int(proc.stdout)


def peak_rss_mb(pool_workers: int) -> float:
    """Peak RSS of this process plus pool_workers times that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + pool_workers * child) / 1024.0


def end_to_end(rounds: list[dict]) -> dict:
    """The metrics every workload reports, from rounds of its operations.

    Each round's times are first multiplied by its ``scale``, the
    reference speed over the machine's speed around that round, or for
    latencies by the round's ``latency_scale``, one per call, where it has one.

    An operation is a replication (mc-*), a record round trip (estimate-io)
    or an analytics call. Latency is that of one user-visible call: a
    ``pflight mc`` call, a ``pflight estimate`` call or an analytics call.
    Each round makes the same calls in the same order; every call keeps its
    median over the rounds, and the percentiles are taken across calls, so
    they do not hinge on which of two neighbouring call sizes a rank falls
    into.
    """
    import numpy as np  # not at the top: the timed import of pflight must load numpy itself

    per_call = np.median(np.stack([r["latency_s"] * r.get("latency_scale", r["scale"])
                                   for r in rounds]), axis=0) * 1e3
    return {"ops_per_s": (float(np.median([r["ops"] / (r["wall_s"] * r["scale"]) for r in rounds])),
                          "1/s"),
            "cpu_us_per_op": (float(np.median([r["cpu_s"] * r["scale"] / r["ops"] for r in rounds]))
                              * 1e6, "us"),
            "latency_ms_p50": (float(np.percentile(per_call, 50)), "ms"),
            "latency_ms_p90": (float(np.percentile(per_call, 90)), "ms")}


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "pflight" / "__init__.py").is_file():
        print(f"perfbench: no pflight sources in {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    t0 = time.perf_counter_ns()
    import pflight
    t1 = time.perf_counter_ns()
    if Path(pflight.__file__).resolve().parent != (src / "pflight").resolve():
        print(f"perfbench: imported pflight from {pflight.__file__}, not {src}", file=sys.stderr)
        return 2
    from perfbench import layers, spans, speed

    nproc = len(os.sched_getaffinity(0))
    named, probes = workloads(nproc)
    wl = named[args.workload]
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times, before = [], speed.sample()
        for _ in range(SETUPS):
            s0 = time.perf_counter()
            inp = wl.setup(args.seed, workdir)
            setup_times.append(time.perf_counter() - s0)
        build_s = statistics.median(setup_times) * speed.scale(before, speed.sample())
        # Rounds whose work the pool spreads over every CPU are scaled by all their speeds.
        pool = wl.workers if getattr(wl, "workers", 1) > 1 else 0
        cpus = os.sched_getaffinity(0) if pool else None
        arrays = getattr(wl, "array_work", False)
        pace = []

        tr = spans.Tracer()
        tr.record("cli.import", t0, t1)
        rounds, walls = [], {False: [], True: []}
        deadline = time.perf_counter() + args.seconds
        while not rounds or time.perf_counter() < deadline:
            # Traced runs alternate untraced and traced rounds of the same layered work.
            for traced in ((False, True) if args.trace else (False,)):
                tr.enabled = traced
                # Every round starts with empty collector generations, so the collections
                # its allocations trigger fall on the same calls in every round.
                gc.collect()
                before = speed.sample(cpus, arrays)
                r0 = time.perf_counter()
                rounds.append(wl.round(inp, tr, layered=bool(args.trace)))
                wall = time.perf_counter() - r0
                after = speed.sample(cpus, arrays)
                pace += [before, after]
                rounds[-1]["scale"] = speed.scale(before, after)
                walls[traced].append(wall * rounds[-1]["scale"])
        tr.enabled = False
        peak = peak_rss_mb(pool)

        failures = wl.check(inp, rounds, tr)
        attempted, failed = wl.counts(rounds, inp)
        if args.trace:
            metrics = layers.layer_metrics(tr, "workload")
            for name, prefixes, probe in probes:
                if any(m.startswith(prefixes) for m in layers.ALL if m not in metrics):
                    tr.phase = f"probe:{name}"
                    pinp = probe.setup(args.seed, workdir)
                    probe.round(pinp, tr, layered=True)  # untraced warm-up
                    tr.enabled = True
                    probe.round(pinp, tr, layered=True)
                    tr.enabled = False
                    for m, v in layers.layer_metrics(tr, tr.phase).items():
                        metrics.setdefault(m, v)
            base = statistics.median(walls[False])
            metrics["trace.overhead_pct"] = (100.0 * (statistics.median(walls[True]) - base) / base, "%")
            metrics["machine.calibration_us"] = (statistics.median(pace) * 1e6, "us")
            tr.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
        else:
            # Only after peak_rss_mb has read the children's peak: these interpreters are children too.
            before = speed.sample()
            import_ns = statistics.median(fresh_import_ns(src) for _ in range(IMPORTS))
            import_s = import_ns * 1e-9 * speed.scale(before, speed.sample())
            metrics = dict(end_to_end(rounds), setup_s=(import_s + build_s, "s"),
                           peak_rss_mb=(peak, "MB"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in failures[:20]:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
