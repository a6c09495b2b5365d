"""Per-layer metrics computed from the spans of a traced run."""

from __future__ import annotations

import numpy as np

# metric -> (span name, statistic, unit). "median" is the median span in
# microseconds; "per_item" divides the total span time by the total count
# the spans carry (events, strides, rows or replications).
SPAN_METRICS = {
    "seeding.stream_us": ("seeding.stream", "median", "us"),
    "seeding.generator_us": ("seeding.generator", "median", "us"),
    "simulate.trajectory_us": ("simulate.trajectory", "median", "us"),
    "simulate.sample_us": ("simulate.sample", "median", "us"),
    "simulate.trajectory_ns_per_event": ("simulate.trajectory", "per_item", "ns"),
    "simulate.sample_ns_per_stride": ("simulate.sample", "per_item", "ns"),
    "simulate.events_per_rep": ("simulate.trajectory", "mean_count", "count"),
    "estimators.summarize_us": ("estimators.summarize", "median", "us"),
    "estimators.summarize_ns_per_stride": ("estimators.summarize", "per_item", "ns"),
    "estimators.estimate_us": ("estimators.estimate", "median", "us"),
    "montecarlo.summarize_us": ("montecarlo.summarize", "median", "us"),
    "io.raw_ndjson_us_per_rep": ("io.raw_ndjson", "per_item", "us"),
    "io.summary_csv_us": ("io.summary_csv", "median", "us"),
    "io.csv_write_us_per_row": ("io.csv_write", "per_item", "us"),
    "io.csv_read_us_per_row": ("io.csv_read", "per_item", "us"),
    "io.ndjson_write_us_per_row": ("io.ndjson_write", "per_item", "us"),
    "io.ndjson_read_us_per_row": ("io.ndjson_read", "per_item", "us"),
    "analytics.density_offset_us": ("analytics.density_offset", "median", "us"),
    "analytics.density_origin_us": ("analytics.density_origin", "median", "us"),
    "analytics.moment_quadrature_us": ("analytics.moment_quadrature", "median", "us"),
    "analytics.moment_closed_form_us": ("analytics.moment_closed_form", "median", "us"),
    "analytics.bessel_i_us": ("analytics.bessel_i", "median", "us"),
    "analytics.bessel_limit_us": ("analytics.bessel_limit", "median", "us"),
    "analytics.fisher_us": ("analytics.fisher", "median", "us"),
}
DERIVED = ("montecarlo.overhead_us_per_rep", "montecarlo.worker_busy_share",
           "cli.overhead_us", "cli.import_s")
ALL = tuple(SPAN_METRICS) + DERIVED
_SCALE = {"us": 1e-3, "ns": 1.0}

# Layers of the replication kernel, in the order pflight mc calls them; the
# generator built by seeding.generator is rebuilt inside simulate_trajectory,
# so it is left out of the per-replication kernel.
_KERNEL = ("seeding.stream", "simulate.trajectory", "simulate.sample",
           "estimators.summarize", "estimators.estimate")


def layer_metrics(tr, phase: str) -> dict:
    """Every metric of ALL that the spans of ``phase`` can give, as (value, unit)."""
    by_name: dict[str, list[int]] = {}
    for i in tr.phase_range(phase):
        by_name.setdefault(tr.names[i], []).append(i)
    attrs = tr.attrs

    def durations(name):
        return np.array([tr.duration_ns(i) for i in by_name.get(name, ())], dtype=np.float64)

    out = {}
    for metric, (name, stat, unit) in SPAN_METRICS.items():
        d = durations(name)
        if d.size == 0:
            continue
        counts = [attrs.get(i, {}).get("count", 0) for i in by_name[name]]
        if stat == "median":
            out[metric] = (float(np.median(d)) * _SCALE[unit], unit)
        elif stat == "per_item":
            out[metric] = (float(d.sum() / sum(counts)) * _SCALE[unit], unit)
        else:
            out[metric] = (float(np.mean(counts)), unit)

    kids = tr.children_index()
    mc_calls = [i for i in by_name.get("cli.main", ()) if attrs[i]["cmd"] == "mc"]
    reps = by_name.get("montecarlo.replication", ())
    if mc_calls and reps:
        # CPU, not wall time, of the kernel calls, so that time the machine
        # gives to other work counts in neither term: the replication's CPU
        # times the kernel calls' share of its wall time.
        kernel_ns = np.mean([attrs[i]["cpu_ns"] * sum(tr.duration_ns(j) for j in kids.get(i, ())
                                                      if tr.names[j] in _KERNEL) / tr.duration_ns(i)
                             for i in reps])
        cpu_us = [1e6 * (attrs[i]["self_cpu_s"] + attrs[i]["child_cpu_s"]) / attrs[i]["reps"]
                  for i in mc_calls]
        out["montecarlo.overhead_us_per_rep"] = (float(np.median(cpu_us) - kernel_ns * 1e-3), "us")
        busy = []
        for i in mc_calls:
            a = attrs[i]
            worker_cpu = a["child_cpu_s"] if a["workers"] > 1 else a["self_cpu_s"]
            busy.append(worker_cpu / (a["workers"] * a["wall_s"]))
        out["montecarlo.worker_busy_share"] = (float(np.median(busy)), "share")

    # A cli.main call followed by the calls it is made of, made directly.
    overhead, pending = [], {}
    for i in sorted(by_name.get("cli.main", []) + by_name.get("cli.equivalent", [])):
        cmd = attrs[i]["cmd"]
        if tr.names[i] == "cli.main":
            pending[cmd] = i
        elif cmd in pending:
            inner = sum(tr.duration_ns(j) for j in kids.get(i, ()))
            overhead.append(tr.duration_ns(pending.pop(cmd)) - inner)
    if overhead:
        out["cli.overhead_us"] = (float(np.median(overhead)) * 1e-3, "us")

    imports = by_name.get("cli.import", ())
    if imports:
        out["cli.import_s"] = (tr.duration_ns(imports[0]) * 1e-9, "s")
    return out
