"""The machine's speed, sampled between rounds, to scale times to a reference speed.

On a shared host the CPU speed a process gets drifts by a third or more
within seconds, in wall clock and CPU time alike, and each CPU drifts on
its own. A calibration pass is a fixed piece of work that does not touch
pflight: a pure-Python loop and small-array numpy calls, the kinds of work
pflight's calls are made of, and for rounds made of array work on long
records also a sort and a cumulative sum of 64k doubles. The benchmark
samples the speed just before and just after every round, on the CPUs
the round's work runs on, and scales the round's times by ``REFERENCE_S`` over the mean of the two
samples: a time reported by the benchmark is the time the round would
take on a machine where one pass takes ``REFERENCE_S``. A change to
pflight moves the round's times and not the pass, so it moves the scaled
times by the same share.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

# A nominal 1 ms; one pass takes 0.6 to 1.1 ms on a 2-vCPU virtual machine
# (Python 3.11, numpy 2.4), depending on how busy its host is.
REFERENCE_S = 1.0e-3
PASSES = 5

_ARRAY = np.random.default_rng(20070314).random(1 << 16)


def _pass(arrays: bool) -> float:
    t0 = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(4000):
        acc += (i * 0.5) % 7.0
        table[i & 63] = acc
    x = np.linspace(0.0, 1.0, 256)
    for _ in range(60):
        x = np.sqrt(x * 1.0001 + 1e-3)
    if arrays:
        np.sort(_ARRAY).cumsum()
    return time.perf_counter() - t0


def _median(arrays: bool) -> float:
    return statistics.median(_pass(arrays) for _ in range(PASSES))


def sample(cpus: set[int] | None = None, arrays: bool = False) -> float:
    """Seconds of one calibration pass now, the median of PASSES passes.

    With ``arrays``, the pass includes the array work, for rounds made of it.

    Without ``cpus``, on the CPU this process runs on, for work done in this
    process. With ``cpus``, the mean over those CPUs of a sample pinned to
    each, for work spread over them by worker processes; the process's
    own CPU set is restored before returning, so workers started later may
    run anywhere in it.
    """
    if not cpus:
        return _median(arrays)
    per_cpu = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            per_cpu.append(_median(arrays))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(per_cpu)


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two samples into reference time."""
    return REFERENCE_S / (0.5 * (before + after))
