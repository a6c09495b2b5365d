"""Deterministic stream seeding.

Every random draw in this package flows through a ``SeedSpec``: a master
seed plus a stream index. The pair is reduced to a single 64-bit state by
a SplitMix64-style avalanche mix and that state seeds a fresh PCG64
generator. Properties we rely on:

* reproducible: the same (master_seed, stream_index) always produces the
  same generator state, on every platform, regardless of thread count;
* non-colliding: the mix is a bijection on 64-bit integers, so for a fixed
  master seed distinct stream indices give distinct states;
* cheap: deriving a stream costs a handful of integer operations, so a
  Monte Carlo run can derive one stream per replication.

Never use Python's built-in ``hash()`` here: it is salted per process and
would silently destroy reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import require_int

__all__ = ["SeedSpec", "replication_stream", "splitmix64"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(value: int) -> int:
    """One SplitMix64 avalanche step; a bijection on 64-bit integers."""
    z = (value + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus a stream index identifying one independent stream."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        for name in ("master_seed", "stream_index"):
            object.__setattr__(self, name, require_int(name, getattr(self, name), 0, 1 << 64))

    def state(self) -> int:
        """64-bit generator state derived from (master_seed, stream_index)."""
        return splitmix64(splitmix64(self.master_seed) ^ self.stream_index)

    def generator(self) -> np.random.Generator:
        """Fresh PCG64 generator for this stream."""
        return np.random.Generator(np.random.PCG64(self.state()))


def replication_stream(lambda_index: int, n_index: int, rep_index: int) -> int:
    """Stream index for one Monte Carlo replication.

    The three coordinates are packed into disjoint bit fields and avalanched,
    so distinct (lambda_index, n_index, rep_index) triples always map to
    distinct stream indices: the packing is injective and splitmix64 is a
    bijection.
    """
    lambda_index = require_int("lambda_index", lambda_index, 0, 1 << 20)
    n_index = require_int("n_index", n_index, 0, 1 << 20)
    rep_index = require_int("rep_index", rep_index, 0, 1 << 24)
    packed = (lambda_index << 44) | (n_index << 24) | rep_index
    return splitmix64(packed)
