"""Deterministic stream seeding.

Every random draw in this package flows through a ``SeedSpec``: a master
seed plus a stream index. The pair is reduced to a single 64-bit state by
a SplitMix64-style avalanche mix and that state seeds a fresh PCG64
generator. Properties we rely on:

* reproducible: the same (master_seed, stream_index) always produces the
  same generator state, on every platform, regardless of thread count;
* non-colliding: the mix is a bijection on 64-bit integers, so for a fixed
  master seed distinct stream indices give distinct states;
* one stream per Monte Carlo replication: ``PCG64(state)`` spends most of
  its time hashing the state through numpy's ``SeedSequence``, so the
  Monte Carlo kernel derives the streams of a chunk of replications as
  uint64 arrays and reproduces that hash over the chunk
  (``_replication_generators``), giving every replication the generator
  state that ``SeedSpec.generator`` gives it.

Never use Python's built-in ``hash()`` here: it is salted per process and
would silently destroy reproducibility.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import require_int

__all__ = ["SeedSpec", "replication_stream", "splitmix64"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(value: int | np.ndarray) -> int | np.ndarray:
    """One SplitMix64 avalanche step; a bijection on 64-bit integers.

    Takes a Python int (masked to 64 bits) or a uint64 array (wrapping mod
    2^64 elementwise, where the masks change nothing).
    """
    z = (value + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _stream_state(master_seed: int, stream_index: int | np.ndarray) -> int | np.ndarray:
    """The 64-bit state of (master_seed, stream_index); stream_index an int or a uint64 array."""
    return splitmix64(splitmix64(master_seed) ^ stream_index)


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
        return _stream_state(self.master_seed, self.stream_index)

    def generator(self) -> np.random.Generator:
        """Fresh PCG64 generator for this stream."""
        return np.random.Generator(np.random.PCG64(self.state()))


def _pack(lambda_index: int, n_index: int, rep_index: int | np.ndarray) -> int | np.ndarray:
    """Disjoint bit fields of 20, 20 and 24 bits; rep_index an int or a uint64 array."""
    return (lambda_index << 44) | (n_index << 24) | rep_index


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
    return splitmix64(_pack(lambda_index, n_index, rep_index))


# numpy's SeedSequence (numpy/random/bit_generator.pyx) with its pool of four 32-bit words:
# the hash multipliers step through fixed sequences, so every constant is known at import.
def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    return np.array([init * mult**k & 0xFFFFFFFF for k in range(count)], dtype=np.uint32)[:, None]


_MIX_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 17)     # mix_entropy: 16 hashmix calls
_STATE_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 9)    # generate_state: 8 output words
_MIX_LEFT, _MIX_RIGHT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
# Replications per state derivation. A derivation costs about 130 us plus 2 us per
# replication, so 8 at a time (a block at n = 1,000) would cost more than PCG64(s).
_CHUNK = 1 << 10


def _hashmix(words: np.ndarray, consts: np.ndarray, first: int, count: int) -> np.ndarray:
    """hashmix over rows of words, the k-th row with the k-th of count constants from first."""
    words = (words ^ consts[first:first + count]) * consts[first + 1:first + count + 1]
    return words ^ (words >> 16)


def _pcg64_states(seeds: np.ndarray) -> Iterator[dict]:
    """``np.random.PCG64(s).state`` for each s of a uint64 array, in order."""
    # SeedSequence(s).generate_state(4, np.uint64), one column per seed. Entropy words are
    # [lo, hi, 0, 0]: the pool pads a seed below 2^32 with zeros as well.
    entropy = np.zeros((4, seeds.size), dtype=np.uint32)
    entropy[0] = seeds & 0xFFFFFFFF
    entropy[1] = seeds >> 32
    pool = _hashmix(entropy, _MIX_HASH, 0, 4)
    # Each source word mixes into the three others; it does not change while it does.
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        mixed = _MIX_LEFT * pool[dst] - _MIX_RIGHT * _hashmix(pool[src], _MIX_HASH, 4 + 3 * src, 3)
        pool[dst] = mixed ^ (mixed >> 16)
    words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _STATE_HASH, 0, 8).astype(np.uint64)
    # Little-endian word pairs, joined arithmetically so that byte order does not matter.
    words = words[0::2] | (words[1::2] << 32)
    for seed_hi, seed_lo, inc_hi, inc_lo in zip(*words.tolist()):
        # PCG64's srandom: inc = 2 * seq + 1; step from 0, add the seed, step again.
        inc = ((inc_hi << 65) | (inc_lo << 1) | 1) & _MASK128
        state = ((inc + ((seed_hi << 64) | seed_lo)) * _PCG_MULT + inc) & _MASK128
        yield {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
               "has_uint32": 0, "uinteger": 0}


def _replication_generators(master_seed: int, lambda_index: int, n_index: int, start: int,
                            stop: int) -> Iterator[np.random.Generator]:
    """The generators of replications [start, stop) of one cell, in replication order.

    Each is in the state that ``SeedSpec(master_seed, replication_stream(lambda_index,
    n_index, rep)).generator()`` returns. They are one reused Generator, reseeded per
    replication: each is valid until the next one is taken. States are derived for
    ``_CHUNK`` replications at a time.
    """
    master_seed = require_int("master_seed", master_seed, 0, 1 << 64)
    lambda_index = require_int("lambda_index", lambda_index, 0, 1 << 20)
    n_index = require_int("n_index", n_index, 0, 1 << 20)
    stop = require_int("stop", stop, 0, (1 << 24) + 1)
    start = require_int("start", start, 0, stop + 1)
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    for first in range(start, stop, _CHUNK):
        reps = np.arange(first, min(first + _CHUNK, stop), dtype=np.uint64)
        for state in _pcg64_states(_stream_state(master_seed, splitmix64(
                _pack(lambda_index, n_index, reps)))):
            bit_generator.state = state
            yield generator
