"""Tests for deterministic seed derivation."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pflight import (FlightParams, ParameterError, SeedSpec, replication_stream,
                     simulate_trajectory, splitmix64)
from pflight.seeding import _CHUNK, _pcg64_states, _replication_generators


class TestSplitmix64:
    def test_published_vector_seed_zero(self):
        # The reference C implementation seeded with 0 emits these first
        # three outputs.  Our splitmix64(v) is "advance past v and mix",
        # so the stream for seed 0 is splitmix64 applied to successive
        # multiples of the golden-ratio increment.
        gamma = 0x9E3779B97F4A7C15
        assert splitmix64(0) == 0xE220A8397B1DCDAF
        assert splitmix64(gamma) == 0x6E789E6AA1B965F4
        assert splitmix64((2 * gamma) % 2**64) == 0x06C45D188009454F

    def test_output_in_range(self):
        for value in (0, 1, 2**63, 2**64 - 1):
            out = splitmix64(value)
            assert 0 <= out < 2**64

    def test_distinct_over_many_inputs(self):
        outputs = {splitmix64(i) for i in range(10_000)}
        assert len(outputs) == 10_000

    def test_uint64_arrays_match_python_ints(self):
        values = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15]
        assert splitmix64(np.array(values, dtype=np.uint64)).tolist() == [
            splitmix64(v) for v in values]

    def test_wraps_modulo_two_to_the_64(self):
        # The mix masks its input, so it is total on Python ints and
        # periodic with period 2^64.
        assert splitmix64(2**64) == splitmix64(0)
        assert splitmix64(2**64 + 5) == splitmix64(5)


class TestSeedSpec:
    def test_frozen_state_anchor(self):
        # Regression anchor: pins the master-seed to generator-state map.
        assert SeedSpec(20250817, 3).state() == 15215573971680851123

    def test_first_normal_anchor(self):
        gen = SeedSpec(20250817, 0).generator()
        assert gen.standard_normal() == -0.8631095425875077

    def test_streams_are_distinct(self):
        states = {SeedSpec(7, s).state() for s in range(100)}
        assert len(states) == 100

    def test_generators_reproducible(self):
        a = SeedSpec(123, 4).generator().random(8)
        b = SeedSpec(123, 4).generator().random(8)
        assert np.array_equal(a, b)

    def test_different_master_seeds_differ(self):
        a = SeedSpec(1, 0).generator().random(4)
        b = SeedSpec(2, 0).generator().random(4)
        assert not np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ParameterError):
            SeedSpec(-1)
        with pytest.raises(ParameterError):
            SeedSpec(2**64)
        with pytest.raises(ParameterError):
            SeedSpec(0, -1)
        with pytest.raises(ParameterError):
            SeedSpec(1.0)
        with pytest.raises(ParameterError):
            SeedSpec(True)

    def test_numpy_integers_seed_like_python_ints(self):
        # The checked Python ints are what the mix sees; numpy scalars would overflow it.
        spec = SeedSpec(np.int64(20250817), np.uint64(3))
        assert spec.state() == SeedSpec(20250817, 3).state() == 15215573971680851123
        stream = replication_stream(np.int64(1), np.int32(2), np.uint64(3))
        assert stream == replication_stream(1, 2, 3)
        params = FlightParams(rate=1.0, speed=1.0)
        assert np.array_equal(simulate_trajectory(params, 5.0, np.int64(7)).event_times,
                              simulate_trajectory(params, 5.0, 7).event_times)

    def test_bool_seed_rejected(self):
        # True is an int, but not a seed: it must not run seed 1.
        with pytest.raises(ParameterError, match="master_seed"):
            simulate_trajectory(FlightParams(rate=1.0, speed=1.0), 5.0, True)


class TestReplicationStream:
    def test_frozen_anchor(self):
        assert replication_stream(1, 2, 3) == 16536985021147944864

    def test_in_range(self):
        assert 0 <= replication_stream(0, 0, 0) < 2**64
        assert 0 <= replication_stream(2**20 - 1, 2**20 - 1, 2**24 - 1) < 2**64

    def test_distinct_across_axes(self):
        seen = set()
        for li in range(4):
            for ni in range(4):
                for rep in range(50):
                    seen.add(replication_stream(li, ni, rep))
        assert len(seen) == 4 * 4 * 50

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(ParameterError):
            replication_stream(2**20, 0, 0)
        with pytest.raises(ParameterError):
            replication_stream(0, 2**20, 0)
        with pytest.raises(ParameterError):
            replication_stream(0, 0, 2**24)
        with pytest.raises(ParameterError):
            replication_stream(-1, 0, 0)


def _reference(master_seed, lambda_index, n_index, rep):
    return SeedSpec(master_seed, replication_stream(lambda_index, n_index, rep)).generator()


class TestReplicationGenerators:
    """The Monte Carlo kernel's chunked seeding against SeedSpec.generator()."""

    def test_states_equal_pcg64(self):
        seeds = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
        seeds += np.random.default_rng(5).integers(0, 2**64, 3000, dtype=np.uint64).tolist()
        got = list(_pcg64_states(np.array(seeds, dtype=np.uint64)))
        assert len(got) == len(seeds)
        for state, seed in zip(got, seeds):
            assert state == np.random.PCG64(seed).state, seed

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**20 - 1), st.integers(0, 2**20 - 1),
           st.integers(0, 2**24), st.integers(0, _CHUNK + 16))
    @example(2**64 - 1, 2**20 - 1, 2**20 - 1, 2**24 - _CHUNK - 3, _CHUNK + 3)
    @example(0, 0, 0, 0, 0)
    def test_equal_to_seed_spec(self, master_seed, lambda_index, n_index, start, length):
        stop = min(start + length, 2**24)
        count = 0
        gens = _replication_generators(master_seed, lambda_index, n_index, start, stop)
        for rep, gen in zip(range(start, stop), gens):
            ref = _reference(master_seed, lambda_index, n_index, rep)
            assert gen.bit_generator.state == ref.bit_generator.state, rep
            assert gen.standard_exponential(2, method="inv").tolist() == \
                ref.standard_exponential(2, method="inv").tolist()
            assert gen.random() == ref.random()
            count += 1
        assert count == stop - start and next(gens, None) is None

    def test_extremes_raise_no_warning(self):
        # numpy warns when a uint64 scalar overflows, not an array: splitmix64 and the hash
        # wrap on arrays only.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            top = 2**24
            for gen, rep in zip(_replication_generators(2**64 - 1, 2**20 - 1, 2**20 - 1,
                                                        top - 2, top), (top - 2, top - 1)):
                assert gen.random() == _reference(2**64 - 1, 2**20 - 1, 2**20 - 1, rep).random()

    @pytest.mark.parametrize("args", [(-1, 0, 0, 0, 1), (0, 2**20, 0, 0, 1),
                                      (0, 0, 2**20, 0, 1), (0, 0, 0, 0, 2**24 + 1),
                                      (0, 0, 0, 5, 4), (2**64, 0, 0, 0, 1)])
    def test_rejects_out_of_range(self, args):
        with pytest.raises(ParameterError):
            next(_replication_generators(*args))
