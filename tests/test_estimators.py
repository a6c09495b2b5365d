"""Tests for the discrete-observation rate estimators."""

import math

import numpy as np
import pytest

import pflight
from pflight import (
    DiscreteSample,
    DomainError,
    FlightParams,
    InconsistentSampleError,
    IncrementSummary,
    NumericalError,
    ParameterError,
    SeedSpec,
    indicator_estimate,
    modified_mle,
    poisson_mle,
    pseudo_likelihood_ratio,
    pseudo_log_likelihood,
    pseudo_mle,
    sample_at_grid,
    score,
    simulate_trajectory,
    summarize_increments,
)

# Four steps of unit duration at unit speed: two full-length strides
# (no turn detected) and two strictly shorter ones (turn detected).
HAND_POSITIONS = np.array(
    [
        [0.0, 0.0],
        [1.0, 0.0],
        [1.3, 0.4],
        [1.3, 1.4],
        [1.9, 1.4],
    ]
)


def hand_summary(epsilon=1e-9):
    params = FlightParams(rate=1.0, speed=1.0)
    sample = DiscreteSample(params, 1.0, HAND_POSITIONS)
    return summarize_increments(sample, epsilon=epsilon)


class TestIncrementSummary:
    def test_hand_case_classification(self):
        summ = hand_summary()
        assert summ.n == 4
        assert summ.n_plus == 2
        assert summ.turned.tolist() == [False, True, False, True]
        # Squared shortfalls u_i = (c*delta)^2 - |step|^2.
        assert summ.u[0] == pytest.approx(0.0, abs=1e-15)
        assert summ.u[1] == pytest.approx(0.75, abs=1e-15)
        assert summ.u[2] == pytest.approx(0.0, abs=1e-15)
        assert summ.u[3] == pytest.approx(0.64, abs=1e-15)

    def test_sum_fields(self):
        summ = hand_summary()
        expected = math.sqrt(0.75) + math.sqrt(0.64)
        assert summ.sum_sqrt_u_turned == pytest.approx(expected, rel=1e-15)

    def test_inconsistent_sample_rejected(self):
        params = FlightParams(rate=1.0, speed=1.0)
        # A step longer than speed * delta is impossible under the model.
        bad = np.array([[0.0, 0.0], [1.1, 0.0]])
        with pytest.raises(ParameterError):
            DiscreteSample(params, 1.0, bad)

    def test_slightly_long_step_tolerated_then_rejected(self):
        summ = hand_summary()
        with pytest.raises(InconsistentSampleError):
            IncrementSummary.from_positions(
                HAND_POSITIONS * np.array([1.0, 1.0]),
                delta=1.0,
                speed=0.9,
                epsilon=1e-9,
            )

    def test_underflowing_tolerance_rejected(self):
        # epsilon * (c * delta)^2 must be a normal double. At c = 2^-540 it is about 2^-1110,
        # below 2^-1022, so a rounding error could read as a turn; at c = 2^-480 it is about
        # 2^-990, and the hand record, scaled by a power of two, keeps its classification.
        with pytest.raises(ParameterError, match="turn tolerance"):
            IncrementSummary.from_positions(HAND_POSITIONS * 2.0**-540, 1.0, 2.0**-540)
        summary = IncrementSummary.from_positions(HAND_POSITIONS * 2.0**-480, 1.0, 2.0**-480)
        assert summary.n_plus == hand_summary().n_plus

    def test_positions_edited_after_construction_are_checked(self):
        # The summary reads the sample's positions as they are now, so a stride
        # stretched to about 50 * c * delta after the step check is still rejected.
        sample = DiscreteSample(FlightParams(rate=1.0, speed=1.0), 1.0, HAND_POSITIONS.copy())
        sample.positions[2:, 0] += 50.0
        with pytest.raises(InconsistentSampleError):
            summarize_increments(sample)

    def test_epsilon_validation(self):
        with pytest.raises(ParameterError):
            hand_summary(epsilon=0.0)
        with pytest.raises(ParameterError):
            hand_summary(epsilon=2e-3)


class TestPseudoMle:
    def test_hand_value(self):
        est = pseudo_mle(hand_summary())
        assert est.kind == "pseudo_mle"
        assert est.value == pytest.approx(0.8569073559082062, rel=1e-15)
        assert est.n == 4
        assert est.delta == 1.0
        assert not est.saturated

    def test_score_vanishes_at_root(self):
        summ = hand_summary()
        est = pseudo_mle(summ)
        assert score(summ, est.value) == pytest.approx(0.0, abs=1e-14)

    def test_score_sign_change(self):
        summ = hand_summary()
        est = pseudo_mle(summ)
        assert score(summ, est.value * 0.5) > 0
        assert score(summ, est.value * 2.0) < 0

    def test_straight_line_gives_zero(self):
        params = FlightParams(rate=1.0, speed=1.0)
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        summ = summarize_increments(DiscreteSample(params, 1.0, pts))
        est = pseudo_mle(summ)
        assert est.value == 0.0
        assert summ.n_plus == 0

    def test_degenerate_denominator_raises(self):
        # All mass in the shortfall sum: n_plus = n and every stride has
        # length 0, so the denominator c*n*delta - sum sqrt(u) vanishes.
        params = FlightParams(rate=1.0, speed=1.0)
        pts = np.zeros((4, 2))
        summ = summarize_increments(DiscreteSample(params, 1.0, pts))
        with pytest.raises(NumericalError) as exc:
            pseudo_mle(summ)
        assert math.isinf(exc.value.estimate)

    def test_rotation_invariance(self):
        params = FlightParams(rate=1.0, speed=1.0)
        theta = 0.7321
        rot = np.array(
            [
                [math.cos(theta), -math.sin(theta)],
                [math.sin(theta), math.cos(theta)],
            ]
        )
        base = summarize_increments(DiscreteSample(params, 1.0, HAND_POSITIONS))
        rotated = summarize_increments(
            DiscreteSample(params, 1.0, HAND_POSITIONS @ rot.T)
        )
        a = pseudo_mle(base).value
        b = pseudo_mle(rotated).value
        assert a == pytest.approx(b, rel=1e-12)

    def test_scale_invariance(self):
        # Scaling positions and speed by the same factor leaves the
        # estimate unchanged: the rate is a property of the clock alone.
        s = 3.7
        params = FlightParams(rate=1.0, speed=1.0 * s)
        scaled = summarize_increments(
            DiscreteSample(params, 1.0, HAND_POSITIONS * s)
        )
        a = pseudo_mle(hand_summary()).value
        b = pseudo_mle(scaled).value
        assert a == pytest.approx(b, rel=1e-12)


class TestModifiedMle:
    def test_hand_value_doubles_pseudo(self):
        # In the hand case n = 2 * n_plus and the turned strides carry the
        # whole shortfall sum, so the modified estimate is exactly twice
        # the pseudo estimate.
        est = modified_mle(hand_summary())
        assert est.kind == "modified_mle"
        assert est.value == pytest.approx(1.7138147118164124, rel=1e-15)
        assert est.value == pytest.approx(
            2.0 * pseudo_mle(hand_summary()).value, rel=1e-14
        )

    def test_condition_warning_on_quiet_strides(self):
        est = modified_mle(hand_summary())
        assert est.condition_warning

    def test_equals_pseudo_when_every_stride_turned(self):
        params = FlightParams(rate=2.0, speed=1.0)
        traj = simulate_trajectory(params, 40.0, SeedSpec(3))
        sample = sample_at_grid(traj, 8)  # delta = 5, turns almost surely
        summ = summarize_increments(sample)
        assert summ.n_plus == summ.n
        a = pseudo_mle(summ)
        b = modified_mle(summ)
        assert a.value == b.value
        assert not b.condition_warning

    def test_straight_line_value(self):
        params = FlightParams(rate=1.0, speed=1.0)
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        summ = summarize_increments(DiscreteSample(params, 1.0, pts))
        est = modified_mle(summ)
        assert est.value == pytest.approx(1.0, rel=1e-15)  # 1 / delta
        assert est.condition_warning


class TestIndicatorEstimate:
    def test_hand_value(self):
        est = indicator_estimate(hand_summary())
        assert est.kind == "indicator"
        assert est.value == pytest.approx(math.log(2.0), rel=1e-15)

    def test_saturated_when_every_stride_turned(self):
        params = FlightParams(rate=2.0, speed=1.0)
        traj = simulate_trajectory(params, 40.0, SeedSpec(3))
        summ = summarize_increments(sample_at_grid(traj, 8))
        assert summ.n_plus == summ.n
        est = indicator_estimate(summ)
        assert math.isinf(est.value)
        assert est.saturated
        assert math.isinf(est.stderr)

    def test_straight_line_gives_zero(self):
        params = FlightParams(rate=1.0, speed=1.0)
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        summ = summarize_increments(DiscreteSample(params, 1.0, pts))
        assert indicator_estimate(summ).value == 0.0

    def test_no_turn_is_positive_zero(self):
        # -log1p(-0/n) is -0.0; the estimate is +0.0, like pseudo_mle's.
        params = FlightParams(rate=1.0, speed=1.0)
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        summ = summarize_increments(DiscreteSample(params, 1.0, pts))
        assert summ.n_plus == 0
        assert math.copysign(1.0, indicator_estimate(summ).value) == 1.0


class TestClassificationMatchesGroundTruth:
    def test_detected_turns_equal_actual_turns(self):
        from pflight import ground_truth_counts

        params = FlightParams(rate=1.0, speed=1.0)
        traj = simulate_trajectory(params, 100.0, SeedSpec(2024))
        n = 100
        sample = sample_at_grid(traj, n)
        summ = summarize_increments(sample)
        counts = ground_truth_counts(traj, n)
        assert np.array_equal(summ.turned, counts > 0)


class TestPseudoLogLikelihood:
    def test_matches_direct_formula(self):
        summ = hand_summary()
        rate = 0.7
        n, delta, c = summ.n, summ.delta, summ.speed
        direct = (
            -rate * n * delta
            - n * math.log(2 * math.pi * c)
            + summ.n_plus * math.log(rate)
            + (rate / c) * summ.sum_sqrt_u_turned
            - 0.5 * sum(math.log(u) for u in summ.u[summ.turned])
        )
        assert pseudo_log_likelihood(summ, rate) == pytest.approx(
            direct, rel=1e-14
        )

    def test_maximized_at_estimate(self):
        summ = hand_summary()
        root = pseudo_mle(summ).value
        at_root = pseudo_log_likelihood(summ, root)
        assert at_root > pseudo_log_likelihood(summ, root * 0.9)
        assert at_root > pseudo_log_likelihood(summ, root * 1.1)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(DomainError):
            pseudo_log_likelihood(hand_summary(), 0.0)


class TestLikelihoodRatio:
    def test_matches_exponentiated_difference(self):
        params = FlightParams(rate=2.0, speed=1.0)
        traj = simulate_trajectory(params, 40.0, SeedSpec(3))
        summ = summarize_increments(sample_at_grid(traj, 8))
        assert summ.n_plus == summ.n  # ratio is exact for all-turned data
        rate, z = 2.0, 0.8
        phi = rate / math.sqrt(summ.n)
        ratio = pseudo_likelihood_ratio(summ, rate, z)
        diff = pseudo_log_likelihood(summ, rate + phi * z) - (
            pseudo_log_likelihood(summ, rate)
        )
        assert ratio == pytest.approx(math.exp(diff), rel=1e-12)

    def test_rejects_shift_past_zero(self):
        summ = hand_summary()
        with pytest.raises(DomainError):
            pseudo_likelihood_ratio(summ, 1.0, -2.1)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_z(self, z):
        with pytest.raises(DomainError):
            pseudo_likelihood_ratio(hand_summary(), 1.0, z)

    def test_log_ratio_mean_matches_local_theory(self):
        # At the true rate the log ratio at shift z is approximately
        # normal with mean -v/2 and variance v, where
        # v = z^2 * rate^2 * I_1 and I_1 is the per-observation Fisher
        # information.  Checking the empirical mean against -v/2 pins the
        # normalization of the z argument.
        rate, delta, n = 3.0, 3.0, 400
        params = FlightParams(rate=rate, speed=1.0)
        horizon = n * delta
        reps = 400
        vals = np.empty(reps)
        for k in range(reps):
            traj = simulate_trajectory(params, horizon, SeedSpec(999, k))
            summ = summarize_increments(sample_at_grid(traj, n))
            vals[k] = math.log(pseudo_likelihood_ratio(summ, rate, 1.0))
        x = rate * delta
        info = (1.0 - math.exp(-x) * (1.0 + x * x)) / rate**2
        expected = -0.5 * rate**2 * info
        assert vals.mean() == pytest.approx(expected, abs=0.08)


class TestPoissonMle:
    def test_uses_ground_truth_count(self):
        params = FlightParams(rate=2.0, speed=1.0)
        traj = simulate_trajectory(params, 30.0, SeedSpec(8))
        est = poisson_mle(traj)
        assert est.kind == "poisson_mle"
        assert est.value == pytest.approx(traj.event_count / 30.0, rel=1e-15)
        assert est.n == 1
        assert est.delta == 30.0
        assert est.stderr == pytest.approx(
            math.sqrt(est.value / 30.0), rel=1e-12
        )


class TestPackageExports:
    # The names the package exported before __all__ was built from its
    # modules' lists; none may go missing.
    EARLIER = (
        "BesselOverflowError DensityValue DiscreteSample DomainError ESTIMATOR_KINDS "
        "EmptyCellError Estimate ExperimentConfig ExperimentOutcome ExperimentSummary "
        "FisherInfo FlightParams InconsistentSampleError IncrementSummary NumericalError "
        "ParameterError QuadratureError ReplicationResult SeedSpec Trajectory bessel_i "
        "bessel_i_scaled bessel_limit_density config_from_json config_to_json "
        "cramer_rao_bound fisher_info ground_truth_counts indicator_estimate modified_mle "
        "moment_closed_form moment_quadrature planar_density_ac poisson_mle position_at "
        "pseudo_likelihood_ratio pseudo_log_likelihood pseudo_mle radial_density_offset "
        "radial_density_origin replication_stream resolve_worker_count run_experiment "
        "run_replication sample_at_grid score simulate_trajectory splitmix64 summarize "
        "summarize_increments vertex_positions"
    ).split()
    REGISTRY = ["ESTIMATORS", "DEFAULT_EPSILON", "check_epsilon", "estimator_name"]

    def test_all_is_the_earlier_names_plus_the_registry(self):
        assert len(self.EARLIER) == 51
        assert len(pflight.__all__) == len(set(pflight.__all__))
        assert sorted(pflight.__all__) == sorted(self.EARLIER + self.REGISTRY)
        for name in pflight.__all__:
            assert getattr(pflight, name) is not None
