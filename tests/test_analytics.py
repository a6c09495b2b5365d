"""Tests for densities, Bessel functions, moments, and information bounds."""

import math

import pytest
from scipy import integrate, special

from pflight import (
    BesselOverflowError,
    DomainError,
    FlightParams,
    ParameterError,
    bessel_i,
    bessel_i_scaled,
    bessel_limit_density,
    cramer_rao_bound,
    fisher_info,
    moment_closed_form,
    moment_quadrature,
    planar_density_ac,
    radial_density_offset,
    radial_density_origin,
)

UNIT = FlightParams(rate=1.0, speed=1.0)


class TestPlanarDensity:
    def test_frozen_value(self):
        # rate = c = t = 1 at (0.6, 0): exp(-0.2) / (1.6 * pi).
        v = planar_density_ac(UNIT, 1.0, (0.6, 0.0))
        assert v == 0.16288130801713852
        assert v == pytest.approx(math.exp(-0.2) / (1.6 * math.pi), rel=1e-15)

    def test_center_value(self):
        assert planar_density_ac(UNIT, 1.0, (0.0, 0.0)) == pytest.approx(
            1.0 / (2.0 * math.pi), rel=1e-15
        )

    def test_rotationally_symmetric(self):
        a = planar_density_ac(UNIT, 2.0, (0.5, 1.1))
        r = math.hypot(0.5, 1.1)
        b = planar_density_ac(UNIT, 2.0, (r, 0.0))
        c = planar_density_ac(UNIT, 2.0, (-r / math.sqrt(2), r / math.sqrt(2)))
        assert a == pytest.approx(b, rel=1e-13)
        assert a == pytest.approx(c, rel=1e-13)

    def test_shifted_origin(self):
        shifted = FlightParams(rate=1.0, speed=1.0, origin=(2.0, -1.0))
        a = planar_density_ac(shifted, 1.0, (2.6, -1.0))
        b = planar_density_ac(UNIT, 1.0, (0.6, 0.0))
        assert a == pytest.approx(b, rel=1e-15)

    def test_boundary_and_outside_rejected(self):
        with pytest.raises(DomainError):
            planar_density_ac(UNIT, 1.0, (1.0, 0.0))
        with pytest.raises(DomainError):
            planar_density_ac(UNIT, 1.0, (1.2, 0.0))

    @pytest.mark.parametrize("point", [(math.nan, 0.0), (0.0, math.nan)])
    def test_nan_point_rejected(self, point):
        with pytest.raises(DomainError, match="non-finite or outside"):
            planar_density_ac(UNIT, 1.0, point)

    def test_time_validation(self):
        with pytest.raises(ParameterError):
            planar_density_ac(UNIT, 0.0, (0.0, 0.0))


class TestRadialDensityOrigin:
    def test_frozen_value(self):
        v = radial_density_origin(UNIT, 1.0, 0.8)
        assert v.ac == 0.8937600613808526
        assert v.ac == pytest.approx(0.8 * math.exp(-0.4) / 0.6, rel=1e-15)
        assert v.singular_weight == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_matches_planar_times_circumference(self):
        for r in (0.1, 0.5, 0.99):
            radial = radial_density_origin(UNIT, 1.0, r).ac
            planar = planar_density_ac(UNIT, 1.0, (r, 0.0))
            assert radial == pytest.approx(2.0 * math.pi * r * planar, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            radial_density_origin(UNIT, 1.0, 0.0)
        with pytest.raises(DomainError):
            radial_density_origin(UNIT, 1.0, 1.0)

    def test_requires_centered_start(self):
        shifted = FlightParams(rate=1.0, speed=1.0, origin=(0.1, 0.0))
        with pytest.raises(ParameterError):
            radial_density_origin(shifted, 1.0, 0.5)

    def test_total_mass_is_one(self):
        # Integral of the a.c. part plus the boundary atom equals 1.
        rate, c, t = 0.7, 1.3, 2.0
        params = FlightParams(rate=rate, speed=c)
        val, err = integrate.quad(
            lambda r: radial_density_origin(params, t, r).ac,
            0.0,
            c * t,
            epsabs=1e-12,
            epsrel=1e-12,
            limit=400,
        )
        total = val + math.exp(-rate * t)
        assert total == pytest.approx(1.0, abs=1e-10)


class TestRadialDensityOffset:
    OFFSET = FlightParams(rate=1.0, speed=1.0, origin=(0.2, 0.1))

    def test_frozen_value(self):
        v = radial_density_offset(self.OFFSET, 1.0, 0.6)
        assert v.ac == pytest.approx(0.6311801789642677, rel=1e-12)

    def test_independent_angular_oracle(self):
        # Integrate the planar density over the circle of radius r with a
        # generic quadrature in the angle; this shares no code with the
        # substitution used by radial_density_offset.
        r = 0.6

        def slice_density(a):
            dx = r * math.cos(a) - 0.2
            dy = r * math.sin(a) - 0.1
            w = 1.0 - (dx * dx + dy * dy)
            return math.exp(math.sqrt(w) - 1.0) / math.sqrt(w) / (2 * math.pi)

        val, err = integrate.quad(
            slice_density, 0.0, 2.0 * math.pi, epsabs=1e-13, epsrel=1e-13,
            limit=500,
        )
        mine = radial_density_offset(self.OFFSET, 1.0, r).ac
        assert mine == pytest.approx(r * val, rel=1e-10)

    def test_reduces_to_origin_form_for_centered_start(self):
        for r in (0.2, 0.7):
            a = radial_density_offset(UNIT, 1.0, r).ac
            b = radial_density_origin(UNIT, 1.0, r).ac
            assert a == b

    def test_zero_radius(self):
        assert radial_density_offset(UNIT, 1.0, 0.0).ac == 0.0
        v = radial_density_offset(self.OFFSET, 1.0, 0.0)
        assert v.ac == 0.0

    def test_tangency_diverges(self):
        params = FlightParams(rate=1.0, speed=1.0, origin=(0.25, 0.0))
        v = radial_density_offset(params, 1.0, 0.75)
        assert math.isinf(v.ac)

    def test_outside_annulus_rejected(self):
        far = FlightParams(rate=1.0, speed=1.0, origin=(5.0, 0.0))
        with pytest.raises(DomainError):
            radial_density_offset(far, 1.0, 3.0)  # inside the hole
        with pytest.raises(DomainError):
            radial_density_offset(far, 1.0, 6.0)  # on the outer boundary
        with pytest.raises(DomainError):
            radial_density_offset(far, 1.0, 7.0)  # beyond reach

    def test_total_mass_is_one(self):
        # Start off-center; integrate over the reachable annulus in two
        # pieces split at the inner tangency radius ct - rho0 where the
        # density has an integrable singularity.
        params = self.OFFSET
        rho0 = math.hypot(0.2, 0.1)
        t = 1.0
        split = 1.0 - rho0

        def f(r):
            return radial_density_offset(params, t, r).ac

        inner, _ = integrate.quad(
            f, 0.0, split, epsabs=1e-12, epsrel=1e-12, limit=400,
            points=[split * 0.999],
        )
        outer, _ = integrate.quad(
            f, split, 1.0 + rho0, epsabs=1e-12, epsrel=1e-12, limit=400,
        )
        total = inner + outer + math.exp(-1.0)
        assert total == pytest.approx(1.0, abs=1e-6)


class TestBesselLimitDensity:
    def test_frozen_value(self):
        v = bessel_limit_density((0.3, 0.0), 1.0, 0.5)
        assert v == 0.42420855444133865

    def test_matches_reference_form(self):
        for rho0, t, r in ((0.0, 1.0, 0.4), (0.3, 0.5, 1.1), (2.0, 2.0, 2.5)):
            mine = bessel_limit_density((rho0, 0.0), t, r)
            ref = (
                (r / t)
                * math.exp(-(r * r + rho0 * rho0) / (2.0 * t))
                * special.iv(0, r * rho0 / t)
            )
            assert mine == pytest.approx(ref, rel=1e-13)

    def test_centered_start_is_rayleigh(self):
        r, t = 0.7, 2.0
        mine = bessel_limit_density((0.0, 0.0), t, r)
        assert mine == pytest.approx((r / t) * math.exp(-r * r / (2 * t)), rel=1e-14)

    def test_large_argument_no_overflow(self):
        # rho0 * r / t huge: the scaled evaluation must stay finite.
        v = bessel_limit_density((1000.0, 0.0), 1.0, 1000.5)
        assert math.isfinite(v)
        assert v > 0.0

    def test_total_mass_is_one(self):
        rho0, t = 0.8, 1.5
        val, err = integrate.quad(
            lambda r: bessel_limit_density((rho0, 0.0), t, r),
            0.0,
            rho0 + 40.0 * math.sqrt(t),
            epsabs=1e-12,
            epsrel=1e-12,
            limit=400,
        )
        assert val == pytest.approx(1.0, abs=1e-9)


class TestBesselI:
    ORDERS = (0.0, 0.5, 1.0, 1.5, 2.0, 5.0)
    ARGS = (1e-12, 0.5, 1.0, 5.0, 29.9, 30.1, 50.0, 200.0, 699.0)

    def test_scaled_matches_scipy_grid(self):
        for nu in self.ORDERS:
            for x in self.ARGS:
                mine = bessel_i_scaled(nu, x)
                ref = special.ive(nu, x)
                assert mine == pytest.approx(ref, rel=1e-12), (nu, x)

    def test_unscaled_matches_scipy_moderate(self):
        for nu in self.ORDERS:
            for x in (0.5, 1.0, 5.0, 20.0, 100.0):
                assert bessel_i(nu, x) == pytest.approx(
                    special.iv(nu, x), rel=1e-12
                ), (nu, x)

    def test_half_order_closed_form(self):
        # I_{3/2}(x) = sqrt(2/(pi x)) * (cosh x - sinh x / x).
        for x in (0.5, 2.0, 10.0):
            ref = math.sqrt(2.0 / (math.pi * x)) * (
                math.cosh(x) - math.sinh(x) / x
            )
            assert bessel_i(1.5, x) == pytest.approx(ref, rel=1e-12)

    def test_tail_is_scipy_ive(self):
        for nu in self.ORDERS:
            for x in (30.0 + 1e-9, 30.1, 50.0, 200.0, 699.0, 701.0, 1e4):
                assert bessel_i_scaled(nu, x) == special.ive(nu, x), (nu, x)

    def test_series_asymptotic_crossover_continuous(self):
        for nu in (0.0, 1.5, 5.0):
            lo = bessel_i_scaled(nu, 30.0 - 1e-9)
            hi = bessel_i_scaled(nu, 30.0 + 1e-9)
            assert lo == pytest.approx(hi, rel=1e-9)

    def test_zero_argument(self):
        assert bessel_i(0.0, 0.0) == 1.0
        assert bessel_i(1.0, 0.0) == 0.0

    def test_overflow_guard(self):
        with pytest.raises(BesselOverflowError) as exc:
            bessel_i(0.0, 701.0)
        assert exc.value.scaled_value == pytest.approx(
            special.ive(0, 701.0), rel=1e-12
        )

    def test_order_validation(self):
        with pytest.raises(ParameterError):
            bessel_i(0.3, 1.0)
        with pytest.raises(ParameterError):
            bessel_i(-1.0, 1.0)


class TestMoments:
    def test_closed_form_frozen_values(self):
        assert moment_closed_form(UNIT, 1.0, 1) == 0.7363910575013983
        assert moment_closed_form(UNIT, 1.0, 2) == 0.6077549851075652
        assert moment_closed_form(UNIT, 1.0, 3) == 0.5449077960027984

    def test_quadrature_frozen_values(self):
        assert moment_quadrature(UNIT, 1.0, 1) == pytest.approx(
            0.8255032564774676, rel=1e-12
        )
        assert moment_quadrature(UNIT, 1.0, 2) == pytest.approx(
            0.7357588823428847, rel=1e-12
        )
        assert moment_quadrature(UNIT, 1.0, 3) == pytest.approx(
            0.6803687629829926, rel=1e-12
        )

    def test_zeroth_moment_is_total_mass(self):
        assert moment_quadrature(UNIT, 1.0, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_second_moment_against_exact_formula(self):
        # E|X_t|^2 = 2 c^2 (rate*t - 1 + exp(-rate*t)) / rate^2 follows
        # from the covariance structure of the direction process and does
        # not touch the density at all.
        for rate in (0.5, 1.0, 2.0):
            for c in (0.5, 1.0, 2.0):
                for t in (0.5, 1.0, 2.0):
                    params = FlightParams(rate=rate, speed=c)
                    x = rate * t
                    exact = 2.0 * c * c * (x - 1.0 + math.exp(-x)) / rate**2
                    quad = moment_quadrature(params, t, 2)
                    assert quad == pytest.approx(exact, rel=1e-9), (rate, c, t)

    def test_closed_form_disagrees_with_quadrature(self):
        # The closed form is kept for comparison but is wrong for every
        # order checked; see its docstring.  This pins the discrepancy so
        # a silent "fix" of either routine trips a test.
        for p in (1, 2, 3):
            closed = moment_closed_form(UNIT, 1.0, p)
            quad = moment_quadrature(UNIT, 1.0, p)
            assert abs(closed - quad) > 0.05

    def test_fractional_order_between_neighbors(self):
        # At c = t = 1 the distance is bounded by 1, so moments decrease
        # in the order.
        q1 = moment_quadrature(UNIT, 1.0, 1.0)
        q15 = moment_quadrature(UNIT, 1.0, 1.5)
        q2 = moment_quadrature(UNIT, 1.0, 2.0)
        assert q2 < q15 < q1

    def test_validation(self):
        with pytest.raises(ParameterError):
            moment_closed_form(UNIT, 1.0, 0)
        with pytest.raises(ParameterError):
            moment_closed_form(UNIT, 1.0, 1.5)
        with pytest.raises(ParameterError):
            moment_quadrature(UNIT, 1.0, -0.5)


class TestFisherInfo:
    def test_frozen_value(self):
        fi = fisher_info(1.0, 1.0, 5)
        assert fi.per_observation == pytest.approx(1.0 - 2.0 / math.e, rel=1e-14)
        assert fi.idealized_per_observation == pytest.approx(1.0, rel=1e-14)
        assert fi.total == pytest.approx(5.0 * fi.per_observation, rel=1e-14)
        assert fi.n == 5

    def test_closed_form_shape(self):
        for rate in (0.5, 1.0, 2.0):
            for delta in (0.5, 1.0, 2.0):
                fi = fisher_info(rate, delta, 1)
                x = rate * delta
                expected = (1.0 - math.exp(-x) * (1.0 + x * x)) / rate**2
                assert fi.per_observation == pytest.approx(expected, rel=1e-12)
                # Discreteness can only lose information: the idealized
                # per-observation value 1 / rate^2 is an upper bound.
                assert 0.0 < fi.per_observation < 1.0 / rate**2
                assert fi.idealized_per_observation == pytest.approx(
                    1.0 / rate**2, rel=1e-14
                )

    def test_small_delta_expansion(self):
        rate, delta = 1.0, 1e-6
        fi = fisher_info(rate, delta, 1)
        expansion = delta / rate - 1.5 * delta**2
        assert fi.per_observation == pytest.approx(expansion, rel=1e-6)

    def test_tiny_delta_no_cancellation(self):
        fi = fisher_info(1.0, 1e-12, 1)
        assert fi.per_observation == pytest.approx(1e-12, rel=1e-6)

    def test_full_adds_the_no_turn_atom(self):
        # The full one-step information is the continuous part's plus the
        # atom's score term delta^2 exp(-rate delta).
        for rate in (0.1, 0.5, 1.0, 2.0, 7.0):
            for delta in (1e-6, 1e-3, 0.1, 0.5, 1.0, 2.0, 10.0):
                fi = fisher_info(rate, delta, 3)
                atom = delta**2 * math.exp(-rate * delta)
                assert fi.full_per_observation == pytest.approx(
                    fi.per_observation + atom, rel=1e-13), (rate, delta)
                assert fi.full_per_observation == -math.expm1(-rate * delta) / (rate * rate)

    def test_validation(self):
        with pytest.raises(ParameterError):
            fisher_info(0.0, 1.0, 1)
        with pytest.raises(ParameterError):
            fisher_info(1.0, 0.0, 1)
        with pytest.raises(ParameterError):
            fisher_info(1.0, 1.0, 0)


class TestCramerRaoBound:
    def test_unbiased_case(self):
        assert cramer_rao_bound(2.0, 50) == pytest.approx(4.0 / 50, rel=1e-14)

    def test_fully_biased_case(self):
        # Bias b(rate) = -rate makes the estimator the constant 0; the
        # bound collapses to the squared bias rate^2.
        val = cramer_rao_bound(
            2.0, 50, bias_fn=lambda r: -r, bias_derivative=lambda r: -1.0
        )
        assert val == pytest.approx(4.0, rel=1e-12)

    def test_finite_difference_matches_exact_derivative(self):
        bias = lambda r: 0.1 * r * r
        exact = cramer_rao_bound(
            1.5, 100, bias_fn=bias, bias_derivative=lambda r: 0.2 * r
        )
        fd = cramer_rao_bound(1.5, 100, bias_fn=bias)
        assert fd == pytest.approx(exact, rel=1e-7)

    def test_derivative_without_bias_rejected(self):
        with pytest.raises(ParameterError):
            cramer_rao_bound(1.0, 10, bias_derivative=lambda r: 0.0)
