"""Exact distribution analytics for the planar random flight.

At time t the position distribution has two parts:

* a singular part: with probability exp(-rate * t) no direction change
  happened and the mover sits on the circle of radius c * t around its
  start, uniformly in angle;
* an absolutely continuous part supported on the open disc of radius c * t,
  with planar density

      (rate / (2 pi c)) * exp(-rate * t + (rate / c) * sqrt(w)) / sqrt(w),
      w = (c t)^2 - (x - x0)^2 - (y - y0)^2.

Radial reductions of that density, its moments, the per-step Fisher
information of the discretely observed rate, and the diffusive
(Bessel-form) scaling limit all live here.

All exponentials are evaluated with the exp(-rate * t) factor folded into
the exponent, so the formulas stay finite deep into the diffusive regime
(rate and c both large) where the separate factors over- and underflow.

Quadrature uses an adaptive Gauss-Kronrod scheme (QUADPACK via scipy) with
absolute tolerance 1e-9 and up to 10^4 subdivisions; a failed integration
raises ``QuadratureError`` carrying the best estimate reached. The
modified Bessel function I_nu is summed from its ascending series up to
x = 30 and taken from ``scipy.special.ive`` above.

scipy is imported on the first call that needs it, not with this module:
the estimators and the Monte Carlo study need only numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import (
    BesselOverflowError,
    DomainError,
    ParameterError,
    QuadratureError,
    require_int,
    require_nonnegative,
    require_positive,
)
from .simulate import FlightParams

__all__ = [
    "DensityValue",
    "FisherInfo",
    "planar_density_ac",
    "radial_density_origin",
    "radial_density_offset",
    "bessel_limit_density",
    "bessel_i",
    "bessel_i_scaled",
    "moment_closed_form",
    "moment_quadrature",
    "fisher_info",
    "cramer_rao_bound",
]

_QUAD_EPSABS = 1e-9
_QUAD_EPSREL = 1e-10
_QUAD_LIMIT = 10_000

# Crossover between the ascending series and scipy's exponentially scaled
# I_nu (special.ive). The series gives the pinned moment_closed_form values
# bit for bit, where ive is 3 ulp off at x = 1. A test covers continuity.
_BESSEL_SWITCH = 30.0
# Above this argument exp(x) * I_nu(x) is not representable in a double.
_BESSEL_OVERFLOW = 700.0


# Each stand-in rebinds its own name to scipy's function on its first call:
# scipy loads only when needed, and later calls pay no per-call import.

def _scipy_quad(*args, **kwargs):
    global _scipy_quad
    from scipy.integrate import quad as _scipy_quad
    return _scipy_quad(*args, **kwargs)


def _scipy_ive(nu, x):
    global _scipy_ive
    from scipy.special import ive as _scipy_ive
    return _scipy_ive(nu, x)


def _quad(func: Callable[[float], float], a: float, b: float) -> float:
    out = _scipy_quad(func, a, b, epsabs=_QUAD_EPSABS, epsrel=_QUAD_EPSREL,
                      limit=_QUAD_LIMIT, full_output=1)
    value, abserr = out[0], out[1]
    if len(out) > 3:
        raise QuadratureError(
            f"quadrature on [{a:g}, {b:g}] did not converge: {out[3]}",
            estimate=value, error_bound=abserr)
    return value


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityValue:
    """Absolutely continuous density value plus the boundary atom's weight."""

    ac: float
    singular_weight: float


def planar_density_ac(params: FlightParams, t: float, point: tuple[float, float]) -> float:
    """Planar density of the absolutely continuous part at ``point``.

    Defined on the open disc of radius c * t around the origin; the circle
    itself carries the atom exp(-rate * t) and is outside this domain.
    """
    t = require_positive("t", t)
    rate, c = params.rate, params.speed
    x, y = float(point[0]), float(point[1])
    dx = x - params.origin[0]
    dy = y - params.origin[1]
    ct = c * t
    w = (ct - dx) * (ct + dx) - dy * dy if abs(dx) >= abs(dy) else (ct - dy) * (ct + dy) - dx * dx
    if not w > 0.0:
        raise DomainError(
            f"point at squared distance {dx * dx + dy * dy:.17g} from the origin is "
            f"non-finite or outside the open disc of radius {ct:.17g}")
    root = math.sqrt(w)
    return rate / (2.0 * math.pi * c) * math.exp((rate / c) * root - rate * t) / root


def radial_density_origin(params: FlightParams, t: float, r: float) -> DensityValue:
    """Density of the distance from the start, for a flight started at (0, 0)."""
    if params.origin != (0.0, 0.0):
        raise ParameterError(
            f"radial_density_origin requires origin (0, 0), got {params.origin}; "
            "use radial_density_offset for shifted starts")
    t = require_positive("t", t)
    rate, c = params.rate, params.speed
    r = float(r)
    ct = c * t
    if not 0.0 < r < ct:
        raise DomainError(f"r must lie in (0, {ct:.17g}), got {r}")
    root = math.sqrt((ct - r) * (ct + r))
    kappa = rate / c
    return DensityValue(ac=kappa * r * math.exp(kappa * root - rate * t) / root,
                        singular_weight=math.exp(-rate * t))


def radial_density_offset(params: FlightParams, t: float, r: float) -> DensityValue:
    """Density of the distance from the coordinate origin, start at ``params.origin``.

    Obtained by integrating the planar density over the circle of radius r:
    with rho0 = |origin| and

        A(psi) = (c t)^2 - r^2 - rho0^2 + 2 r rho0 cos(psi),

    the density is (rate / (2 pi c)) * r * integral over {A > 0} of
    exp((rate / c) sqrt(A) - rate t) / sqrt(A). The integrand has an
    inverse-square-root zero where A vanishes; substituting
    psi = psi_end - w^2 removes it, and A is evaluated through product
    trigonometric identities so it stays exactly nonnegative. At
    r = c t - rho0 the integral itself diverges (logarithmically in r)
    and the returned value is +inf. A start at the origin gives
    ``radial_density_origin``'s values for r > 0 and ac = 0 at r = 0.
    """
    t = require_positive("t", t)
    rate, c = params.rate, params.speed
    r = require_nonnegative("r", r, DomainError)
    ct = c * t
    rho0 = math.hypot(*params.origin)
    kappa = rate / c
    lt = rate * t
    sw = math.exp(-lt)

    if rho0 == 0.0:
        return (radial_density_origin(params, t, r) if r > 0.0
                else DensityValue(ac=0.0, singular_weight=sw))

    a_max = (ct - r + rho0) * (ct + r - rho0)   # A at psi = 0
    if a_max <= 0.0:
        raise DomainError(
            f"r = {r} is outside the reachable annulus "
            f"({max(0.0, rho0 - ct):.17g}, {rho0 + ct:.17g})")
    a_min = (ct - r - rho0) * (ct + r + rho0)   # A at psi = pi
    four_rr = 4.0 * r * rho0

    if a_min == 0.0:
        # Observation circle internally tangent to the support boundary:
        # the angular integral diverges logarithmically.
        return DensityValue(ac=math.inf, singular_weight=sw)

    if a_min > 0.0:
        # A > 0 on the whole circle; substitute psi = pi - w^2.
        w_max = math.sqrt(math.pi)

        def a_of(w: float) -> float:
            s = math.sin(0.5 * w * w)
            return a_min + four_rr * s * s
    else:
        # A changes sign at psi_end; integrate psi in [0, psi_end) via
        # psi = psi_end - w^2; A = 4 r rho0 sin(psi_end - w^2/2) sin(w^2/2).
        cos_end = (r * r + rho0 * rho0 - ct * ct) / (2.0 * r * rho0)
        psi_end = math.acos(max(-1.0, min(1.0, cos_end)))
        w_max = math.sqrt(psi_end)

        def a_of(w: float) -> float:
            half = 0.5 * w * w
            return four_rr * math.sin(psi_end - half) * math.sin(half)

    def integrand(w: float) -> float:
        a = a_of(w)
        if a <= 0.0:
            return 0.0
        root = math.sqrt(a)
        return 2.0 * w * math.exp(kappa * root - lt) / root

    half_integral = _quad(integrand, 0.0, w_max)
    ac = (rate / (2.0 * math.pi * c)) * r * 2.0 * half_integral
    return DensityValue(ac=ac, singular_weight=sw)


def bessel_limit_density(origin: tuple[float, float], t: float, r: float) -> float:
    """Radial density of the diffusive limit (rate, c -> inf with c^2/rate -> 1).

    The limit of the flight's radial law is the Bessel-form density

        (r / t) * exp(-(r^2 + rho0^2) / (2 t)) * I_0(r * rho0 / t),

    evaluated here in exponentially scaled form so large arguments do not
    overflow.
    """
    t = require_positive("t", t)
    r = require_nonnegative("r", r, DomainError)
    rho0 = math.hypot(float(origin[0]), float(origin[1]))
    diff = r - rho0
    return (r / t) * math.exp(-diff * diff / (2.0 * t)) * bessel_i_scaled(0.0, r * rho0 / t)


# ---------------------------------------------------------------------------
# modified Bessel functions of the first kind
# ---------------------------------------------------------------------------

def _check_bessel_order(nu: float) -> float:
    nu = require_nonnegative("order", nu)
    if abs(2.0 * nu - round(2.0 * nu)) > 1e-12:
        raise ParameterError(
            f"only integer and half-integer orders are supported, got {nu}")
    return nu


def _bessel_series(nu: float, x: float) -> float:
    """Ascending series sum_m (x/2)^(2m+nu) / (m! Gamma(m+nu+1)); x <= 30."""
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    half = 0.5 * x
    term = math.exp(nu * math.log(half) - math.lgamma(nu + 1.0))
    total = term
    q = half * half
    for m in range(1, 500):
        term *= q / (m * (m + nu))
        total += term
        if term <= 1e-17 * total:
            return total
    raise QuadratureError(f"Bessel series did not converge for nu={nu}, x={x}",
                          estimate=total)


def bessel_i(nu: float, x: float) -> float:
    """Modified Bessel function of the first kind, I_nu(x).

    Ascending series for x <= 30, scipy's ``ive`` times exp(x) above,
    through x = 700. Beyond that exp(x) overflows a double and
    ``BesselOverflowError`` carries exp(-x) * I_nu(x) instead.
    """
    nu = _check_bessel_order(nu)
    x = require_nonnegative("x", x)
    if x <= _BESSEL_SWITCH:
        return _bessel_series(nu, x)
    scaled = float(_scipy_ive(nu, x))
    if x > _BESSEL_OVERFLOW:
        raise BesselOverflowError(
            f"I_{nu}({x:g}) overflows double precision; "
            f"exp(-x) * I_nu(x) = {scaled:.17g}", scaled_value=scaled)
    return scaled * math.exp(x)


def bessel_i_scaled(nu: float, x: float) -> float:
    """exp(-x) * I_nu(x), finite for all x >= 0."""
    nu = _check_bessel_order(nu)
    x = require_nonnegative("x", x)
    if x <= _BESSEL_SWITCH:
        return _bessel_series(nu, x) * math.exp(-x)
    return float(_scipy_ive(nu, x))


# ---------------------------------------------------------------------------
# radial moments
# ---------------------------------------------------------------------------

def _check_moment_params(params: FlightParams) -> None:
    if params.origin != (0.0, 0.0):
        raise ParameterError("radial moments are defined for a start at (0, 0)")


def moment_closed_form(params: FlightParams, t: float, p: int) -> float:
    """Bessel-form closed expression for E[R(t)^p].

    (c t)^p * exp(-rate t) * { sqrt(pi) * (2 / (rate t))^((p-1)/2)
                               * Gamma((p+1)/2) * I_((p+1)/2)(rate t) + 1 }.

    Warning: for every order checked (p = 1, 2, 3) this expression
    disagrees with direct integration of the radial density (see
    ``moment_quadrature``, which simulation confirms; at rate = c = t = 1,
    p = 2 it gives 0.6078 where the true value is 2/e = 0.7358). It is
    kept, clearly labeled, for comparison purposes; do not use it when
    the actual moment is needed.
    """
    _check_moment_params(params)
    t = require_positive("t", t)
    p = require_int("p", p)
    rate, c = params.rate, params.speed
    lt = rate * t
    ct = c * t
    nu = 0.5 * (p + 1)
    bracket = (math.sqrt(math.pi) * (2.0 / lt) ** (0.5 * (p - 1))
               * math.gamma(nu) * bessel_i_scaled(nu, lt))
    return ct ** p * (bracket + math.exp(-lt))


def moment_quadrature(params: FlightParams, t: float, p: float) -> float:
    """E[R(t)^p] by quadrature of the radial density plus the boundary atom.

    In the substituted variable z = sqrt((c t)^2 - r^2) the absolutely
    continuous part becomes

        (rate / c) * integral_0^{c t} ((c t)^2 - z^2)^(p/2)
                                      * exp((rate / c) z - rate t) dz,

    whose integrand is smooth, and the atom adds (c t)^p * exp(-rate t).
    Validated against simulated moments; this is the trusted route.
    """
    _check_moment_params(params)
    t = require_positive("t", t)
    p = require_nonnegative("p", p)
    rate, c = params.rate, params.speed
    ct = c * t
    kappa = rate / c
    lt = rate * t
    half_p = 0.5 * p

    def integrand(z: float) -> float:
        w = (ct - z) * (ct + z)
        if w <= 0.0:
            return 0.0
        return w ** half_p * math.exp(kappa * z - lt)

    ac_part = (rate / c) * _quad(integrand, 0.0, ct)
    return ac_part + ct ** p * math.exp(-lt)


# ---------------------------------------------------------------------------
# Fisher information and the Cramer-Rao bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FisherInfo:
    """Per-step and total Fisher information for the discretized flight."""

    per_observation: float
    idealized_per_observation: float
    n: int
    total: float
    full_per_observation: float


def fisher_info(rate: float, delta: float, n: int) -> FisherInfo:
    """Per-step information of the one-step law's continuous part, and its n-step total.

    per_observation = (1 - exp(-rate delta) (1 + rate^2 delta^2)) / rate^2
    is the information of the absolutely continuous part (turned strides)
    only. It leaves out the no-turn atom's term delta^2 exp(-rate delta);
    full_per_observation = -expm1(-rate delta) / rate^2 is the full
    one-step information, atom included. per_observation is computed via
    expm1 so the small-delta regime (where it behaves like
    delta / rate - 1.5 delta^2) does not lose precision. The idealized
    value 1 / rate^2 is the large-delta limit used in the asymptotics;
    total is n * per_observation.
    """
    rate = require_positive("rate", rate)
    delta = require_positive("delta", delta)
    n = require_int("n", n)
    x = rate * delta
    full = -math.expm1(-x) / (rate * rate)
    per = (-math.expm1(-x) - x * x * math.exp(-x)) / (rate * rate)
    return FisherInfo(per_observation=per,
                      idealized_per_observation=1.0 / (rate * rate),
                      n=n,
                      total=n * per,
                      full_per_observation=full)


def cramer_rao_bound(rate: float, n: int,
                     bias_fn: Callable[[float], float] | None = None,
                     bias_derivative: Callable[[float], float] | None = None) -> float:
    """Lower bound on the MSE of an estimator with bias b(rate).

    (1 + b'(rate))^2 / I_n + b(rate)^2 with the idealized total information
    I_n = n / rate^2. Unbiased case: rate^2 / n. If ``bias_fn`` is given
    without ``bias_derivative``, the derivative is taken by central finite
    differences with step 1e-5 * rate.
    """
    rate = require_positive("rate", rate)
    n = require_int("n", n)
    if bias_fn is None:
        if bias_derivative is not None:
            raise ParameterError("bias_derivative given without bias_fn")
        return rate * rate / n
    b = float(bias_fn(rate))
    if bias_derivative is not None:
        db = float(bias_derivative(rate))
    else:
        h = 1e-5 * rate
        db = (float(bias_fn(rate + h)) - float(bias_fn(rate - h))) / (2.0 * h)
    return (1.0 + db) ** 2 * rate * rate / n + b * b
