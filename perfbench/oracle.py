"""Reference values the benchmark computes apart from pflight.

Nothing here imports pflight: every expected value a correctness check
compares against comes from the closed-form laws below, numpy and scipy.

One stride of a flight observed every ``delta`` time units either keeps
its heading (probability exp(-rate*delta), displacement c*delta) or turns.
On a turned stride the displacement r has the closed-form radial density

    (rate/c) * r * exp((rate/c) * z - rate*delta) / z,   z = sqrt((c delta)^2 - r^2),

and the substitution r -> z turns it into (rate/c) * exp((rate/c) z - rate delta) dz
on (0, c delta), which is smooth; the quadratures below integrate in z.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, stats

_EPSABS = 1e-14
_EPSREL = 1e-12


def _turned_expectation(g, rate: float, delta: float, speed: float = 1.0) -> float:
    """E[g(z) ; stride turned], z = sqrt((c delta)^2 - r^2), by quadrature."""
    kappa = rate / speed

    def integrand(z: float) -> float:
        return g(z) * kappa * math.exp(kappa * z - rate * delta)

    value, _ = integrate.quad(integrand, 0.0, speed * delta,
                              epsabs=_EPSABS, epsrel=_EPSREL, limit=400)
    return value


def hat_bias(rate: float, delta: float, n: int, speed: float = 1.0) -> float:
    """Second-order delta-method bias of pseudo_mle = n_plus / sum(D_i).

    D_i = delta - sqrt(u_i)/c is delta on a full stride and delta - z/c on a
    turned one; strides are i.i.d., so the ratio-estimator expansion needs
    only the moments of one stride.
    """
    atom = math.exp(-rate * delta)
    mean_x = _turned_expectation(lambda z: 1.0, rate, delta, speed)
    mean_xy = _turned_expectation(lambda z: delta - z / speed, rate, delta, speed)
    mean_y2_turned = _turned_expectation(lambda z: (delta - z / speed) ** 2, rate, delta, speed)
    mean_y = mean_xy + delta * atom
    var_y = mean_y2_turned + delta * delta * atom - mean_y * mean_y
    cov_xy = mean_xy - mean_x * mean_y
    return (mean_x * var_y / mean_y ** 3 - cov_xy / mean_y ** 2) / n


def stride_information(rate: float, delta: float, speed: float = 1.0) -> float:
    """Fisher information about the rate in one stride, from the full law.

    The score is -delta on a full stride (the atom exp(-rate*delta)) and
    1/rate - delta + z/c on a turned one.
    """
    atom_term = delta * delta * math.exp(-rate * delta)
    turned = _turned_expectation(lambda z: (1.0 / rate - delta + z / speed) ** 2,
                                 rate, delta, speed)
    return atom_term + turned


def saturation_probability(rate: float, delta: float, n: int) -> float:
    """Probability that every one of n strides turns: (1 - exp(-rate*delta))^n."""
    return math.exp(n * math.log1p(-math.exp(-rate * delta)))


def binomial_interval(trials: int, p: float, alpha: float = 6.3e-5) -> tuple[int, int]:
    """Central interval holding a Binomial(trials, p) count with prob >= 1 - alpha.

    alpha = 6.3e-5 is the two-sided tail of a 4-sigma normal band.
    """
    lo = int(stats.binom.ppf(alpha / 2.0, trials, p))
    hi = int(stats.binom.isf(alpha / 2.0, trials, p))
    return lo, hi


def t_limit(dof: int, alpha: float = 6.3e-5) -> float:
    """How many sample standard errors a normal sample mean strays from its expectation
    with probability alpha (two-sided Student t with ``dof`` degrees of freedom)."""
    return float(stats.t.isf(alpha / 2.0, dof))


def chi2_interval(dof: int, alpha: float = 6.3e-5) -> tuple[float, float]:
    """Central interval of a unit-variance sample variance with ``dof`` degrees of freedom."""
    return (float(stats.chi2.ppf(alpha / 2.0, dof)) / dof,
            float(stats.chi2.isf(alpha / 2.0, dof)) / dof)


def increment_statistics(positions: np.ndarray, delta: float, speed: float,
                         epsilon: float = 1e-9) -> tuple[int, float]:
    """(n_plus, S): the turned-stride count and sum of sqrt(slack) over turned strides."""
    positions = np.asarray(positions, dtype=np.float64)
    stride_sq = (speed * delta) ** 2
    step = positions[1:] - positions[:-1]
    slack = stride_sq - (step[:, 0] ** 2 + step[:, 1] ** 2)
    turned = slack > epsilon * stride_sq
    return int(turned.sum()), float(np.sqrt(slack[turned]).sum())


def closed_form_estimates(n_plus: int, s: float, n: int, delta: float,
                          speed: float) -> dict[str, float]:
    """The three estimators as formulas in (n_plus, S); +inf when every stride turned."""
    denom = speed * n * delta - s
    dot = math.inf if n_plus == n else -math.log1p(-n_plus / n) / delta
    return {"pseudo_mle": speed * n_plus / denom,
            "modified_mle": speed * n / denom,
            "indicator": dot}


def second_moment(rate: float, speed: float, t: float) -> float:
    """E[R(t)^2] = 2 c^2 / rate^2 * (rate t - 1 + exp(-rate t))."""
    lt = rate * t
    return 2.0 * speed * speed / (rate * rate) * (lt - 1.0 + math.exp(-lt))


def relative_error(got: float, want: float) -> float:
    if got == want:
        return 0.0
    return abs(got - want) / max(abs(want), 1e-300)


# ---------------------------------------------------------------------------
# quadrature rules for integrating density tables
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


def _gauss_pieces(breaks) -> tuple[np.ndarray, np.ndarray]:
    """Composite 12-point Gauss-Legendre rule over consecutive breakpoints."""
    xs, ws = [], []
    pts = sorted(set(float(b) for b in breaks))
    for a, b in zip(pts[:-1], pts[1:]):
        half = 0.5 * (b - a)
        xs.append(a + half * (_GL_NODES + 1.0))
        ws.append(half * _GL_WEIGHTS)
    return np.concatenate(xs), np.concatenate(ws)


def _graded(a: float, b: float, toward: float, levels: int = 8) -> list[float]:
    """Breakpoints on [a, b] shrinking geometrically (ratio 1/4) toward an endpoint."""
    out = [a, b]
    far = b if toward == a else a
    for k in range(1, levels + 1):
        out.append(toward + (far - toward) * 0.25 ** k)
    return out


def origin_table_rule(rate: float, speed: float, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes r and weights w with sum(w * ac(r)) ~ integral of the radial density.

    Built in z = sqrt((c t)^2 - r^2), where the density is smooth but
    concentrated within a few c/rate of z = c t; dr = (z / r) dz is folded
    into the weights.
    """
    ct = speed * t
    scale = speed / rate
    breaks = [0.0, ct] + [ct - scale * k for k in (0.5, 1, 2, 4, 8, 16, 32, 64) if scale * k < ct]
    z, w = _gauss_pieces(breaks)
    r = np.sqrt((ct - z) * (ct + z))
    return r, w * z / r


def offset_table_rule(rate: float, speed: float, t: float,
                      rho0: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes r and weights for the radial density of a start at distance rho0.

    The support is (|rho0 - c t|, rho0 + c t) (from 0 when rho0 < c t); at
    r = c t - rho0 the density has a logarithmic singularity and at the
    support's ends a square-root one, each approached by geometrically
    graded pieces. Extra breakpoints every root-mean-square
    displacement around rho0 resolve the diffusive regime, where the mass
    sits within a few of them of the start.
    """
    ct = speed * t
    lo, hi = abs(rho0 - ct), rho0 + ct
    if rho0 < ct:
        lo = 0.0
    spread = math.sqrt(second_moment(rate, speed, t))
    breaks = [lo, hi]
    for k in (0.25, 0.5, 1, 1.5, 2, 3, 4, 6, 8, 12, 16, 32):
        for b in (rho0 - k * spread, rho0 + k * spread):
            if lo < b < hi:
                breaks.append(b)
    edge = min(spread, 0.5 * (hi - lo))
    breaks += _graded(hi - edge, hi, toward=hi)
    if lo > 0.0:
        breaks += _graded(lo, lo + edge, toward=lo)
    sing = ct - rho0
    if lo < sing < hi:
        gap = min(sing - lo, hi - sing, spread)
        breaks += _graded(sing - gap, sing, toward=sing)
        breaks += _graded(sing, sing + gap, toward=sing)
    return _gauss_pieces(breaks)


def limit_table_rule(t: float, rho0: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for the diffusive-limit (Rice, variance t) radial density."""
    s = math.sqrt(t)
    breaks = [0.0] + [max(0.0, rho0 + k * s) for k in (-8, -4, -2, -1, 0, 1, 2, 4, 8, 12)]
    return _gauss_pieces(breaks)
