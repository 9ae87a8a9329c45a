"""Distributional quantities: moments, PWM, MGF, entropies, residual life, CIGF.

Adaptive quadrature is the primary computational path throughout.  The
closed-form series for the Weibull-type sub-family ("gtw") are kept as an
independent cross-check route; they and the quadrature values must agree
wherever both apply.

Integrals that do not exist raise :class:`DivergenceError` rather than
returning a number.  Existence is screened two ways before integrating:
analytically at the lower support edge (the local power of the density is
known for every built-in transform) and numerically in the tail, by fitting
a log-log slope to the integrand at quantile-(1 - 1e-6) multiples {1,2,4,8}
and requiring decay faster than 1/x.
"""

from __future__ import annotations

import math

import numpy as np

from . import numerics
from .model import GtldModel, ParamVector
from .numerics import QuadratureSpec, SeriesSpec

_TAIL_Q = 1.0 - 1e-6
_ACCEPT_REL = 1e-6  # degraded-quadrature acceptance threshold


class DivergenceError(ArithmeticError):
    """The requested integral does not converge for these parameters."""


class EntropyDomainError(ArithmeticError):
    """q-entropy needs integral(f^q) < 1; raised when it is not."""


def _integrate(f, lo, hi, spec=None):
    """Quadrature that tolerates a degraded-but-tight error bound."""
    try:
        return numerics.integrate(f, lo, hi, spec)
    except numerics.QuadratureError as exc:
        est, err = exc.estimate, exc.error_bound
        if est is not None and err is not None and err <= _ACCEPT_REL * max(
            1.0, abs(est)
        ):
            return est
        raise


def _integrate_support(model: GtldModel, f, lower=None, spec=None):
    """Integrate f over (lower or support_low, inf), split at an interior point."""
    lo = model.support_low if lower is None else lower
    mid = model.quantile(0.75)
    if mid <= lo:
        mid = 2.0 * lo + 1.0
    return _integrate(f, lo, mid, spec) + _integrate(f, mid, math.inf, spec)


def _tail_probe(model: GtldModel, integrand, what: str):
    """Signal divergence unless the integrand decays faster than 1/x."""
    t0 = model.quantile(_TAIL_Q)
    ts = [t0, 2.0 * t0, 4.0 * t0, 8.0 * t0]
    vals = [float(integrand(t)) for t in ts]
    if any(not math.isfinite(v) for v in vals):
        raise DivergenceError(f"{what}: integrand not finite in the tail")
    if all(v == 0.0 for v in vals):
        return
    if any(b >= a for a, b in zip(vals, vals[1:]) if a > 0.0):
        raise DivergenceError(f"{what}: integrand not decreasing in the tail")
    if vals[0] > 0.0 and vals[-1] > 0.0:
        slope = math.log(vals[-1] / vals[0]) / math.log(8.0)
        if slope >= -1.0:
            raise DivergenceError(
                f"{what}: tail decay x^{slope:.3f} is too slow to integrate"
            )


# -- moments ---------------------------------------------------------------


def _gtw_series_value(params: ParamVector, r: int, z: float | None) -> float:
    """Closed-form series for gtw (incomplete) moments; cross-check route.

    mu'_r = theta * beta^(-r/alpha)
            * sum_i w_i * gamma(r/alpha + 1, (i+1) beta z^alpha) / (i+1)^(r/alpha+1)
    with w_i = (-1)^i [(1+lam) C(theta-1, i) - 2 lam C(2 theta-1, i)] and the
    upper limit of the incomplete gamma replaced by Gamma for the raw moment.
    """
    a = params.shape["alpha"]
    rho = r / a + 1.0
    theta, lam, beta = params.theta, params.lam, params.beta
    c1 = [1.0]
    c2 = [1.0]

    def term(k: int) -> float:
        while len(c1) <= k:
            i = len(c1)
            c1.append(c1[-1] * (theta - i) / i)
            c2.append(c2[-1] * (2.0 * theta - i) / i)
        w = (-1.0) ** k * ((1.0 + lam) * c1[k] - 2.0 * lam * c2[k])
        if w == 0.0:
            return 0.0
        if z is None:
            inc = numerics.gamma_fn(rho)
        else:
            inc = numerics.lower_incomplete_gamma(rho, (k + 1) * beta * z**a)
        return w * inc / (k + 1) ** rho

    total = numerics.sum_series(term, SeriesSpec(tail_tol=1e-13, max_terms=200_000))
    return theta * beta ** (-r / a) * total


def raw_moment(model: GtldModel, r: int, method: str = "quadrature") -> float:
    """E[X^r]."""
    if r < 1:
        raise ValueError("moment order must be >= 1")
    if method == "series":
        if model.transform.name != "gtw":
            raise ValueError("series moments are implemented for 'gtw' only")
        return _gtw_series_value(model.params, r, None)
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")

    def integrand(x):
        return x**r * model.pdf(x)

    _tail_probe(model, integrand, f"raw moment r={r}")
    return _integrate_support(model, integrand)


def incomplete_moment(
    model: GtldModel, r: int, z: float, method: str = "quadrature"
) -> float:
    """E[X^r; X <= z] = integral of x^r f(x) over (support_low, z]."""
    if r < 1:
        raise ValueError("moment order must be >= 1")
    if z < model.support_low:
        raise ValueError("z below the support")
    if method == "series":
        if model.transform.name != "gtw":
            raise ValueError("series moments are implemented for 'gtw' only")
        return _gtw_series_value(model.params, r, z)
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")
    if z == model.support_low:
        return 0.0
    return _integrate(lambda x: x**r * model.pdf(x), model.support_low, z)


def pwm(model: GtldModel, r: int, s: int) -> float:
    """Probability weighted moment E[X^r F(X)^s]."""
    if r < 0 or s < 0:
        raise ValueError("pwm orders must be nonnegative")

    def integrand(x):
        return x**r * model.cdf(x) ** s * model.pdf(x)

    if r > 0:
        _tail_probe(model, integrand, f"pwm r={r}, s={s}")
    return _integrate_support(model, integrand)


def mgf(model: GtldModel, t: float) -> float:
    """Moment generating function E[e^(tX)]."""

    def integrand(x):
        return math.exp(t * x + model.logpdf(x))

    if t > 0:
        _tail_probe(model, integrand, f"mgf t={t}")
    return _integrate_support(model, integrand)


def stress_strength(lambda1: float, lambda2: float) -> float:
    """P(X1 > X2) for strength X1 and stress X2 sharing (psi, beta, theta)."""
    for name, lam in (("lambda1", lambda1), ("lambda2", lambda2)):
        if not -1.0 <= lam <= 1.0:
            raise ValueError(f"{name} must lie in [-1, 1], got {lam}")
    return (lambda2 - lambda1 + 3.0) / 6.0


def order_stat_pdf(model: GtldModel, n: int, r: int, x) -> float:
    """Density of the r-th order statistic in a sample of size n."""
    if not 1 <= r <= n:
        raise ValueError(f"rank r={r} out of range for n={n}")
    log_b = (
        math.lgamma(r) + math.lgamma(n - r + 1) - math.lgamma(n + 1)
    )  # log B(r, n-r+1)
    F = np.asarray(model.cdf(x), dtype=float)
    S = np.asarray(model.survival(x), dtype=float)
    f = np.asarray(model.pdf(x), dtype=float)
    out = f * F ** (r - 1) * S ** (n - r) / math.exp(log_b)
    return out if np.ndim(x) else float(out)


# -- entropies ---------------------------------------------------------------


def _density_power_integral(model: GtldModel, rho: float, lower: float | None):
    """integral of f^rho over (lower or support_low, inf).

    At the lower support edge the density behaves like x^(k*theta - 1) with
    k the transform's edge order, so f^rho is integrable there only when
    rho*(k*theta - 1) > -1; that is checked analytically.  When the density
    is unbounded at the edge the substitution u = F(x) removes the
    singularity and the integral becomes integral over (0,1) of
    f(Q(u))^(rho-1) du.
    """
    low = model.support_low
    theta = model.params.theta
    k = model.transform.edge_order
    truncated = lower is not None and lower > low

    def integrand(x):
        return math.exp(rho * model.logpdf(x))

    _tail_probe(model, integrand, f"density-power integral rho={rho}")

    if not truncated:
        edge_exp = rho * (k * theta - 1.0)
        if edge_exp <= -1.0:
            raise DivergenceError(
                f"integral of f^{rho:g} diverges at the lower support edge "
                f"(local power {edge_exp:.3f} <= -1)"
            )
        if k * theta < 1.0:
            # unbounded density at the edge: integrate in u = F(x)
            def sub_integrand(w):
                return math.exp((rho - 1.0) * model.logpdf(model.quantile(w)))

            return _integrate(sub_integrand, 0.0, 1.0)
        return _integrate_support(model, integrand)
    return _integrate_support(model, integrand, lower=lower)


def renyi_entropy(model: GtldModel, rho: float, lower: float | None = None) -> float:
    """Renyi entropy (1/(1-rho)) log integral(f^rho).

    ``lower`` optionally truncates the integration range above the support
    infimum; published reference values for parameter sets whose density
    power is non-integrable at the edge correspond to a truncated range
    (see the package docs), and the truncation used is always explicit here.
    """
    if not rho > 0 or rho == 1:
        raise ValueError("rho must be positive and != 1")
    val = _density_power_integral(model, rho, lower)
    if val <= 0:
        raise DivergenceError("density-power integral evaluated to a non-positive value")
    return math.log(val) / (1.0 - rho)


def q_entropy(model: GtldModel, q: float, lower: float | None = None) -> float:
    """q-entropy (1/(q-1)) log(1 - integral(f^q)); needs integral(f^q) < 1."""
    if not q > 0 or q == 1:
        raise ValueError("q must be positive and != 1")
    val = _density_power_integral(model, q, lower)
    if val >= 1.0:
        raise EntropyDomainError(
            f"integral of f^{q:g} is {val:.6g} >= 1; q-entropy is undefined"
        )
    return math.log1p(-val) / (q - 1.0)


# -- residual life and information generating functions ----------------------


def residual_moment(model: GtldModel, n: int, t: float) -> float:
    """E[(X - t)^n | X > t]; n = 1 is the mean residual life."""
    if n < 1:
        raise ValueError("residual moment order must be >= 1")
    s = model.survival(t)
    if s <= 0.0:
        raise ZeroDivisionError("survival(t) is 0; residual life undefined")

    def integrand(x):
        return (x - t) ** n * model.pdf(x)

    _tail_probe(model, integrand, f"residual moment n={n}")
    mid = model.quantile(0.75)
    if mid <= t:
        mid = 2.0 * abs(t) + 1.0 + t
    total = _integrate(integrand, t, mid) + _integrate(integrand, mid, math.inf)
    return total / s


def reversed_residual_moment(model: GtldModel, n: int, t: float) -> float:
    """E[(t - X)^n | X <= t]; n = 1 is the mean waiting time."""
    if n < 0:
        raise ValueError("order must be >= 0")
    if n == 0:
        return 1.0
    F = model.cdf(t)
    if F <= 0.0:
        raise ZeroDivisionError("cdf(t) is 0; reversed residual life undefined")
    val = _integrate(lambda x: (t - x) ** n * model.pdf(x), model.support_low, t)
    return val / F


def cigf(model: GtldModel, m: float, n: float) -> float:
    """Cumulative information generating function integral(F^m S^n dx).

    K_X(n) = cigf(0, n) is the cumulative residual variant.  The m-only
    marginal cigf(m, 0) diverges on an unbounded support because F -> 1;
    it is reported as an explicit divergence, never a number.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        raise DivergenceError(
            "cigf(m, 0) diverges: F^m tends to 1 on an unbounded support"
        )

    def integrand(x):
        return model.cdf(x) ** m * model.survival(x) ** n

    _tail_probe(model, integrand, f"cigf m={m}, n={n}")
    return _integrate_support(
        model, integrand, spec=QuadratureSpec(abs_tol=1e-12, rel_tol=1e-10)
    )
