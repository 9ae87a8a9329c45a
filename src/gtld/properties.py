"""Distributional quantities: moments, PWM, MGF, entropies, residual life, CIGF.

Tanh-sinh quadrature (``numerics``) is the primary computational path
throughout.  Every integrand here is elementwise on arrays, and the
integrals over an unbounded range are split at Q(0.75): the two halves run
in lock step through one ``numerics.integrate_ranges`` call, so one call of
the model's vectorised cdf, survival or density covers the rule's levels
h = 1 ... 1/16 of both halves, and each round of finer levels that a half
still needs is one call more.  The integrands evaluate the kernels' cores
(``_kernels._cdf_core``, ``_sf_core``) and the model's log f core and its
exp (``GtldModel._logpdf``, ``_pdf``) straight on the nodes, inside the
quadrature's errstate: the nodes lie in the support by construction, so
the public functions' support check and their wrapper
``_kernels._at_points`` (errstate and scalar handling) would only cost
time there.  Arguments are refused before the first integrand call
instead (an age below the support by the scalar ``survival`` or ``cdf``),
and a property whose split point Q(0.75) lies past the float range raises
:class:`DivergenceError`.  Each half's degraded result is accepted or
raised in range order, as if the halves ran one after the other, and the
values are those of separate calls to the bit.  The incomplete and
reversed residual moments take the same route over one finite range.  The
closed-form series for the Weibull-type sub-family ("gtw") are kept as an
independent cross-check route; they and the quadrature values must agree
wherever both apply.

Integrals that do not exist raise :class:`DivergenceError` rather than
returning a number, and existence is decided analytically, before any
integrand call, at both ends of the support.  In the tail it follows from
the family table's growth of G at infinity (``_kernels._FAMILIES``, column
``tail``), which fixes how S decays: like the power x^-kappa where G grows
like log x (gtb12, gtl, gtp1), faster than every power elsewhere
(``_screen_tail``).  At the lower support edge the local power of the
density follows from the table's ``edge``.  The tail's verdict comes
before the edge's.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from . import _kernels, numerics
from .model import GtldModel, ParamVector
from .numerics import QuadratureSpec, SeriesSpec

_MID_P = np.array([0.75])  # the split point of an unbounded range, as a level
_MID_P.flags.writeable = False
_ACCEPT_REL = 1e-6  # degraded-quadrature acceptance threshold


class DivergenceError(ArithmeticError):
    """The requested integral does not converge for these parameters."""


class EntropyDomainError(ArithmeticError):
    """q-entropy needs integral(f^q) < 1; raised when it is not."""


def _accept(outcome):
    """A quadrature outcome as a value, tolerating a degraded-but-tight bound."""
    if isinstance(outcome, numerics.QuadratureError):
        est, err = outcome.estimate, outcome.error_bound
        if est is not None and err is not None and err <= _ACCEPT_REL * max(
            1.0, abs(est)
        ):
            return est
        raise outcome
    return outcome


def _on_parts(integrand):
    """An elementwise integrand as the driver calls it: once on all parts."""
    return lambda *parts: integrand(np.concatenate(parts))


# The distribution functions on quadrature nodes: float arrays inside the
# support, under the driver's errstate, so the kernels' cores take them
# as they are, without the public functions' support check and errstate.

_pdf = GtldModel._pdf


def _cdf(model: GtldModel, x):
    return _kernels._cdf_core(*model.kernel_args, x)


def _sf(model: GtldModel, x):
    return _kernels._sf_core(*model.kernel_args, x)


def _split_point(model: GtldModel, what: str):
    """Q(0.75), the split point of an unbounded range; a DivergenceError
    naming ``what`` where it lies past the float range."""
    mid = model._quantile_arr(_MID_P)[0]
    if not math.isfinite(mid):
        raise DivergenceError(f"{what}: Q(0.75) lies past the float range")
    return float(mid)


def _screen_tail(model: GtldModel, what, e, n, t=0.0):
    """Raise a DivergenceError naming ``what`` unless an integrand that
    behaves like x^e * S(x)^n * e^(t*x) as x -> inf is integrable there.

    The table's G(x) ~ c*x^p (p = 0: c*log x) decides it, with no integrand
    call: S(x) = theta*(1 - lam)*e^(-beta*G(x))*(1 + o(1)), or
    theta^2*e^(-2*beta*G(x)) at lam = 1.  Where G ~ c*log x, S decays like
    x^-kappa with kappa = m*beta*c (m = 2 at lam = 1, else 1), and f like
    kappa*S/x, so a density factor counts as S/x; the integral exists
    where t = 0 and n*kappa > e + 1, and for every t < 0.  Elsewhere
    S = e^(-m*beta*c*x^p*(1 + o(1))) outruns every power of x, and only
    t > 0 can make it diverge: where p < 1, and where p = 1 and
    t >= n*m*beta*c.  t = inf diverges for every family: e^(t*x) is inf on
    the whole support.
    """
    if t == math.inf:
        raise DivergenceError(f"{what}: e^(t*x) is infinite on the whole support")
    par = model.params
    fam, s1 = model.kernel_args[:2]
    p, c = _kernels._FAMILIES[fam].tail(s1)
    rate = (2.0 if par.lam == 1.0 else 1.0) * par.beta * c
    if p == 0.0:
        if t > 0.0 or (t == 0.0 and n * rate <= e + 1.0):
            raise DivergenceError(f"{what}: diverges in the tail, where S(x) ~ x^-{rate:.6g}")
    elif t > 0.0 and (p < 1.0 or (p == 1.0 and t >= n * rate)):
        raise DivergenceError(
            f"{what}: diverges in the tail, where S(x) ~ exp(-{rate:.6g}*x^{p:.6g})"
        )


def _integrate(f, ranges, spec=None):
    """The sum of the integrals over ``ranges``, in one lock-step driver
    call; each range's degraded acceptance is applied, and its value added,
    in range order."""
    outcomes = numerics.integrate_ranges(f, ranges, spec)
    return functools.reduce(operator.add, map(_accept, outcomes))


def _integrate_support(model: GtldModel, integrand, what, lower=None, spec=None):
    """Integrate the property named ``what`` over (lower or support_low, inf),
    split at Q(0.75) or, if that is not above the lower end, at
    2*lower + 1."""
    lo = model.support_low if lower is None else lower
    mid = _split_point(model, what)
    if mid <= lo:
        mid = 2.0 * lo + 1.0
    return _integrate(_on_parts(integrand), [(lo, mid), (mid, math.inf)], spec)


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
    if not r >= 1:  # NaN fails it
        raise ValueError(f"moment order r must be >= 1, got {r}")
    if method == "series":
        if model.family != "gtw":
            raise ValueError("series moments are implemented for 'gtw' only")
        return _gtw_series_value(model.params, r, None)
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")

    def integrand(x):
        return x**r * _pdf(model, x)

    what = f"raw moment r={r}"
    _screen_tail(model, what, r - 1, 1)
    return _integrate_support(model, integrand, what)


def incomplete_moment(
    model: GtldModel, r: int, z: float, method: str = "quadrature"
) -> float:
    """E[X^r; X <= z] = integral of x^r f(x) over (support_low, z]."""
    if not r >= 1:
        raise ValueError(f"moment order r must be >= 1, got {r}")
    if z < model.support_low:
        raise ValueError("z below the support")
    if not math.isfinite(z):
        raise ValueError(
            f"incomplete moment needs a finite z, got {z}; raw_moment gives the full range"
        )
    if method == "series":
        if model.family != "gtw":
            raise ValueError("series moments are implemented for 'gtw' only")
        return _gtw_series_value(model.params, r, z)
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")
    if z == model.support_low:
        return 0.0
    return _integrate(lambda x: x**r * _pdf(model, x), [(model.support_low, z)])


def pwm(model: GtldModel, r: int, s: int) -> float:
    """Probability weighted moment E[X^r F(X)^s]."""
    if not (r >= 0 and s >= 0):
        raise ValueError(f"pwm orders r, s must be nonnegative, got {r}, {s}")

    def integrand(x):
        return x**r * _cdf(model, x) ** s * _pdf(model, x)

    what = f"pwm r={r}, s={s}"
    _screen_tail(model, what, r - 1, 1)
    return _integrate_support(model, integrand, what)


def mgf(model: GtldModel, t: float) -> float:
    """Moment generating function E[e^(tX)]."""
    if math.isnan(t):
        raise ValueError("mgf needs an argument t, got nan")

    def integrand(x):
        return np.exp(t * x + model._logpdf(x))

    what = f"mgf t={t}"
    _screen_tail(model, what, -1, 1, t)
    return _integrate_support(model, integrand, what)


def stress_strength(lambda1: float, lambda2: float) -> float:
    """P(X1 > X2) for strength X1 and stress X2 sharing (psi, beta, theta)."""
    for name, lam in (("lambda1", lambda1), ("lambda2", lambda2)):
        if not -1.0 <= lam <= 1.0:
            raise ValueError(f"{name} must lie in [-1, 1], got {lam}")
    return (lambda2 - lambda1 + 3.0) / 6.0


def order_stat_pdf(model: GtldModel, n: int, r: int, x) -> float:
    """Density of the r-th order statistic in a sample of size n.

    f(x) F(x)^(r-1) S(x)^(n-r) / B(r, n-r+1), with the last three factors
    combined in logs: for r near n/2, B(r, n-r+1) alone underflows to 0
    from n of about 1,070 on, though the density is at most of order n f(x).
    """
    if not 1 <= r <= n:
        raise ValueError(f"rank r={r} out of range for n={n}")
    log_b = (
        math.lgamma(r) + math.lgamma(n - r + 1) - math.lgamma(n + 1)
    )  # log B(r, n-r+1)
    F = np.asarray(model.cdf(x), dtype=float)
    S = np.asarray(model.survival(x), dtype=float)
    f = np.asarray(model.pdf(x), dtype=float)
    log_w = -log_b
    # log 0 = -inf, a weight of 0; a weight below the float range is 0 too
    with np.errstate(divide="ignore", under="ignore"):
        if r > 1:
            log_w = log_w + (r - 1) * np.log(F)
        if n > r:
            log_w = log_w + (n - r) * np.log(S)
        out = f * np.exp(log_w)
    return out if np.ndim(x) else float(out)


# -- entropies ---------------------------------------------------------------


def _density_power_integral(model: GtldModel, rho: float, lower: float | None):
    """integral of f^rho over (lower or support_low, inf).

    At the lower support edge the density behaves like x^(k*theta - 1) with
    k the model's edge order, so f^rho is integrable there only when
    rho*(k*theta - 1) > -1; that is checked analytically.  When the density
    is unbounded at the edge the substitution u = F(x) removes the
    singularity: the part below the split point Q(0.75) becomes the
    integral over (0, 0.75) of f(Q(u))^(rho-1) du.
    """
    if lower is not None and math.isnan(lower):
        raise ValueError("the entropy integral's lower limit is nan")
    low = model.support_low
    theta = model.params.theta
    k = model.edge_order
    truncated = lower is not None and lower > low

    def integrand(x):
        return np.exp(rho * model._logpdf(x))

    what = f"density-power integral rho={rho}"
    _screen_tail(model, what, -rho, rho)  # the tail's verdict comes before the edge's
    if truncated:
        return _integrate_support(model, integrand, what, lower=lower)
    edge_exp = rho * (k * theta - 1.0)
    if edge_exp <= -1.0:
        raise DivergenceError(
            f"integral of f^{rho:g} diverges at the lower support edge "
            f"(local power {edge_exp:.3f} <= -1)"
        )
    if k * theta >= 1.0:
        return _integrate_support(model, integrand, what)

    # unbounded density at the edge: integrate f(Q(u))^(rho-1) in u = F(x)
    # below the split point, f^rho in x above it, where u could come no
    # nearer to 1 than 1 - 2^-53; one log f call serves Q at the u nodes
    # and the x nodes
    def split_integrand(u, x):
        y = np.concatenate([model._quantile_arr(u) if u.size else u, x])
        power = np.full(y.size, rho)
        power[: u.size] = rho - 1.0
        return np.exp(power * model._logpdf(y))

    return _integrate(split_integrand, [(0.0, 0.75), (_split_point(model, what), math.inf)])


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
    if not n >= 1:
        raise ValueError(f"residual moment order n must be >= 1, got {n}")
    if math.isnan(t):
        raise ValueError("residual moment needs an age t, got nan")
    s = model.survival(t)
    if s <= 0.0:
        raise ZeroDivisionError("survival(t) is 0; residual life undefined")

    def integrand(x):
        return (x - t) ** n * _pdf(model, x)

    what = f"residual moment n={n}"
    _screen_tail(model, what, n - 1, 1)
    return _integrate_support(model, integrand, what, lower=t) / s


def reversed_residual_moment(model: GtldModel, n: int, t: float) -> float:
    """E[(t - X)^n | X <= t]; n = 1 is the mean waiting time."""
    if not n >= 0:
        raise ValueError(f"reversed residual moment order n must be >= 0, got {n}")
    if math.isnan(t):
        raise ValueError("reversed residual moment needs an age t, got nan")
    if n == 0:
        return 1.0
    F = model.cdf(t)
    if F <= 0.0:
        raise ZeroDivisionError("cdf(t) is 0; reversed residual life undefined")
    val = _integrate(lambda x: (t - x) ** n * _pdf(model, x), [(model.support_low, t)])
    return val / F


def cigf(model: GtldModel, m: float, n: float) -> float:
    """Cumulative information generating function integral(F^m S^n dx).

    K_X(n) = cigf(0, n) is the cumulative residual variant.  The m-only
    marginal cigf(m, 0) diverges on an unbounded support because F -> 1;
    it is reported as an explicit divergence, never a number.
    """
    if not m >= 0:
        raise ValueError(f"cigf order m must be >= 0, got {m}")
    if not n >= 0:
        raise ValueError(f"cigf order n must be >= 0, got {n}")
    if n == 0:
        raise DivergenceError(
            "cigf(m, 0) diverges: F^m tends to 1 on an unbounded support"
        )

    def integrand(x):
        return _cdf(model, x) ** m * _sf(model, x) ** n

    what = f"cigf m={m}, n={n}"
    _screen_tail(model, what, 0, n)
    return _integrate_support(
        model, integrand, what, spec=QuadratureSpec(abs_tol=1e-12, rel_tol=1e-10)
    )
