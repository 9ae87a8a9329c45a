"""Distributional quantities: moments, PWM, MGF, entropies, residual life, CIGF.

Tanh-sinh quadrature (``numerics``) is the primary computational path
throughout.  Every integrand here is elementwise on arrays, and the
integrals over an unbounded range are split at Q(0.75): the two halves run
in lock step through one ``numerics.integrate_ranges`` call, so one call of
the model's vectorised cdf, survival or density covers the rule's levels
h = 1 ... 1/16 of both halves and the tail probe's points, and each round
of finer levels that a half still needs is one call more.  The integrands
evaluate the kernels' cores (``_kernels._cdf_core``, ``_sf_core``) and the
model's log f core and its exp (``GtldModel._logpdf``, ``_pdf``)
straight on the nodes, inside the quadrature's errstate: the nodes lie in the
support by construction, so the public functions' support check and their
wrapper ``_kernels._at_points`` (errstate and scalar handling) would only
cost time there.  Arguments are refused before the first integrand
call instead (an age below the support by the scalar ``survival`` or
``cdf``).  The split point Q(0.75) and the probe's base Q(1 - 1e-6) come
from one quantile call on a two-element array (``_split_points``), and a
property where either is inf raises :class:`DivergenceError`.  Each half's
degraded result is accepted or raised in range order, as if the halves ran
one after the other, and the values are those of separate calls to the
bit.  The incomplete and reversed residual moments take the same route
over one finite range.  The closed-form series for the Weibull-type
sub-family ("gtw") are kept as an independent cross-check route; they and
the quadrature values must agree wherever both apply.

Integrals that do not exist raise :class:`DivergenceError` rather than
returning a number.  Existence is screened before integrating: from the
family where it decides (the MGF of the sub-families whose survival
function decays like a power of x), analytically at the lower support edge
(the local power of the density is known for every built-in transform) and
numerically in the tail, by fitting a log-log slope to the integrand at
quantile-(1 - 1e-6) multiples {1,2,4,8} and requiring decay faster than 1/x.
The tail's verdict is taken on the first integrand call, before either half
uses its values, and comes before the edge's.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from . import _kernels, numerics
from .model import GtldModel, ParamVector
from .numerics import QuadratureSpec, SeriesSpec

_TAIL_Q = 1.0 - 1e-6
# the split point of an unbounded range and the tail probe's base quantile
_SPLIT_P = np.array([0.75, _TAIL_Q])
_SPLIT_P.flags.writeable = False
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


def _split_points(model: GtldModel, what: str):
    """[Q(0.75), Q(1 - 1e-6)], the split point of an unbounded range and
    the tail probe's base, from one quantile call; a DivergenceError naming
    ``what`` where one lies past the float range."""
    mid, q_tail = model._quantile_arr(_SPLIT_P).tolist()
    if not (math.isfinite(mid) and math.isfinite(q_tail)):
        raise DivergenceError(f"{what}: Q(0.75) or Q(1 - 1e-6) lies past the float range")
    return mid, q_tail


def _integrate(f, ranges, probe=None, spec=None):
    """The sum of the integrals over ``ranges``, in one lock-step driver
    call, the tail probe's points in its first integrand call; each range's
    degraded acceptance is applied, and its value added, in range order."""
    outcomes = numerics.integrate_ranges(f, ranges, spec, probe)
    return functools.reduce(operator.add, map(_accept, outcomes))


def _integrate_support(model: GtldModel, integrand, what, lower=None, spec=None, probe=True):
    """Integrate the property named ``what`` over (lower or support_low, inf),
    split at Q(0.75) or, if that is not above the lower end, at
    2*lower + 1; with the tail probe unless ``probe`` is false."""
    lo = model.support_low if lower is None else lower
    mid, q_tail = _split_points(model, what)
    if mid <= lo:
        mid = 2.0 * lo + 1.0
    tail = _tail_probe(q_tail, what) if probe else None
    return _integrate(_on_parts(integrand), [(lo, mid), (mid, math.inf)], tail, spec)


def _tail_probe(q_tail: float, what: str):
    """Tail points, multiples of Q(1 - 1e-6) = ``q_tail``, and a verdict on
    the integrand's values there, as ``numerics.integrate_ranges`` takes
    them: the verdict signals divergence unless the integrand decays faster
    than 1/x; a non-finite value is a verdict too."""
    xs = q_tail * np.array([1.0, 2.0, 4.0, 8.0])

    def verdict(values):
        vals = values.tolist()
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

    return xs, verdict


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
        return x**r * _pdf(model, x)

    return _integrate_support(model, integrand, f"raw moment r={r}")


def incomplete_moment(
    model: GtldModel, r: int, z: float, method: str = "quadrature"
) -> float:
    """E[X^r; X <= z] = integral of x^r f(x) over (support_low, z]."""
    if r < 1:
        raise ValueError("moment order must be >= 1")
    if z < model.support_low:
        raise ValueError("z below the support")
    if not math.isfinite(z):
        raise ValueError(
            f"incomplete moment needs a finite z, got {z}; raw_moment gives the full range"
        )
    if method == "series":
        if model.transform.name != "gtw":
            raise ValueError("series moments are implemented for 'gtw' only")
        return _gtw_series_value(model.params, r, z)
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")
    if z == model.support_low:
        return 0.0
    return _integrate(lambda x: x**r * _pdf(model, x), [(model.support_low, z)])


def pwm(model: GtldModel, r: int, s: int) -> float:
    """Probability weighted moment E[X^r F(X)^s]."""
    if r < 0 or s < 0:
        raise ValueError("pwm orders must be nonnegative")

    def integrand(x):
        return x**r * _cdf(model, x) ** s * _pdf(model, x)

    return _integrate_support(model, integrand, f"pwm r={r}, s={s}", probe=r > 0)


def mgf(model: GtldModel, t: float) -> float:
    """Moment generating function E[e^(tX)]."""

    def integrand(x):
        return np.exp(t * x + model._logpdf(x))

    if t > 0 and _kernels._FAMILIES[model.transform.family_id].power_tail:
        raise DivergenceError(
            f"mgf t={t}: {model.transform.name} has a power-law tail, E[e^(tX)] = inf"
        )
    return _integrate_support(model, integrand, f"mgf t={t}", probe=t > 0)


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
    with np.errstate(divide="ignore"):  # log 0 = -inf, a weight of 0
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
    k the transform's edge order, so f^rho is integrable there only when
    rho*(k*theta - 1) > -1; that is checked analytically.  When the density
    is unbounded at the edge the substitution u = F(x) removes the
    singularity: the part below the split point Q(0.75) becomes the
    integral over (0, 0.75) of f(Q(u))^(rho-1) du.
    """
    low = model.support_low
    theta = model.params.theta
    k = model.transform.edge_order
    truncated = lower is not None and lower > low

    def integrand(x):
        return np.exp(rho * model._logpdf(x))

    what = f"density-power integral rho={rho}"
    if truncated:
        return _integrate_support(model, integrand, what, lower=lower)
    edge_exp = rho * (k * theta - 1.0)
    if edge_exp <= -1.0:
        # the tail's verdict comes before the edge's
        probe = _tail_probe(_split_points(model, what)[1], what)
        numerics.integrate_ranges(_on_parts(integrand), [], probe=probe)
        raise DivergenceError(
            f"integral of f^{rho:g} diverges at the lower support edge "
            f"(local power {edge_exp:.3f} <= -1)"
        )
    if k * theta >= 1.0:
        return _integrate_support(model, integrand, what)

    # unbounded density at the edge: integrate f(Q(u))^(rho-1) in u = F(x)
    # below the split point, f^rho in x above it, where u could come no
    # nearer to 1 than 1 - 2^-53; one log f call serves the probe points,
    # Q at the u nodes and the x nodes
    def split_integrand(points, u, x):
        y = np.concatenate([points, model._quantile_arr(u) if u.size else u, x])
        power = np.full(y.size, rho)
        power[points.size : points.size + u.size] = rho - 1.0
        return np.exp(power * model._logpdf(y))

    mid, q_tail = _split_points(model, what)
    probe = _tail_probe(q_tail, what)
    return _integrate(split_integrand, [(0.0, 0.75), (mid, math.inf)], probe)


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
    if math.isnan(t):
        raise ValueError("residual moment needs an age t, got nan")
    s = model.survival(t)
    if s <= 0.0:
        raise ZeroDivisionError("survival(t) is 0; residual life undefined")

    def integrand(x):
        return (x - t) ** n * _pdf(model, x)

    what = f"residual moment n={n}"
    mid, q_tail = _split_points(model, what)
    if mid <= t:
        mid = 2.0 * abs(t) + 1.0 + t
    probe = _tail_probe(q_tail, what)
    total = _integrate(_on_parts(integrand), [(t, mid), (mid, math.inf)], probe)
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
    val = _integrate(lambda x: (t - x) ** n * _pdf(model, x), [(model.support_low, t)])
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
        return _cdf(model, x) ** m * _sf(model, x) ** n

    return _integrate_support(
        model,
        integrand,
        f"cigf m={m}, n={n}",
        spec=QuadratureSpec(abs_tol=1e-12, rel_tol=1e-10),
    )
