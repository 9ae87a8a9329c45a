"""Distributional quantities: moments, PWM, MGF, entropies, residual life, CIGF.

Tanh-sinh quadrature (``numerics``) is the primary computational path
throughout, and every integral is taken over probability, not over x: a
property E h(X) is the integral of h(Q(p)) over the level p in (0, 1),
where the mass is uniform by construction.  Two ranges of levels run in
lock step through one ``numerics.integrate_ranges`` call: p in (0, 0.75),
and the survival level v = 1 - p in (0, 0.25), handed to the kernels'
quantile core as log v so that Q(1 - v) stays accurate as v -> 0, below
the float range of v too (``_kernels._quantile_core``).  One call of the
core covers the rule's levels h = 1 ... 1/16 of both ranges, and each
round of finer levels that a range still needs is one call more.  The
integrands, taken in logs (``_over_levels``), are Q^r (moments), Q^r p^s
(PWMs), e^(tQ) (the MGF), f(Q)^(rho - 1) (the entropies) and
p^m (1 - p)^n / f(Q) (``cigf``), with log f(Q) taken by the core from the
level rather than from Q.  The incomplete moment runs over the levels up
to F(z); the residual moment over w in (0, 1) at v = S(t) w, and the
reversed one over w at p = F(t) w, so that neither divides by a
probability.  Where an integrand is singular as v -> 0, like v^-a with
a > 1/2 (the tail screen below gives a), the survival levels are taken
as a power of the rule's variable that leaves it bounded.  The core runs
straight on the nodes, which are read-only, inside the quadrature's
errstate, and what it returns there is memoized (``_quantiles``), so the
catalog's integrals over one model solve Q once per block of nodes: the
key is the model's kernel arguments by type and exact bits (-0.0 is not
0.0), the node parts, which the entry holds, and the survival levels'
substitution (k, v_scale); an entry holds Q, and log f once a caller has
asked for it, both read-only; and the cache, a ``functools.lru_cache``
as the nodes' maps are, keeps the ``_QUANTILE_MEMO`` (64) most recently
used entries.  The core takes no support check or scalar handling per
call: arguments are refused before the first integrand call instead (an
age below the support by the scalar ``survival`` or ``cdf``, and an
order, age or entropy bound that is NaN or infinite by a ``ValueError``
naming it; ``mgf``'s t may be infinite, with the limits 0 at -inf and a
divergence at inf), and a moment, PWM, residual moment or ``cigf`` that
meets a Q past the float range below the level 0.75 (for the residual
moment, at w >= 1/2) raises ``OverflowError``.  Each range's
degraded result is accepted or raised in range order.  The closed-form
series for the Weibull-type sub-family ("gtw") are kept as an
independent cross-check route; they and the quadrature values must agree
wherever both apply.

Integrals that do not exist raise :class:`DivergenceError` rather than
returning a number, and existence is decided analytically, before any
integrand call, at both ends of the support.  In the tail it follows from
the family table's growth of G at infinity (``_kernels._FAMILIES``, column
``tail``), which fixes how S decays: like the power x^-kappa where G grows
like log x (gtb12, gtl, gtp1), faster than every power elsewhere
(``_screen_tail``).  At the lower support edge the local power of the
density follows from the table's ``edge``, with theta doubled at lam = -1
(``_screen_edge``).  The tail's verdict comes before the edge's.
"""

from __future__ import annotations

import functools
import math
import operator
import struct

import numpy as np

from . import _kernels, numerics
from .model import GtldModel, ParamVector
from .numerics import QuadratureSpec, SeriesSpec

_ACCEPT_REL = 1e-6  # degraded-quadrature acceptance threshold
# a relative bound alone, for integrals whose scale the default absolute
# one does not fit: e^(tX) takes values in (0, 1] for t < 0, however small
# the MGF, and a residual moment over w in (0, 1) is of the order of the
# n-th power of x's scale, which can lie far below 1
_RELATIVE = QuadratureSpec(abs_tol=1e-300)
_CIGF_SPEC = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-10)
# the quantile memo's bound, in entries: the catalog's properties of one
# model share a few node blocks, and an entry holds at most a few
# thousand floats
_QUANTILE_MEMO = 64


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


def _finite_arg(value, name):
    """Refuse an order or argument that is inf, before any integrand call
    (NaN is refused by each function's own checks, with their messages)."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def _finite(q, what):
    """Raise an OverflowError naming ``what`` where a quantile is inf: Q
    lies past the float range there, and so does an integral of a power
    of Q over the levels beyond."""
    if np.logical_or.reduce(np.isinf(q)):
        raise OverflowError(f"{what}: Q lies past the float range")


def _screen_tail(model: GtldModel, what, e, n, t=0.0):
    """Raise a DivergenceError naming ``what`` unless an integrand that
    behaves like x^e * S(x)^n * e^(t*x) as x -> inf is integrable there;
    else return the power a with which the integral's integrand over the
    survival level v = S(x) behaves like v^-a as v -> 0, up to slowly
    varying factors (a < 1).

    The table's G(x) ~ c*x^p (p = 0: c*log x) decides it, with no integrand
    call: S(x) = theta*(1 - lam)*e^(-beta*G(x))*(1 + o(1)), or
    theta^2*e^(-2*beta*G(x)) at lam = 1.  Where G ~ c*log x, S decays like
    x^-kappa with kappa = m*beta*c (m = 2 at lam = 1, else 1), and f like
    kappa*S/x, so a density factor counts as S/x; the integral exists
    where t = 0 and n*kappa > e + 1, and for every t < 0.  Elsewhere
    S = e^(-m*beta*c*x^p*(1 + o(1))) outruns every power of x, and only
    t > 0 can make it diverge: where p < 1, and where p = 1 and
    t >= n*m*beta*c.  t = inf diverges for every family: e^(t*x) is inf on
    the whole support.  Over v, dx = dv/f: where S ~ x^-kappa that makes
    a = 1 - n + (e + 1)/kappa at t = 0 (-inf for t < 0), where p = 1 it
    makes a = 1 - n + t/(m*beta*c), and elsewhere a = 1 - n.  Where a < 1
    rounds to 1 (n = 1e-17, say), a QuadratureError naming ``what``: the
    survival levels' substitution (``_over_levels``) needs 1/(1 - a).
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
        a = 1.0 - n + (e + 1.0) / rate if t == 0.0 else -math.inf
    else:
        if t > 0.0 and (p < 1.0 or (p == 1.0 and t >= n * rate)):
            raise DivergenceError(
                f"{what}: diverges in the tail, where S(x) ~ exp(-{rate:.6g}*x^{p:.6g})"
            )
        a = 1.0 - n + (t / rate if p == 1.0 else 0.0)
    if a >= 1.0:
        raise numerics.QuadratureError(
            f"{what}: the integrand over the survival levels v behaves like v^-a with "
            f"a = {a!r} in floating point, too close to 1 to integrate"
        )
    return a


def _screen_edge(model: GtldModel, what, rho):
    """Raise a DivergenceError naming ``what`` unless f^rho is integrable at
    the support's low end, with no integrand call.

    There the family table's edge (k, c) gives G ~ c*(x - low)^k, so
    F ~ (1 + lam)*(beta*c)^theta*(x - low)^(k*theta), and at lam = -1,
    where F = v^2, ~ (beta*c)^(2*theta)*(x - low)^(2*k*theta): f^rho
    behaves like (x - low)^(rho*(k*theta - 1)), theta doubled at lam = -1,
    and is integrable where that power exceeds -1.
    """
    par = model.params
    theta = 2.0 * par.theta if par.lam == -1.0 else par.theta
    power = rho * (model.edge_order * theta - 1.0)
    if power <= -1.0:
        raise DivergenceError(
            f"{what}: diverges at the lower support edge, where f^{rho:g} ~ "
            f"(x - {model.support_low:g})^{power:.6g}"
        )


def _integrate(f, ranges, spec=None):
    """The sum of the integrals over ``ranges``, in one lock-step driver
    call; each range's degraded acceptance is applied, and its value added,
    in range order."""
    outcomes = numerics.integrate_ranges(f, ranges, spec)
    return functools.reduce(operator.add, map(_accept, outcomes))


@functools.lru_cache(maxsize=_QUANTILE_MEMO)
def _memo_entry(key, p_id, s_id):
    """The quantile memo's entry for the node parts of ids ``p_id`` and
    ``s_id`` under ``key``: [p, s, Q, log f], which ``_quantiles`` fills."""
    return [None, None, None, None]


def _quantiles(key, args, p, s, lv, log_f):
    """Q, and log f (or None where ``log_f`` is false), of the kernel
    arguments ``args`` on the levels p and the log survival levels lv, which
    ``_over_levels`` makes from the node parts p and s under ``key``.

    Memoized in the ``_QUANTILE_MEMO`` most recently used entries of
    ``_memo_entry``, keyed on ``key`` and the parts' identities; an entry
    holds the parts, so that neither id can be reused while it lives.  A
    miss computes what the caller asks for, log f only where asked; a
    caller that asks for log f where an entry holds Q alone computes log f
    on the entry's Q, with no second solve of Q, and upgrades the entry.
    The arrays are read-only.  Threads may fill one entry at once, with
    the same bits; a Q-only fill leaves log f as it finds it, so it never
    undoes an upgrade.
    """
    entry = _memo_entry(key, id(p), id(s))
    q, lf = entry[2], entry[3]
    if q is None or (log_f and lf is None):
        if log_f:
            q, lf = _kernels._quantile_core(*args, p, lv, True, q)
            lf.setflags(write=False)
        else:
            q = _kernels._quantile_core(*args, p, lv)
        q.setflags(write=False)
        entry[:3] = p, s, q
        if log_f:
            entry[3] = lf
    return q, lf if log_f else None


def _over_levels(model: GtldModel, log_h, a, p_range=(0.0, 0.75), v_range=(0.0, 0.25),
                 v_scale=1.0, spec=None, log_f=False):
    """The integral of e^log_h over the levels p in ``p_range`` plus that over
    the survival levels v = v_scale*w, w in ``v_range``, in one lock-step
    driver call; by default the levels of the whole support, p below 0.75
    and v = 1 - p below 0.25.

    ``log_h(p, lv, q, log_f)`` returns the integrand's log on the
    concatenated levels, given the levels p, the log survival levels lv,
    and Q there (and log f, or None), read-only and memoized per model and
    node block (``_quantiles``).  Where the integrand behaves like
    v^-a as v -> 0 with a > 1/2 (``_screen_tail``), w = s^k with
    k = 1/(1 - a) takes its place, which leaves it bounded as s -> 0:
    otherwise the mass below the rule's nodes nearest v = 0, a fraction
    1e-150 of the range, and below the float range of v would be of the
    order of 1e-150^(1 - a) and 1e-308^(1 - a).  The levels are then
    taken in logs, and the integrand with the Jacobian k s^(k - 1).
    """
    k = 1.0 if a <= 0.5 else 1.0 / (1.0 - a)
    log_scale = math.log(v_scale)
    args = model.kernel_args
    # the kernel arguments by type and exact bits (-0.0 is not 0.0), and
    # the substitution; the memo adds the node parts
    key = (args[0], tuple(map(type, args)), struct.pack("7d", *args[1:], k, v_scale))

    def integrand(p, s):
        ls = np.log(s)
        lv = ls if k == 1.0 else k * ls
        if v_scale != 1.0:
            lv = lv + log_scale
        q, lf = _quantiles(key, args, p, s, lv, log_f)
        out = log_h(p, lv, q, lf)
        if k != 1.0:
            out[p.size :] += math.log(k) + (k - 1.0) * ls
        return np.exp(out)

    if k != 1.0:
        v_range = tuple(w ** (1.0 / k) for w in v_range)
    return _integrate(integrand, [p_range, v_range], spec)


def _log_levels(p, lv):
    """log F and log S on the concatenated levels p and survival levels e^lv."""
    return (np.concatenate([np.log(p), np.log1p(-np.exp(lv))]),
            np.concatenate([np.log1p(-p), lv]))


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
    _finite_arg(r, "moment order r")
    if method == "series":
        if model.family != "gtw":
            raise ValueError("series moments are implemented for 'gtw' only")
        return _gtw_series_value(model.params, r, None)
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")

    what = f"raw moment r={r}"

    def log_h(p, lv, q, log_f):
        _finite(q[: p.size], what)
        return r * np.log(q)

    return _over_levels(model, log_h, _screen_tail(model, what, r - 1, 1))


def incomplete_moment(
    model: GtldModel, r: int, z: float, method: str = "quadrature"
) -> float:
    """E[X^r; X <= z] = integral of x^r f(x) over (support_low, z]."""
    if not r >= 1:
        raise ValueError(f"moment order r must be >= 1, got {r}")
    _finite_arg(r, "moment order r")
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
    # the levels below F(z): p up to 0.75 and, beyond, v above S(z)
    F = model.cdf(z)
    v_range = (min(model.survival(z), 0.25), 0.25) if F > 0.75 else (0.25, 0.25)
    return _over_levels(
        model, lambda p, lv, q, log_f: r * np.log(q), -math.inf, (0.0, min(F, 0.75)), v_range
    )


def pwm(model: GtldModel, r: int, s: int) -> float:
    """Probability weighted moment E[X^r F(X)^s]."""
    if not (r >= 0 and s >= 0):
        raise ValueError(f"pwm orders r, s must be nonnegative, got {r}, {s}")
    _finite_arg(r, "pwm order r")
    _finite_arg(s, "pwm order s")

    what = f"pwm r={r}, s={s}"

    def log_h(p, lv, q, log_f):
        out = s * _log_levels(p, lv)[0]
        if r:
            _finite(q[: p.size], what)
            out += r * np.log(q)
        return out

    return _over_levels(model, log_h, _screen_tail(model, what, r - 1, 1))


def mgf(model: GtldModel, t: float) -> float:
    """Moment generating function E[e^(tX)]."""
    if math.isnan(t):
        raise ValueError("mgf needs an argument t, got nan")

    def log_h(p, lv, q, log_f):
        return t * q

    a = _screen_tail(model, f"mgf t={t}", -1, 1, t)
    return _over_levels(model, log_h, a, spec=_RELATIVE)


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
    """integral of f^rho over (lower or support_low, inf), as the integral
    of f(Q(p))^(rho - 1) over the levels.

    Existence is decided before any integrand call: in the tail by
    ``_screen_tail``, and over the whole support also at the low edge by
    ``_screen_edge``; the tail's verdict comes first.
    """
    if lower is not None:
        if math.isnan(lower):
            raise ValueError("the entropy integral's lower limit is nan")
        _finite_arg(lower, "the entropy integral's lower limit")
    truncated = lower is not None and lower > model.support_low

    def log_h(p, lv, q, log_f):
        return (rho - 1.0) * log_f

    what = f"density-power integral rho={rho}"
    a = _screen_tail(model, what, -rho, rho)
    if not truncated:
        _screen_edge(model, what, rho)
        return _over_levels(model, log_h, a, log_f=True)
    # the levels above F(lower): p up to 0.75 and v below S(lower)
    p_range = (min(model.cdf(lower), 0.75), 0.75)
    v_top = min(model.survival(lower), 0.25)
    return _over_levels(model, log_h, a, p_range=p_range, v_range=(0.0, v_top), log_f=True)


def renyi_entropy(model: GtldModel, rho: float, lower: float | None = None) -> float:
    """Renyi entropy (1/(1-rho)) log integral(f^rho).

    ``lower`` optionally truncates the integration range above the support
    infimum; published reference values for parameter sets whose density
    power is non-integrable at the edge correspond to a truncated range
    (see the package docs), and the truncation used is always explicit here.
    """
    if not rho > 0 or rho == 1:
        raise ValueError("rho must be positive and != 1")
    _finite_arg(rho, "rho")
    val = _density_power_integral(model, rho, lower)
    if val <= 0:
        raise DivergenceError("density-power integral evaluated to a non-positive value")
    return math.log(val) / (1.0 - rho)


def q_entropy(model: GtldModel, q: float, lower: float | None = None) -> float:
    """q-entropy (1/(q-1)) log(1 - integral(f^q)); needs integral(f^q) < 1."""
    if not q > 0 or q == 1:
        raise ValueError("q must be positive and != 1")
    _finite_arg(q, "q")
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
    _finite_arg(n, "residual moment order n")
    _finite_arg(t, "residual moment age t")
    s = model.survival(t)
    if s <= 0.0:
        raise ZeroDivisionError("survival(t) is 0; residual life undefined")
    what = f"residual moment n={n}"

    # E[(X - t)^n | X > t] is the integral over w in (0, 1) of
    # (Q(1 - S(t) w) - t)^n: no division by S(t) is left to magnify an
    # error.  A Q past the float range at w >= 1/2 puts the moment past it.
    log_half = math.log(0.5 * s)

    def log_h(p, lv, q, log_f):
        _finite(q[lv >= log_half], what)
        return n * np.log(np.maximum(q - t, 0.0))

    a = _screen_tail(model, what, n - 1, 1)
    return _over_levels(
        model, log_h, a, p_range=(0.0, 0.0), v_range=(0.0, 1.0), v_scale=s, spec=_RELATIVE
    )


def reversed_residual_moment(model: GtldModel, n: int, t: float) -> float:
    """E[(t - X)^n | X <= t]; n = 1 is the mean waiting time."""
    if not n >= 0:
        raise ValueError(f"reversed residual moment order n must be >= 0, got {n}")
    if math.isnan(t):
        raise ValueError("reversed residual moment needs an age t, got nan")
    _finite_arg(n, "reversed residual moment order n")
    _finite_arg(t, "reversed residual moment age t")
    if n == 0:
        return 1.0
    F = model.cdf(t)
    if F <= 0.0:
        raise ZeroDivisionError("cdf(t) is 0; reversed residual life undefined")

    # E[(t - X)^n | X <= t] is the integral over w in (0, 1) of (t - Q(F(t) w))^n
    def integrand(w):
        return np.maximum(t - _kernels._quantile_core(*model.kernel_args, F * w), 0.0) ** n

    return _integrate(integrand, [(0.0, 1.0)], _RELATIVE)


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
    _finite_arg(m, "cigf order m")
    _finite_arg(n, "cigf order n")
    if n == 0:
        raise DivergenceError(
            "cigf(m, 0) diverges: F^m tends to 1 on an unbounded support"
        )

    what = f"cigf m={m}, n={n}"

    # F^m S^n dx = p^m (1 - p)^n dp / f(Q(p))
    def log_h(p, lv, q, log_f):
        _finite(q[: p.size], what)
        log_F, log_S = _log_levels(p, lv)
        return m * log_F + n * log_S - log_f

    a = _screen_tail(model, what, 0, n)
    return _over_levels(model, log_h, a, spec=_CIGF_SPEC, log_f=True)
