"""The hot numerical kernels, in NumPy: per-point cdf, sf and log-density,
the six fit objectives (``objective``) and their exact gradients
(``objective_grad``), and the per-fit ``Plan`` those two take in place of a
bare sample.  ``BACKEND`` names the implementation, ``"python"``, for the
reports that record it.

Each per-point quantity has one core (``_cdf_core``, ``_sf_core``,
``_logpdf_core``): one formula, on a float array, under its caller's
errstate.  Points from outside take one way in, ``_at_points`` (x of any
shape as a float array, the cores' errstate, a scalar x giving a Python
float), through which the model's cdf, survival, logpdf and pdf run.
Levels have one core too, ``_quantile_core``: Q at levels p and at
survival levels v, and log f there, which the model's quantile and sample
and the property integrals (on their quadrature nodes) call.

Who holds the errstate: the cores (the four above, ``_g_parts``,
``_g_inverse`` and the objectives' ``_objective``) rely on their caller;
``_at_points``, ``objective`` and ``objective_grad`` each hold their own
for outside callers; and a fit holds one around all its starts and calls
``_objective`` directly, so an evaluation enters none.  Every errstate
gtld enters ignores underflow, which the formulas take as the right limit
(e^(-a) = 0 in ``_log_u`` among them), so no result depends on the
caller's underflow setting.

This module alone numbers the families and the methods, by their positions
in ``_FAMILIES`` and ``METHOD_IDS``:

    families: 0=gte 1=gtr 2=gtw 3=gtmw 4=gtwe 5=gtb12 6=gtl 7=gtp1
    methods:  0=ml 1=ols 2=wls 3=cvm 4=ad 5=rtad

``_FAMILIES`` is the only per-family table (shape names, log x needs,
support and edge, G's growth at infinity, start shapes).  G and log G'
are one dispatch on the family id, ``_g_parts``, and G^-1, which the
quantile function Q(p) = G^-1(-log(1 - y) / beta) takes, is one beside
it, ``_g_inverse``, with log G' at G^-1 (``_log_gp_inverse``).

The objectives take their sample as a ``Plan``: the sorted sample with the
pieces that do not depend on the parameters (log x, the rank weights),
built once per fit, so an evaluation does only the arithmetic that changes
from one parameter vector to the next.  They take nothing else: the fits,
the objective functions of ``estimation`` and the GOF statistics' W^2 and
A^2 each build their plan.

At the sample sizes a fit sees, an evaluation's cost is NumPy's per-call
overhead, so ``_objective`` makes as few calls as it can, each on the
operands the per-point formulas name: arrays written in place, scalars
passed as 0-d arrays (the plan's slots), one ``_x_over_expm1`` call for the
chain rule and the family's own derivative, and, for the ml gradient, one
``sum(axis=1)`` over a C-contiguous block of every row it sums.  Values,
clamp counts and gradients have the same bytes as the formulas evaluated
one array at a time (``tests/test_plan_kernel.py`` holds that oracle).
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

BACKEND = "python"

_LOG_CLAMP = 1e-300
_BIG = 1e10
_Y_CLIP = 1.0 - 1e-16  # clamp on the inner level y from p, before log1p at p -> 1
_LOG2 = 0.6931471805599453
# scalar slots of one evaluation (their order is set in _objective)
_N_SLOTS = 9


def _const(value):
    """A read-only 0-d array: a ufunc takes it faster than a Python float."""
    out = np.array(value)
    out.flags.writeable = False
    return out


_ZERO, _ONE, _TWO, _LOG2_0D, _CLAMP_0D = map(_const, (0.0, 1.0, 2.0, _LOG2, _LOG_CLAMP))


class _Family(NamedTuple):
    """A row of ``_FAMILIES``, its position the family id.  The first shape,
    alpha, is a power for gtw/gtmw/gtwe/gtb12, the Lomax inner scale for gtl
    and the Pareto lower bound for gtp1, whose support is (alpha, inf)."""

    name: str
    shapes: tuple  # the shape parameters' names, in kernel slot order
    g_log_x: bool  # G needs log x
    gp_log_x: bool  # log G' needs log x
    edge: Callable  # alpha -> (k, c, low), G(x) ~ c*(x - low)^k at the low end
    # alpha -> (p, c), G(x) ~ c*x^p as x -> inf; p = 0 stands for c*log x,
    # p = inf for a G that outgrows every power of x
    tail: Callable
    start: Callable  # the sample -> the shape values ``fit`` starts from


_FAMILIES = (
    _Family("gte", (), False, False, lambda a: (1.0, 1.0, 0.0),
            lambda a: (1.0, 1.0), lambda xs: ()),
    _Family("gtr", (), False, True, lambda a: (2.0, 0.5, 0.0),
            lambda a: (2.0, 0.5), lambda xs: ()),
    _Family("gtw", ("alpha",), True, True, lambda a: (a, 1.0, 0.0),
            lambda a: (a, 1.0), lambda xs: (1.0,)),
    _Family("gtmw", ("alpha", "gamma"), True, True, lambda a: (a, 1.0, 0.0),
            lambda a: (math.inf, 1.0), lambda xs: (1.0, 0.1)),
    _Family("gtwe", ("alpha",), True, True, lambda a: (a, 1.0, 0.0),
            lambda a: (math.inf, 1.0), lambda xs: (1.0,)),
    _Family("gtb12", ("alpha",), True, True, lambda a: (a, 1.0, 0.0),
            lambda a: (0.0, a), lambda xs: (1.0,)),
    _Family("gtl", ("alpha",), False, False, lambda a: (1.0, 1.0 / a, 0.0),
            lambda a: (0.0, 1.0), lambda xs: (1.0,)),
    _Family("gtp1", ("alpha",), False, True, lambda a: (1.0, 1.0 / a, a),
            lambda a: (0.0, 1.0), lambda xs: (0.9 * float(np.min(xs)),)),
)
FAMILY_IDS = {row.name: fam for fam, row in enumerate(_FAMILIES)}
_N_SHAPES = tuple(len(row.shapes) for row in _FAMILIES)
# a plan keeps log x where G needs it, and for ml also where log G' does
_LOG_X = tuple(row.g_log_x for row in _FAMILIES)
_LOG_X_ML = tuple(row.g_log_x or row.gp_log_x for row in _FAMILIES)
METHOD_IDS = {name: mid for mid, name in enumerate(("ml", "ols", "wls", "cvm", "ad", "rtad"))}


class Plan:
    """The sample-only pieces of one family's objective under one method.

    ``xs`` is the ascending-sorted sample; ``lx`` its log where the family
    uses it (else None); ``target`` the fitted plotting positions (ols and
    wls i/(n+1), cvm (2i-1)/(2n)); ``w`` the weights (wls's, or ad and
    rtad's 2i-1) and ``w_rev`` ad and rtad's reversed, the two rows of
    ``ww``.  ``len(plan)`` is the sample size.

    A plan also holds its evaluations' scalar slots (``scalars``, seen as
    the 0-d arrays ``scalar_views``), which every evaluation rewrites: one
    plan serves one thread at a time.
    """

    __slots__ = (
        "fam", "method", "xs", "n", "lx", "target", "w", "w_rev", "ww", "scalars", "scalar_views"
    )

    def __init__(self, xs, fam, method):
        if fam not in range(len(_FAMILIES)):
            raise ValueError(f"unknown family id {fam}")
        if method not in range(len(METHOD_IDS)):
            raise ValueError(f"unknown method id {method}")
        xs = np.asarray(xs, dtype=np.float64)
        n = xs.shape[0]
        self.fam, self.method, self.xs, self.n = fam, method, xs, n
        self.scalars = np.empty(_N_SLOTS)
        self.scalar_views = tuple(self.scalars[i, ...] for i in range(_N_SLOTS))
        self.lx = self.target = self.w = self.w_rev = self.ww = None
        if (_LOG_X_ML if method == 0 else _LOG_X)[fam]:
            # x <= 0 (outside the support) gives -inf or NaN, as G does
            with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
                self.lx = np.log(xs)
        if method == 0:
            return
        i = np.arange(1, n + 1, dtype=np.float64)
        if method in (1, 2):  # ols, wls
            self.target = i / (n + 1)
            if method == 2:
                self.w = (n + 1.0) ** 2 * (n + 2.0) / (i * (n - i + 1.0))
        elif method == 3:  # cvm
            self.target = (2.0 * i - 1.0) / (2.0 * n)
        else:  # ad, rtad
            self.ww = np.empty((2, n))
            self.w, self.w_rev = self.ww
            np.subtract(2.0 * i, 1.0, out=self.w)
            self.w_rev[:] = self.w[::-1]

    def __len__(self):
        return self.n


def _log_u(a, out=None):
    """log(1 - e^{-a}) for a >= 0 without cancellation on either branch.

    log1p(-e^{-a}) is taken everywhere, then log(-expm1(-a)) is copied in
    where a < log 2; callers hold ``np.errstate`` for the values a branch
    discards.  ``out``, if given, receives the result.
    """
    na = np.negative(a)
    out = np.exp(na, out=out)
    np.negative(out, out=out)
    np.log1p(out, out=out)
    np.expm1(na, out=na)
    np.negative(na, out=na)
    np.log(na, out=na)
    np.copyto(out, na, where=np.less(a, _LOG2_0D))
    return out


def _x_over_expm1(a):
    """a / expm1(a), with its limits 1 at a = 0 and 0 at a = inf.

    The quotient is NaN only at a = 0, inf or NaN, and is >= 0 elsewhere,
    so fmax with (a == 0) replaces exactly the NaNs, by 1 at a = 0, else 0.
    """
    out = np.expm1(a)
    np.divide(a, out, out=out)
    return np.fmax(out, np.equal(a, _ZERO), out=out)


def _g_parts(fam, s1, s2, beta, x, lx=None, lgp=False, grad=False, out=None):
    """a = beta*G(x) for family ``fam`` with shapes (s1, s2), and what a
    caller asks for; with beta = 1, a is G itself.

    Returns (a, log_gp, dlog_g, dlog_gp, phi).  ``log_gp`` = log G'(x) when
    ``lgp``, else None.  With ``grad``, ``dlog_g`` holds one array per shape
    parameter psi, d log G / d psi, and ``phi`` = a / expm1(a); with both,
    ``dlog_gp`` holds the d log G' / d psi; what is not asked for is None.
    ``lx`` is log x when the caller has it (a ``Plan``), else it is
    computed here.

    With ``grad``, ``out`` is the caller's block of rows: a goes to its last
    row and the d log G' / d psi to its first rows.  gtwe, gtb12 and gtl
    take d log G / d alpha from y / expm1(y) (y = -x^alpha, G and G); they
    write y to the row before a, so one ``_x_over_expm1`` call on the last
    two rows gives it and phi.

    Callers hold ``np.errstate(over="ignore")``: gtwe's G = expm1(x^alpha)
    overflows to inf where x^alpha > 709.78, which is the right limit.
    """
    both = lgp and grad
    a_out = out[-1] if grad else None
    log_gp = dlog_g = dlog_gp = phi = None
    if fam == 0:  # gte: G = x
        a = np.multiply(beta, x, out=a_out)
        if lgp:
            log_gp = np.zeros_like(x)
        if grad:
            dlog_g = ()
        if both:
            dlog_gp = ()
    elif fam == 1:  # gtr: G = x^2/2
        a = np.multiply(0.5, x, out=a_out)
        a *= x
        a *= beta
        if lgp:
            log_gp = np.log(x) if lx is None else lx
        if grad:
            dlog_g = ()
        if both:
            dlog_gp = ()
    elif fam in (2, 3, 4, 5):
        if lx is None:
            lx = np.log(x)
        if fam == 2:  # gtw: G = x^alpha
            a = np.multiply(s1, lx, out=a_out)
            np.exp(a, out=a)
            a *= beta
            if lgp:
                log_gp = np.multiply(s1 - 1.0, lx)
                np.add(np.log(s1), log_gp, out=log_gp)
            if grad:
                dlog_g = (lx,)
            if both:
                dlog_gp = (np.add(1.0 / s1, lx, out=out[0]),)
        elif fam == 3:  # gtmw: G = x^alpha * exp(gamma*x)
            s2x = np.multiply(s2, x)
            a = np.multiply(s1, lx, out=a_out)
            a += s2x
            np.exp(a, out=a)
            a *= beta
            if lgp:
                r = np.add(s1, s2x)
                log_gp = np.multiply(s1 - 1.0, lx)
                log_gp += s2x
                log_gp += np.log(r)
            if grad:
                dlog_g = (lx, x)
            if both:
                d1 = np.divide(1.0, r, out=out[0])
                d1 += lx
                d2 = np.divide(x, r, out=out[1])
                d2 += x
                dlog_gp = (d1, d2)
        elif fam == 4:  # gtwe: G = exp(x^alpha) - 1
            xa = np.multiply(s1, lx)
            np.exp(xa, out=xa)
            a = np.expm1(xa, out=a_out)
            a *= beta
            if lgp:
                log_gp = np.multiply(s1 - 1.0, lx)
                np.add(np.log(s1), log_gp, out=log_gp)
                log_gp += xa
            if grad:
                # d log G / d alpha = lx * x^alpha / (1 - exp(-x^alpha))
                np.negative(xa, out=out[-2])
                y = _x_over_expm1(out[-2:])
                phi = y[1]
                dlog_g = (np.multiply(lx, y[0], out=y[0]),)
            if both:
                d = np.add(_ONE, xa, out=out[0])
                d *= lx
                dlog_gp = (np.add(1.0 / s1, d, out=d),)
        else:  # gtb12: G = log(1 + x^alpha), alpha*log(x) where x^alpha overflows
            s1lx = np.multiply(s1, lx)
            xa = np.exp(s1lx)
            big = np.isinf(xa)
            G = np.log1p(xa, out=out[-2] if grad else None)
            np.copyto(G, s1lx, where=big)
            a = np.multiply(beta, G, out=a_out)
            if lgp:
                log_gp = np.multiply(s1 - 1.0, lx)
                np.add(np.log(s1), log_gp, out=log_gp)
                log_gp -= G
            if grad:
                # x^alpha / G = expm1(G) / G, and d log G / d alpha = 1/alpha
                # where G = alpha*log(x)
                y = _x_over_expm1(out[-2:])
                phi = y[1]
                opx = np.add(_ONE, xa)
                d = np.multiply(opx, y[0], out=y[0])
                np.divide(lx, d, out=d)
                np.copyto(d, 1.0 / s1, where=big)
                dlog_g = (d,)
            if both:
                d = np.divide(lx, opx, out=out[0])
                dlog_gp = (np.add(d, 1.0 / s1, out=d),)
    elif fam == 6:  # gtl: G = log(1 + x/alpha)
        G = np.divide(x, s1, out=out[-2] if grad else None)
        np.log1p(G, out=G)
        a = np.multiply(beta, G, out=a_out)
        if lgp or grad:
            r = np.add(s1, x)
        if lgp:
            log_gp = np.log(r)
            np.negative(log_gp, out=log_gp)
        if grad:
            # x / alpha = expm1(G)
            y = _x_over_expm1(out[-2:])
            phi = y[1]
            d = np.multiply(r, y[0], out=y[0])
            dlog_g = (np.divide(-1.0, d, out=d),)
        if both:
            dlog_gp = (np.divide(-1.0, r, out=out[0]),)
    elif fam == 7:  # gtp1: G = log(x/alpha), support (alpha, inf)
        G = np.divide(x, s1)
        np.log(G, out=G)
        a = np.multiply(beta, G, out=a_out)
        if lgp:
            log_gp = np.negative(np.log(x) if lx is None else lx)
        if grad:
            G *= s1
            dlog_g = (np.divide(-1.0, G, out=G),)
        if both:
            out[0] = 0.0
            dlog_gp = (out[0],)
    else:
        raise ValueError(f"unknown family id {fam}")
    if grad and phi is None:
        phi = _x_over_expm1(a)
    return a, log_gp, dlog_g, dlog_gp, phi


def _gtmw_inverse(y, alpha: float, gamma: float) -> np.ndarray:
    """Inverse of G(x) = x^alpha * exp(gamma*x), elementwise.

    Newton's method on h(z) = alpha*z + gamma*e^z - log y in z = log x, so
    that x keeps its relative accuracy however small y is.  h is increasing
    and convex: from a start right of the root the iterates fall onto it
    monotonically, and from one left of it the first step lands right of
    it.  The start min(log(y)/alpha, log(log(y)/gamma)), the second term
    only where log y > 0, is right of the root or one short step left of it.
    """
    y = np.asarray(y, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
        ly = np.log(np.atleast_1d(y))
        z = np.minimum(ly / alpha, np.where(ly > 0.0, np.log(ly / gamma), np.inf))
    idx = np.flatnonzero(np.isfinite(z))  # y = 0 gives x = 0, y = inf gives inf
    for _ in range(100):
        if idx.size == 0:
            break
        zi, ez = z[idx], np.exp(z[idx])
        step = (alpha * zi + gamma * ez - ly[idx]) / (alpha + gamma * ez)
        z[idx] = zi - step
        idx = idx[np.abs(step) > 1e-15 * np.maximum(1.0, np.abs(zi))]
    return np.exp(z).reshape(y.shape)


def _g_inverse(fam, s1, s2, y):
    """x with G(x) = y for family ``fam`` with shapes (s1, s2) on the float
    array y, under the caller's errstate: an x past the float range is inf.
    y keeps its layout, 0-d or 1-d: a ufunc can round a 0-d operand
    differently from a 1-d one."""
    if fam == 0:  # gte
        return y + 0.0
    if fam == 1:  # gtr
        return np.sqrt(2.0 * y)
    if fam == 2:  # gtw
        return y ** (1.0 / s1)
    if fam == 3:  # gtmw
        return _gtmw_inverse(y, s1, s2)
    if fam == 4:  # gtwe
        return np.log1p(y) ** (1.0 / s1)
    if fam == 5:  # gtb12
        return np.expm1(y) ** (1.0 / s1)
    if fam == 6:  # gtl
        return s1 * np.expm1(y)
    if fam == 7:  # gtp1
        return s1 * np.exp(y)
    raise ValueError(f"unknown family id {fam}")


def _log_gp_inverse(fam, s1, s2, y, x):
    """log G'(x) at x = G^-1(y), under the caller's errstate, in closed form
    in y (gtmw: and x), so that it stays finite where x lies past the float
    range or rounds onto the support's low end."""
    if fam == 0:  # gte: G' = 1
        return 0.0
    if fam == 1:  # gtr: G' = x = sqrt(2y)
        return 0.5 * np.log(2.0 * y)
    if fam == 2:  # gtw: G' = alpha*x^(alpha - 1), x^alpha = y
        return math.log(s1) + (1.0 - 1.0 / s1) * np.log(y)
    if fam == 3:  # gtmw: G' = G*(alpha/x + gamma)
        return np.log(y) + np.log(s1 / x + s2)
    if fam == 4:  # gtwe: G' = alpha*x^(alpha - 1)*(1 + y), x^alpha = log1p(y)
        xa = np.log1p(y)
        return math.log(s1) + (1.0 - 1.0 / s1) * np.log(xa) + xa
    if fam == 5:  # gtb12: G' = alpha*x^(alpha - 1)*e^-y, x^alpha = expm1(y)
        return math.log(s1) + (1.0 - 1.0 / s1) * (y + np.log(-np.expm1(-y))) - y
    if fam in (6, 7):  # gtl: G' = 1/(alpha + x); gtp1: 1/x; both e^-y/alpha
        return -y - math.log(s1)
    raise ValueError(f"unknown family id {fam}")


def _quantile_core(fam, s1, s2, beta, theta, lam, p, lv=None, log_f=False):
    """Q at the levels p, followed by Q(1 - v) at the survival levels v of
    log ``lv`` if given, on float arrays under the caller's errstate; with
    ``log_f``, the pair (Q, log f(Q)).

    Q = G^-1(-log(1 - y) / beta), where the inner level y = u solves
    F = (1 + lam) A - lam A^2 with A = y^theta; a Q past the float range is
    inf.  From p, y is clamped below 1 before log1p.  From log v, A is
    solved for W = 1 - A in S = W ((1 - lam) + lam W), and log(1 - y) is
    taken from log y = log1p(-W) / theta through ``_log_u``, or as
    log W - log theta where W is below 1e-100: so Q(1 - v) keeps its
    accuracy as v -> 0, below the float range of v too.  log f(Q) is taken
    from the level, not from Q: log(theta beta) + log G'(Q) + log(1 - y) +
    (theta - 1) log y + log((1 + lam) - 2 lam A), with log G' in closed
    form (``_log_gp_inverse``).
    """
    disc = np.sqrt(np.maximum((1.0 + lam) ** 2 - 4.0 * p * lam, 0.0))
    A = 2.0 * p / ((1.0 + lam) + disc)
    y = np.minimum(A ** (1.0 / theta), _Y_CLIP)
    l1y = np.log1p(-y)
    if log_f:
        ly = np.log(A) / theta
        tail = (1.0 + lam) - 2.0 * lam * A
    if lv is not None:
        if lam == 1.0:  # W = sqrt(v)
            lW = 0.5 * lv
        else:
            den = (1.0 - lam) + np.sqrt(np.maximum((1.0 - lam) ** 2 + 4.0 * lam * np.exp(lv), 0.0))
            lW = (lv + _LOG2) - np.log(den)
        W = np.exp(lW)
        ly_v = np.log1p(-W) / theta
        l1y_v = _log_u(-ly_v)
        np.copyto(l1y_v, lW - math.log(theta), where=W < 1e-100)
        l1y = np.concatenate([l1y, l1y_v])
        if log_f:
            ly = np.concatenate([ly, ly_v])
            tail = np.concatenate([tail, (1.0 - lam) + 2.0 * lam * W])
    g = -l1y / beta
    x = _g_inverse(fam, s1, s2, g)
    if not log_f:
        return x
    lgp = _log_gp_inverse(fam, s1, s2, g, x)
    return x, math.log(theta * beta) + lgp + l1y + (theta - 1.0) * ly + np.log(tail)


def _cdf_core(fam, s1, s2, beta, theta, lam, x):
    """F(x) = (1+lam) v - lam v^2, v = u^theta, on a float array, under
    the caller's errstate."""
    log_u = _log_u(_g_parts(fam, s1, s2, beta, x)[0])
    v = np.exp(theta * log_u)
    return v * ((1.0 + lam) - lam * v)


def _sf_core(fam, s1, s2, beta, theta, lam, x):
    """S(x) = (1 - v)(1 - lam v), 1 - v through expm1, on a float array,
    under the caller's errstate."""
    log_u = _log_u(_g_parts(fam, s1, s2, beta, x)[0])
    v = np.exp(theta * log_u)
    one_minus_v = -np.expm1(theta * log_u)
    return one_minus_v * (1.0 - lam * v)


def _logpdf_core(fam, s1, s2, beta, theta, lam, x):
    """log f(x) on a float array, under the caller's errstate; NaN where
    its terms meet as inf - inf or 0 * inf (u = 0 among them), which
    ``GtldModel._logpdf`` fills in."""
    a, log_gp = _g_parts(fam, s1, s2, beta, x, lgp=True)[:2]
    log_u = _log_u(a)
    v = np.exp(theta * log_u)
    tail = (1.0 + lam) - 2.0 * lam * v
    return np.log(theta * beta) + log_gp - a + (theta - 1.0) * log_u + np.log(tail)


def _at_points(x, fn, *args):
    """``fn(*args, xv)``, xv the points x as a float array of at least one
    dimension, in the errstate the cores' discarded branches and limits
    need; a scalar x gives a Python float.  The one way in from outside
    for points: a scalar runs as a one-element array, whose bytes it keeps."""
    xv = np.atleast_1d(np.asarray(x, dtype=np.float64))
    with np.errstate(all="ignore"):
        out = fn(*args, xv)
    return out if np.ndim(x) else float(out[0])


# objective and objective_grad hold the errstate _objective relies on; as a
# decorator it is built once, and entering it costs half a with-statement's
@np.errstate(all="ignore")
def objective(method, fam, s1, s2, beta, theta, lam, plan):
    """Evaluate one fitting objective on the sample of ``plan``.

    ``plan`` is a ``Plan`` built for (fam, method).  Returns
    (value, clamp_count).  Non-finite values are replaced by a large finite
    constant so quasi-Newton line searches never see NaN.
    """
    return _objective(method, fam, s1, s2, beta, theta, lam, plan, False)[:2]


@np.errstate(all="ignore")
def objective_grad(method, fam, s1, s2, beta, theta, lam, plan):
    """``objective`` plus its exact gradient.

    Returns (value, clamp_count, grad): value and clamp count are those of
    ``objective``; grad is d value / d (shapes..., beta, theta, lam), an
    array.  Terms held at the log clamp (ad, rtad) contribute no
    derivative, and where the value is replaced by the large constant the
    gradient is zero.
    """
    value, clamps, grad = _objective(method, fam, s1, s2, beta, theta, lam, plan, True)
    return value, clamps, np.array(grad)


def _objective(method, fam, s1, s2, beta, theta, lam, plan, want_grad):
    """The six objectives, and on request their gradients, from shared pieces.

    With a = beta*G, L = log u and v = exp(theta*L), every objective term
    depends on (shapes, beta) only through a, log G' and L, and on theta
    through v (and, for ml, theta itself).  Per point dL/dlog a =
    a/expm1(a) = phi, so dL/dbeta = phi/beta and dL/dpsi = phi * dlog G/dpsi;
    a term Q(L, v) has dQ/dtheta = (dQ/dL) * L/theta (theta > 0).  ``chain``
    stacks these rows, so the gradient of sum(w*Q) over (shapes, beta,
    theta) is chain @ (w * dQ/dL); the lambda component and ml's terms in
    log G', a, log beta and log theta are added on their own.

    Each evaluation makes as few NumPy calls as it can.  Per-point arrays
    are written in place (``out=``); the scalar operands are 0-d arrays, the
    plan's slots and module constants; and ml's gradient writes every
    per-point row it sums (the log f terms, the d log G' / d psi, a, L and
    d log f / d lam) into one C-contiguous block that a single
    ``sum(axis=1)`` reduces, each row's sum having the bytes of its own 1-D
    sum, and assembles the gradient from those sums on Python floats.  Every
    operation is the one the per-point formulas name, on operands of the
    same layout: a transcendental ufunc can round differently on a strided
    view (log of a reversed array is not the reversed log, bit for bit).
    """
    if plan.fam != fam or plan.method != method:
        raise ValueError(
            f"plan built for family {plan.fam}, method {plan.method}; "
            f"called with family {fam}, method {method}"
        )
    n = plan.n
    k = _N_SHAPES[fam]
    ml = method == 0
    clamps = 0
    plan.scalars[:] = (
        beta, theta, theta - 1.0, 2.0 * lam, 1.0 + lam, 2.0 * lam * theta, lam, n,
        np.log(theta * beta) if ml else 0.0,
    )
    beta_, theta_, theta1_, lam2_, lam1_, lam2theta_, lam_, n_, log_tb_ = plan.scalar_views
    block = None
    if want_grad:
        # ml: [log f terms, d log G'/d psi (k rows), scratch, a, L,
        # d log f/d lam, 2 lam theta v / tail], all summed; else
        # [scratch, a]
        block = np.empty((k + 6, n) if ml else (2, n))
    a, log_gp, dlog_g, dlog_gp, phi = _g_parts(
        fam, s1, s2, beta_, plan.xs, plan.lx, ml, want_grad,
        block[1:k + 3] if ml and want_grad else block,
    )
    log_u = _log_u(a, block[k + 3] if ml and want_grad else None)
    tl = np.multiply(theta_, log_u)
    if ml:  # negative log-likelihood
        v = np.exp(tl, out=tl)
        tail = np.multiply(lam2_, v)
        np.subtract(lam1_, tail, out=tail)
        terms = np.add(log_tb_, log_gp, out=block[0] if want_grad else None)
        terms -= a
        t = np.multiply(theta1_, log_u)
        terms += t
        terms += np.log(tail, out=t)
        if want_grad:
            over_tail = block[k + 4:]
            T, D = over_tail
            np.multiply(_TWO, v, out=T)
            np.subtract(_ONE, T, out=T)
            np.multiply(lam2theta_, v, out=D)
            over_tail /= tail
            sums = block.sum(axis=1)
            value = -sums[0]
        else:
            value = -terms.sum()
    else:
        v = np.exp(tl)
        lv = np.multiply(lam_, v)
        if method < 4:  # ols, wls, cvm
            F = np.subtract(lam1_, lv)
            F *= v
            resid = np.subtract(F, plan.target, out=F)
            sq = np.square(resid)
            if method == 2:  # wls
                sq *= plan.w
            value = sq.sum()
            if method == 3:  # cvm
                value = 1.0 / (12.0 * n) + value
        else:  # ad, rtad
            FS = np.empty((2, n))
            F, S = FS
            np.subtract(lam1_, lv, out=F)
            F *= v
            one_minus_v = np.expm1(tl)
            np.negative(one_minus_v, out=one_minus_v)
            np.subtract(_ONE, lv, out=lv)
            np.multiply(one_minus_v, lv, out=S)  # (1 - v)(1 - lam v)
            clamps = int(np.count_nonzero(np.less(FS, _CLAMP_0D)))
            FSc = np.maximum(FS, _CLAMP_0D)
            Fc, Sc = FSc
            if method == 4:  # ad
                t = np.log(Sc[::-1])
                t += np.log(Fc)
                t *= plan.w
                value = -n - t.sum() / n
            else:  # rtad
                t = np.log(Sc[::-1])
                t *= plan.w
                value = n / 2.0 - 2.0 * F.sum() - t.sum() / n
    if not math.isfinite(value):
        return _BIG, clamps, [0.0] * (k + 3) if want_grad else None
    if not want_grad:
        return value, clamps, None

    chain = np.zeros((k + 2, n))
    if k:
        # phi = 0 where e^-a underflows (gtwe's G = inf among them), and
        # there d log u / d psi vanishes however large d log G / d psi is
        pos = np.greater(phi, _ZERO)
        for j in range(k):
            np.multiply(phi, dlog_g[j], out=chain[j], where=pos)
    np.divide(phi, beta_, out=chain[k])
    # log u = -inf only where u = 0, where every term's theta derivative
    # (a multiple of u^theta log u) vanishes; a finite ml value has no
    # such point (nor a NaN log u), so ml takes every point
    np.divide(log_u, theta_, out=chain[k + 1], where=ml or np.greater(a, _ZERO))
    if ml:
        # d log f / dL = (theta - 1) - 2 lam theta v / tail
        dL = np.subtract(theta1_, D, out=D)
        g = (chain @ dL).tolist()
        s = sums.tolist()
        for j in range(k):
            g[j] += s[1 + j] - float(a @ dlog_g[j])
        g[k] += (n - s[k + 2]) / beta
        g[k + 1] += (n + s[k + 3]) / theta
        g.append(s[k + 4])
        return value, clamps, [-gj for gj in g]
    dF_dL = np.multiply(lam2_, v)
    np.subtract(lam1_, dF_dL, out=dF_dL)
    dF_dL *= theta_
    dF_dL *= v
    if method < 4:  # d sum(w resid^2) = 2 sum(w resid dF)
        dF_dlam = np.expm1(tl)
        np.negative(dF_dlam, out=dF_dlam)
        dF_dlam *= v
        wr = np.multiply(plan.w, resid) if method == 2 else resid
        q = np.multiply(_TWO, wr)
    else:
        dF_dlam = np.multiply(v, one_minus_v)
        # -sum(w_i log S_{n+1-i}) / n weighs log S_j by -w_{n+1-j} / n;
        # clamped terms have no derivative
        if method == 4:  # ad: q = w_rev / (n S) - w / (n F)
            r = np.zeros((2, n))
            np.divide(plan.ww, FSc, out=r, where=np.greater_equal(FS, _CLAMP_0D))
            r /= n_
            q = np.subtract(r[1], r[0])
        else:  # rtad
            q = np.zeros(n)
            np.divide(plan.w_rev, Sc, out=q, where=np.greater_equal(S, _CLAMP_0D))
            q /= n_
            q -= _TWO
    dF_dL *= q
    grad = (chain @ dF_dL).tolist()
    grad.append(float(q @ dF_dlam))
    return value, clamps, grad
