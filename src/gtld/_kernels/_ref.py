"""The NumPy kernels: per-point cdf, sf and log-density, and the six fit
objectives with their exact gradients.

Family and method identifiers are small integers:

    families: 0=gte 1=gtr 2=gtw 3=gtmw 4=gtwe 5=gtb12 6=gtl 7=gtp1
    methods:  0=ml 1=ols 2=wls 3=cvm 4=ad 5=rtad

The objectives take their sample as a ``Plan``: the sorted sample with the
pieces that do not depend on the parameters (log x, the rank weights),
built once per fit, so an evaluation does only the arithmetic that changes
from one parameter vector to the next.  Given a bare sorted array they
build the plan on the spot.
"""

from __future__ import annotations

import math

import numpy as np

NAME = "python"

_LOG_CLAMP = 1e-300
_BIG = 1e10
_LOG2 = 0.6931471805599453

# families whose G needs log x always (gtw, gtmw, gtwe, gtb12), and those
# whose log G' alone needs it (gtr, gtp1)
_LOG_X = (False, False, True, True, True, True, False, False)
_LOG_X_ML = (False, True, True, True, True, True, False, True)


class Plan:
    """The sample-only pieces of one family's objective under one method.

    ``xs`` is the ascending-sorted sample; ``lx`` its log where the family
    uses it (else None); ``target`` the fitted plotting positions (ols and
    wls i/(n+1), cvm (2i-1)/(2n)); ``w`` the weights (wls's, or ad and
    rtad's 2i-1) and ``w_rev`` ad and rtad's reversed.  ``len(plan)`` is
    the sample size.
    """

    __slots__ = ("fam", "method", "xs", "n", "lx", "target", "w", "w_rev")

    def __init__(self, xs, fam, method):
        if fam not in range(8):
            raise ValueError(f"unknown family id {fam}")
        xs = np.asarray(xs, dtype=np.float64)
        n = xs.shape[0]
        self.fam, self.method, self.xs, self.n = fam, method, xs, n
        self.lx = self.target = self.w = self.w_rev = None
        if (_LOG_X_ML if method == 0 else _LOG_X)[fam]:
            # x <= 0 (outside the support) gives -inf or NaN, as G does
            with np.errstate(divide="ignore", invalid="ignore"):
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
        elif method in (4, 5):  # ad, rtad
            self.w = 2.0 * i - 1.0
            self.w_rev = self.w[::-1].copy()
        else:
            raise ValueError(f"unknown method id {method}")

    def __len__(self):
        return self.n


def _log_u(a):
    """log(1 - e^{-a}) for a >= 0 without cancellation on either branch.

    Each branch is evaluated everywhere and np.where keeps the accurate one;
    callers hold ``np.errstate`` for the values the other branch discards.
    """
    na = -a
    return np.where(a < _LOG2, np.log(-np.expm1(na)), np.log1p(-np.exp(na)))


def _x_over_expm1(a):
    """a / expm1(a), with its limits 1 at a = 0 and 0 at a = inf."""
    out = a / np.expm1(a)
    return np.where(np.isnan(out), a == 0.0, out)


def _g_parts(fam, s1, s2, x, lx=None, lgp=False, grad=False):
    """G(x) for family ``fam`` with shapes (s1, s2), and what a caller asks for.

    Returns (G, log_gp, dlog_g, dlog_gp).  ``log_gp`` = log G'(x) when
    ``lgp``, else None; with ``grad``, ``dlog_g`` holds one array per shape
    parameter psi, d log G / d psi, else it is None; ``dlog_gp`` holds the
    d log G' / d psi when both are asked for, else it is None.  ``lx`` is
    log x when the caller has it (a ``Plan``), else it is computed here.

    Callers hold ``np.errstate(over="ignore")``: gtwe's G = expm1(x^alpha)
    overflows to inf where x^alpha > 709.78, which is the right limit.
    """
    both = lgp and grad
    if fam == 0:  # gte: G = x
        return x, np.zeros_like(x) if lgp else None, () if grad else None, () if both else None
    if fam == 1:  # gtr: G = x^2/2
        if lgp and lx is None:
            lx = np.log(x)
        return 0.5 * x * x, lx if lgp else None, () if grad else None, () if both else None
    if lx is None and fam in (2, 3, 4, 5):  # the families of _LOG_X
        lx = np.log(x)
    log_gp = dlog_g = dlog_gp = None
    if fam == 2:  # gtw: G = x^alpha
        G = np.exp(s1 * lx)
        if lgp:
            log_gp = np.log(s1) + (s1 - 1.0) * lx
        if grad:
            dlog_g = (lx,)
        if both:
            dlog_gp = (1.0 / s1 + lx,)
    elif fam == 3:  # gtmw: G = x^alpha * exp(gamma*x)
        G = np.exp(s1 * lx + s2 * x)
        if lgp:
            r = s1 + s2 * x
            log_gp = (s1 - 1.0) * lx + s2 * x + np.log(r)
        if grad:
            dlog_g = (lx, x)
        if both:
            dlog_gp = (lx + 1.0 / r, x + x / r)
    elif fam == 4:  # gtwe: G = exp(x^alpha) - 1
        xa = np.exp(s1 * lx)
        G = np.expm1(xa)
        if lgp:
            log_gp = np.log(s1) + (s1 - 1.0) * lx + xa
        if grad:
            # d log G / d alpha = lx * x^alpha / (1 - exp(-x^alpha))
            dlog_g = (lx * _x_over_expm1(-xa),)
        if both:
            dlog_gp = (1.0 / s1 + lx * (1.0 + xa),)
    elif fam == 5:  # gtb12: G = log(1 + x^alpha), alpha*log(x) where x^alpha overflows
        xa = np.exp(s1 * lx)
        big = np.isinf(xa)
        G = np.where(big, s1 * lx, np.log1p(xa))
        if lgp:
            log_gp = np.log(s1) + (s1 - 1.0) * lx - G
        if grad:
            # x^alpha / G = expm1(G) / G, and d log G / d alpha = 1/alpha
            # where G = alpha*log(x)
            dlog_g = (np.where(big, 1.0 / s1, lx / ((1.0 + xa) * _x_over_expm1(G))),)
        if both:
            dlog_gp = (1.0 / s1 + lx / (1.0 + xa),)
    elif fam == 6:  # gtl: G = log(1 + x/alpha)
        G = np.log1p(x / s1)
        if lgp or grad:
            r = s1 + x
        if lgp:
            log_gp = -np.log(r)
        if grad:
            # x / alpha = expm1(G)
            dlog_g = (-1.0 / (r * _x_over_expm1(G)),)
        if both:
            dlog_gp = (-1.0 / r,)
    elif fam == 7:  # gtp1: G = log(x/alpha), support (alpha, inf)
        G = np.log(x / s1)
        if lgp:
            log_gp = -(np.log(x) if lx is None else lx)
        if grad:
            dlog_g = (-1.0 / (s1 * G),)
        if both:
            dlog_gp = (np.zeros_like(x),)
    else:
        raise ValueError(f"unknown family id {fam}")
    return G, log_gp, dlog_g, dlog_gp


def cdf_arr(fam, s1, s2, beta, theta, lam, x):
    xv = np.atleast_1d(np.asarray(x, dtype=np.float64))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        G = _g_parts(fam, s1, s2, xv)[0]
        log_u = _log_u(beta * G)
        v = np.exp(theta * log_u)
    out = v * ((1.0 + lam) - lam * v)
    return out if np.ndim(x) else out[0]


def sf_arr(fam, s1, s2, beta, theta, lam, x):
    xv = np.atleast_1d(np.asarray(x, dtype=np.float64))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        G = _g_parts(fam, s1, s2, xv)[0]
        log_u = _log_u(beta * G)
        v = np.exp(theta * log_u)
        one_minus_v = -np.expm1(theta * log_u)
    out = one_minus_v * (1.0 - lam * v)
    return out if np.ndim(x) else out[0]


def logpdf_arr(fam, s1, s2, beta, theta, lam, x):
    xv = np.atleast_1d(np.asarray(x, dtype=np.float64))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        G, log_gp = _g_parts(fam, s1, s2, xv, lgp=True)[:2]
        log_u = _log_u(beta * G)
        v = np.exp(theta * log_u)
        tail = (1.0 + lam) - 2.0 * lam * v
        out = (
            np.log(theta * beta)
            + log_gp
            - beta * G
            + (theta - 1.0) * log_u
            + np.log(tail)
        )
    return out if np.ndim(x) else out[0]


def objective(method, fam, s1, s2, beta, theta, lam, xs):
    """Evaluate one fitting objective on the ascending-sorted sample ``xs``.

    ``xs`` is a ``Plan`` for (fam, method) or a sorted array.  Returns
    (value, clamp_count).  Non-finite values are replaced by a large finite
    constant so quasi-Newton line searches never see NaN.
    """
    return _objective(method, fam, s1, s2, beta, theta, lam, xs, False)[:2]


def objective_grad(method, fam, s1, s2, beta, theta, lam, xs):
    """``objective`` plus its exact gradient.

    Returns (value, clamp_count, grad): value and clamp count are those of
    ``objective``; grad is d value / d (shapes..., beta, theta, lam).  Terms
    held at the log clamp (ad, rtad) contribute no derivative, and where
    the value is replaced by the large constant the gradient is zero.
    """
    return _objective(method, fam, s1, s2, beta, theta, lam, xs, True)


def _objective(method, fam, s1, s2, beta, theta, lam, plan, want_grad):
    """The six objectives, and on request their gradients, from shared pieces.

    With a = beta*G, L = log u and v = exp(theta*L), every objective term
    depends on (shapes, beta) only through a, log G' and L, and on theta
    through v (and, for ml, theta itself).  Per point dL/dlog a =
    a/expm1(a) = phi, so dL/dbeta = phi/beta and dL/dpsi = phi * dlog G/dpsi;
    a term Q(L, v) has dQ/dtheta = (dQ/dL) * L/theta.  ``chain`` stacks these
    rows, so the gradient of sum(w*Q) over (shapes, beta, theta) is
    chain @ (w * dQ/dL); the lambda component and ml's terms in log G', a,
    log beta and log theta are added on their own.
    """
    if not isinstance(plan, Plan):
        plan = Plan(plan, fam, method)
    elif plan.fam != fam or plan.method != method:
        raise ValueError(
            f"plan built for family {plan.fam}, method {plan.method}; "
            f"called with family {fam}, method {method}"
        )
    n = plan.n
    ml = method == 0
    clamps = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        G, log_gp, dlog_g, dlog_gp = _g_parts(fam, s1, s2, plan.xs, plan.lx, ml, want_grad)
        a = beta * G
        log_u = _log_u(a)
        tl = theta * log_u
        v = np.exp(tl)
        if ml:  # negative log-likelihood
            tail = (1.0 + lam) - 2.0 * lam * v
            value = -(
                np.log(theta * beta) + log_gp - a + (theta - 1.0) * log_u + np.log(tail)
            ).sum()
        else:
            F = v * ((1.0 + lam) - lam * v)
            if method == 1:  # ols
                resid = F - plan.target
                wr = resid
                value = (resid**2).sum()
            elif method == 2:  # wls
                resid = F - plan.target
                wr = plan.w * resid
                value = (plan.w * resid**2).sum()
            elif method == 3:  # cvm
                resid = F - plan.target
                wr = resid
                value = 1.0 / (12.0 * n) + (resid**2).sum()
            else:  # ad, rtad
                one_minus_v = -np.expm1(tl)
                S = one_minus_v * (1.0 - lam * v)  # (1 - v)(1 - lam v)
                clamps = int(np.count_nonzero(F < _LOG_CLAMP)) + int(
                    np.count_nonzero(S < _LOG_CLAMP)
                )
                Fc = np.maximum(F, _LOG_CLAMP)
                Sc = np.maximum(S, _LOG_CLAMP)
                if method == 4:  # ad
                    value = -n - (plan.w * (np.log(Fc) + np.log(Sc[::-1]))).sum() / n
                else:  # rtad
                    value = n / 2.0 - 2.0 * F.sum() - (plan.w * np.log(Sc[::-1])).sum() / n
        if not math.isfinite(value):
            return _BIG, clamps, np.zeros(len(dlog_g) + 3) if want_grad else None
        if not want_grad:
            return value, clamps, None

        k = len(dlog_g)
        phi = _x_over_expm1(a)
        chain = np.empty((k + 2, n))
        for j in range(k):
            # phi = 0 where e^-a underflows (gtwe's G = inf among them), and
            # there d log u / d psi vanishes however large d log G / d psi is
            chain[j] = np.where(phi > 0.0, phi * dlog_g[j], 0.0)
        chain[k] = phi / beta
        # log u = -inf only where u = 0, where every term's theta derivative
        # (a multiple of u^theta log u) vanishes
        chain[k + 1] = np.where(a > 0.0, log_u, 0.0) / theta
        grad = np.empty(k + 3)
        if ml:
            # d log f / dL = (theta - 1) - 2 lam theta v / tail
            grad[:-1] = chain @ ((theta - 1.0) - 2.0 * lam * theta * v / tail)
            for j in range(k):
                grad[j] += dlog_gp[j].sum() - a @ dlog_g[j]
            grad[k] += (n - a.sum()) / beta
            grad[k + 1] += (n + log_u.sum()) / theta
            grad[k + 2] = ((1.0 - 2.0 * v) / tail).sum()
            return value, clamps, -grad
        dF_dL = ((1.0 + lam) - 2.0 * lam * v) * theta * v
        if method < 4:  # d sum(w resid^2) = 2 sum(w resid dF)
            dF_dlam = v * -np.expm1(tl)
            q = 2.0 * wr
        else:
            dF_dlam = v * one_minus_v
            # -sum(w_i log S_{n+1-i}) / n weighs log S_j by -w_{n+1-j} / n;
            # clamped terms have no derivative
            q = np.where(S >= _LOG_CLAMP, plan.w_rev / Sc, 0.0) / n
            if method == 4:  # ad
                q -= np.where(F >= _LOG_CLAMP, plan.w / Fc, 0.0) / n
            else:  # rtad
                q -= 2.0
        grad[:-1] = chain @ (q * dF_dL)
        grad[k + 2] = q @ dF_dlam
        return value, clamps, grad
