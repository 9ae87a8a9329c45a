"""Pure-numpy reference kernels.

These mirror the compiled kernels in ``_core.pyx`` exactly; the package
falls back to this module when the extension is unavailable (or when the
``GTLD_PURE_PYTHON`` environment variable is set).  ``objective_grad``
exists only here and serves both backends.

Family and method identifiers are small integers so both backends share a
single calling convention:

    families: 0=gte 1=gtr 2=gtw 3=gtmw 4=gtwe 5=gtb12 6=gtl 7=gtp1
    methods:  0=ml 1=ols 2=wls 3=cvm 4=ad 5=rtad
"""

from __future__ import annotations

import numpy as np

NAME = "python"

_LOG_CLAMP = 1e-300
_BIG = 1e10
_LOG2 = 0.6931471805599453


def _log_u(a):
    """log(1 - e^{-a}) for a >= 0 without cancellation on either branch."""
    return np.where(
        a < _LOG2,
        np.log(-np.expm1(-np.minimum(a, _LOG2))),
        np.log1p(-np.exp(-np.maximum(a, _LOG2))),
    )


def _x_over_expm1(a):
    """a / expm1(a), with its limits 1 at a = 0 and 0 at a = inf."""
    out = a / np.expm1(a)
    return np.where(np.isnan(out), a == 0.0, out)


def _g_parts(fam, s1, s2, x, order):
    """G(x) and its derivatives for family ``fam`` with shapes (s1, s2).

    ``order`` 0 returns G; 1 returns (G, log G'); 2 returns
    (G, log G', dlog_g, dlog_gp), where dlog_g and dlog_gp hold one array
    per shape parameter psi: d log G / d psi and d log G' / d psi.

    Callers hold ``np.errstate(over="ignore")``: gtwe's G = expm1(x^alpha)
    overflows to inf where x^alpha > 709.78, which is the right limit.
    """
    if fam == 0:  # gte: G = x
        if order == 0:
            return x
        lgp = np.zeros_like(x)
        return (x, lgp) if order == 1 else (x, lgp, (), ())
    if fam == 1:  # gtr: G = x^2/2
        G = 0.5 * x * x
        if order == 0:
            return G
        lgp = np.log(x)
        return (G, lgp) if order == 1 else (G, lgp, (), ())
    if fam == 2:  # gtw: G = x^alpha
        lx = np.log(x)
        G = np.exp(s1 * lx)
        if order == 0:
            return G
        lgp = np.log(s1) + (s1 - 1.0) * lx
        return (G, lgp) if order == 1 else (G, lgp, (lx,), (1.0 / s1 + lx,))
    if fam == 3:  # gtmw: G = x^alpha * exp(gamma*x)
        lx = np.log(x)
        G = np.exp(s1 * lx + s2 * x)
        if order == 0:
            return G
        r = s1 + s2 * x
        lgp = (s1 - 1.0) * lx + s2 * x + np.log(r)
        if order == 1:
            return G, lgp
        return G, lgp, (lx, x), (lx + 1.0 / r, x + x / r)
    if fam == 4:  # gtwe: G = exp(x^alpha) - 1
        lx = np.log(x)
        xa = np.exp(s1 * lx)
        G = np.expm1(xa)
        if order == 0:
            return G
        lgp = np.log(s1) + (s1 - 1.0) * lx + xa
        if order == 1:
            return G, lgp
        # d log G / d alpha = lx * x^alpha / (1 - exp(-x^alpha))
        return G, lgp, (lx * _x_over_expm1(-xa),), (1.0 / s1 + lx * (1.0 + xa),)
    if fam == 5:  # gtb12: G = log(1 + x^alpha), alpha*log(x) where x^alpha overflows
        lx = np.log(x)
        xa = np.exp(s1 * lx)
        big = np.isinf(xa)
        G = np.where(big, s1 * lx, np.log1p(xa))
        if order == 0:
            return G
        lgp = np.log(s1) + (s1 - 1.0) * lx - G
        if order == 1:
            return G, lgp
        # x^alpha / G = expm1(G) / G, and d log G / d alpha = 1/alpha where G = alpha*log(x)
        dlg = np.where(big, 1.0 / s1, lx / ((1.0 + xa) * _x_over_expm1(G)))
        return G, lgp, (dlg,), (1.0 / s1 + lx / (1.0 + xa),)
    if fam == 6:  # gtl: G = log(1 + x/alpha)
        G = np.log1p(x / s1)
        if order == 0:
            return G
        r = s1 + x
        lgp = -np.log(r)
        if order == 1:
            return G, lgp
        # x / alpha = expm1(G)
        return G, lgp, (-1.0 / (r * _x_over_expm1(G)),), (-1.0 / r,)
    if fam == 7:  # gtp1: G = log(x/alpha), support (alpha, inf)
        G = np.log(x / s1)
        if order == 0:
            return G
        lgp = -np.log(x)
        if order == 1:
            return G, lgp
        return G, lgp, (-1.0 / (s1 * G),), (np.zeros_like(x),)
    raise ValueError(f"unknown family id {fam}")


def cdf_arr(fam, s1, s2, beta, theta, lam, x):
    xv = np.atleast_1d(np.asarray(x, dtype=np.float64))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        G = _g_parts(fam, s1, s2, xv, 0)
        log_u = _log_u(beta * G)
        v = np.exp(theta * log_u)
    out = v * ((1.0 + lam) - lam * v)
    return out if np.ndim(x) else out[0]


def sf_arr(fam, s1, s2, beta, theta, lam, x):
    xv = np.atleast_1d(np.asarray(x, dtype=np.float64))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        G = _g_parts(fam, s1, s2, xv, 0)
        log_u = _log_u(beta * G)
        v = np.exp(theta * log_u)
        one_minus_v = -np.expm1(theta * log_u)
    out = one_minus_v * (1.0 - lam * v)
    return out if np.ndim(x) else out[0]


def logpdf_arr(fam, s1, s2, beta, theta, lam, x):
    xv = np.atleast_1d(np.asarray(x, dtype=np.float64))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        G, log_gp = _g_parts(fam, s1, s2, xv, 1)
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

    Returns (value, clamp_count).  Non-finite values are replaced by a large
    finite constant so quasi-Newton line searches never see NaN.
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


def _objective(method, fam, s1, s2, beta, theta, lam, xs, want_grad):
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
    xs = np.asarray(xs, dtype=np.float64)
    n = xs.shape[0]
    order = 2 if want_grad else int(method == 0)
    clamps = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        parts = _g_parts(fam, s1, s2, xs, order)
        G = parts[0] if order else parts
        a = beta * G
        log_u = _log_u(a)
        tl = theta * log_u
        v = np.exp(tl)
        if method == 0:  # ml: negative log-likelihood
            tail = (1.0 + lam) - 2.0 * lam * v
            value = -(
                np.log(theta * beta) + parts[1] - a + (theta - 1.0) * log_u + np.log(tail)
            ).sum()
        else:
            F = v * ((1.0 + lam) - lam * v)
            i = np.arange(1, n + 1, dtype=np.float64)
            if method == 1:  # ols
                resid = F - i / (n + 1)
                wr = resid
                value = (resid**2).sum()
            elif method == 2:  # wls
                w = (n + 1.0) ** 2 * (n + 2.0) / (i * (n - i + 1.0))
                resid = F - i / (n + 1)
                wr = w * resid
                value = (w * resid**2).sum()
            elif method == 3:  # cvm
                resid = F - (2.0 * i - 1.0) / (2.0 * n)
                wr = resid
                value = 1.0 / (12.0 * n) + (resid**2).sum()
            elif method in (4, 5):
                S = -np.expm1(tl) * (1.0 - lam * v)  # (1 - v)(1 - lam v)
                clamps = int(np.count_nonzero(F < _LOG_CLAMP)) + int(
                    np.count_nonzero(S < _LOG_CLAMP)
                )
                Fc = np.maximum(F, _LOG_CLAMP)
                Sc = np.maximum(S, _LOG_CLAMP)
                w = 2.0 * i - 1.0
                if method == 4:  # ad
                    value = -n - (w * (np.log(Fc) + np.log(Sc[::-1]))).sum() / n
                else:  # rtad
                    value = n / 2.0 - 2.0 * F.sum() - (w * np.log(Sc[::-1])).sum() / n
            else:
                raise ValueError(f"unknown method id {method}")
        if not np.isfinite(value):
            return _BIG, clamps, np.zeros(len(parts[2]) + 3) if want_grad else None
        if not want_grad:
            return value, clamps, None

        dlog_g, dlog_gp = parts[2], parts[3]
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
        if method == 0:
            # d log f / dL = (theta - 1) - 2 lam theta v / tail
            grad[:-1] = chain @ ((theta - 1.0) - 2.0 * lam * theta * v / tail)
            for j in range(k):
                grad[j] += dlog_gp[j].sum() - a @ dlog_g[j]
            grad[k] += (n - a.sum()) / beta
            grad[k + 1] += (n + log_u.sum()) / theta
            grad[k + 2] = ((1.0 - 2.0 * v) / tail).sum()
            return value, clamps, -grad
        dF_dL = ((1.0 + lam) - 2.0 * lam * v) * theta * v
        dF_dlam = v * -np.expm1(tl)
        if method < 4:  # d sum(w resid^2) = 2 sum(w resid dF)
            q = 2.0 * wr
        else:
            # -sum(w_i log S_{n+1-i}) / n weighs log S_j by -w_{n+1-j} / n;
            # clamped terms have no derivative
            q = np.where(S >= _LOG_CLAMP, w[::-1] / Sc, 0.0) / n
            if method == 4:  # ad
                q -= np.where(F >= _LOG_CLAMP, w / Fc, 0.0) / n
            else:  # rtad
                q -= 2.0
        grad[:-1] = chain @ (q * dF_dL)
        grad[k + 2] = q @ dF_dlam
        return value, clamps, grad
