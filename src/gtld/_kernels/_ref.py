"""Pure-numpy reference kernels.

These mirror the compiled kernels in ``_core.pyx`` exactly; the package
falls back to this module when the extension is unavailable (or when the
``GTLD_PURE_PYTHON`` environment variable is set).

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


def _g_parts(fam, s1, s2, x):
    """Return (G(x), log G'(x)) for family ``fam`` with shapes (s1, s2).

    Callers hold ``np.errstate(over="ignore")``: gtwe's G = expm1(x^alpha)
    overflows to inf where x^alpha > 709.78, which is the right limit.
    """
    if fam == 0:  # gte: G = x
        return x, np.zeros_like(x)
    if fam == 1:  # gtr: G = x^2/2
        return 0.5 * x * x, np.log(x)
    if fam == 2:  # gtw: G = x^alpha
        lx = np.log(x)
        return np.exp(s1 * lx), np.log(s1) + (s1 - 1.0) * lx
    if fam == 3:  # gtmw: G = x^alpha * exp(gamma*x)
        lx = np.log(x)
        return np.exp(s1 * lx + s2 * x), (s1 - 1.0) * lx + s2 * x + np.log(s1 + s2 * x)
    if fam == 4:  # gtwe: G = exp(x^alpha) - 1
        lx = np.log(x)
        xa = np.exp(s1 * lx)
        return np.expm1(xa), np.log(s1) + (s1 - 1.0) * lx + xa
    if fam == 5:  # gtb12: G = log(1 + x^alpha)
        lx = np.log(x)
        xa = np.exp(s1 * lx)
        return np.log1p(xa), np.log(s1) + (s1 - 1.0) * lx - np.log1p(xa)
    if fam == 6:  # gtl: G = log(1 + x/alpha)
        return np.log1p(x / s1), -np.log(s1 + x)
    if fam == 7:  # gtp1: G = log(x/alpha), support (alpha, inf)
        return np.log(x / s1), -np.log(x)
    raise ValueError(f"unknown family id {fam}")


def cdf_arr(fam, s1, s2, beta, theta, lam, x):
    xv = np.atleast_1d(np.asarray(x, dtype=np.float64))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        G, _ = _g_parts(fam, s1, s2, xv)
        log_u = _log_u(beta * G)
        v = np.exp(theta * log_u)
    out = v * ((1.0 + lam) - lam * v)
    return out if np.ndim(x) else out[0]


def sf_arr(fam, s1, s2, beta, theta, lam, x):
    xv = np.atleast_1d(np.asarray(x, dtype=np.float64))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        G, _ = _g_parts(fam, s1, s2, xv)
        log_u = _log_u(beta * G)
        v = np.exp(theta * log_u)
        one_minus_v = -np.expm1(theta * log_u)
    out = one_minus_v * (1.0 - lam * v)
    return out if np.ndim(x) else out[0]


def logpdf_arr(fam, s1, s2, beta, theta, lam, x):
    xv = np.atleast_1d(np.asarray(x, dtype=np.float64))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        G, log_gp = _g_parts(fam, s1, s2, xv)
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
    xs = np.asarray(xs, dtype=np.float64)
    n = xs.shape[0]
    if method == 0:  # ml: negative log-likelihood
        total = logpdf_arr(fam, s1, s2, beta, theta, lam, xs).sum()
        if not np.isfinite(total):
            return _BIG, 0
        return -total, 0

    F = cdf_arr(fam, s1, s2, beta, theta, lam, xs)
    i = np.arange(1, n + 1, dtype=np.float64)
    if method == 1:  # ols
        val = np.sum((F - i / (n + 1)) ** 2)
        return (val, 0) if np.isfinite(val) else (_BIG, 0)
    if method == 2:  # wls
        w = (n + 1.0) ** 2 * (n + 2.0) / (i * (n - i + 1.0))
        val = np.sum(w * (F - i / (n + 1)) ** 2)
        return (val, 0) if np.isfinite(val) else (_BIG, 0)
    if method == 3:  # cvm
        val = 1.0 / (12.0 * n) + np.sum((F - (2.0 * i - 1.0) / (2.0 * n)) ** 2)
        return (val, 0) if np.isfinite(val) else (_BIG, 0)

    S = sf_arr(fam, s1, s2, beta, theta, lam, xs)
    clamps = int(np.count_nonzero(F < _LOG_CLAMP)) + int(
        np.count_nonzero(S < _LOG_CLAMP)
    )
    Fc = np.maximum(F, _LOG_CLAMP)
    Sc = np.maximum(S, _LOG_CLAMP)
    w = 2.0 * i - 1.0
    if method == 4:  # ad
        val = -n - np.sum(w * (np.log(Fc) + np.log(Sc[::-1]))) / n
        return (val, clamps) if np.isfinite(val) else (_BIG, clamps)
    if method == 5:  # rtad
        val = n / 2.0 - 2.0 * np.sum(F) - np.sum(w * np.log(Sc[::-1])) / n
        return (val, clamps) if np.isfinite(val) else (_BIG, clamps)
    raise ValueError(f"unknown method id {method}")
