# cython: boundscheck=False, wraparound=False, cdivision=True, language_level=3
"""Compiled kernels; semantics identical to the numpy backend in _ref.py.

families: 0=gte 1=gtr 2=gtw 3=gtmw 4=gtwe 5=gtb12 6=gtl 7=gtp1
methods:  0=ml 1=ols 2=wls 3=cvm 4=ad 5=rtad
"""

import numpy as np

cimport numpy as cnp
from libc.math cimport exp, expm1, log, log1p, INFINITY, isfinite

cnp.import_array()

NAME = "compiled"

cdef double _LOG_CLAMP = 1e-300
cdef double _BIG = 1e10
cdef double _LOG2 = 0.6931471805599453


cdef inline double _log1mexp(double a) nogil:
    # log(1 - e^{-a}) for a >= 0 without cancellation on either branch
    if a < _LOG2:
        return log(-expm1(-a))
    return log1p(-exp(-a))


cdef inline void _g_parts(int fam, double s1, double s2, double x,
                          double* G, double* log_gp) nogil:
    cdef double lx, xa
    if fam == 0:
        G[0] = x
        log_gp[0] = 0.0
    elif fam == 1:
        G[0] = 0.5 * x * x
        log_gp[0] = log(x)
    elif fam == 2:
        lx = log(x)
        G[0] = exp(s1 * lx)
        log_gp[0] = log(s1) + (s1 - 1.0) * lx
    elif fam == 3:
        lx = log(x)
        G[0] = exp(s1 * lx + s2 * x)
        log_gp[0] = (s1 - 1.0) * lx + s2 * x + log(s1 + s2 * x)
    elif fam == 4:
        lx = log(x)
        xa = exp(s1 * lx)
        G[0] = expm1(xa)
        log_gp[0] = log(s1) + (s1 - 1.0) * lx + xa
    elif fam == 5:
        lx = log(x)
        xa = exp(s1 * lx)
        # alpha*log(x) where x^alpha overflows
        G[0] = log1p(xa) if isfinite(xa) else s1 * lx
        log_gp[0] = log(s1) + (s1 - 1.0) * lx - G[0]
    elif fam == 6:
        G[0] = log1p(x / s1)
        log_gp[0] = -log(s1 + x)
    else:
        G[0] = log(x / s1)
        log_gp[0] = -log(x)


cdef inline double _log_u(int fam, double s1, double s2,
                          double beta, double x) nogil:
    cdef double G, lgp
    _g_parts(fam, s1, s2, x, &G, &lgp)
    return _log1mexp(beta * G)


def cdf_arr(int fam, double s1, double s2, double beta, double theta,
            double lam, x):
    cdef cnp.ndarray[cnp.float64_t, ndim=1] xv = np.ascontiguousarray(
        np.atleast_1d(np.asarray(x, dtype=np.float64)))
    cdef Py_ssize_t n = xv.shape[0], i
    cdef cnp.ndarray[cnp.float64_t, ndim=1] out = np.empty(n)
    cdef double lu, v
    for i in range(n):
        lu = _log_u(fam, s1, s2, beta, xv[i])
        v = exp(theta * lu)
        out[i] = v * ((1.0 + lam) - lam * v)
    return out if np.ndim(x) else out[0]


def sf_arr(int fam, double s1, double s2, double beta, double theta,
           double lam, x):
    cdef cnp.ndarray[cnp.float64_t, ndim=1] xv = np.ascontiguousarray(
        np.atleast_1d(np.asarray(x, dtype=np.float64)))
    cdef Py_ssize_t n = xv.shape[0], i
    cdef cnp.ndarray[cnp.float64_t, ndim=1] out = np.empty(n)
    cdef double lu, v
    for i in range(n):
        lu = _log_u(fam, s1, s2, beta, xv[i])
        v = exp(theta * lu)
        out[i] = (-expm1(theta * lu)) * (1.0 - lam * v)
    return out if np.ndim(x) else out[0]


def logpdf_arr(int fam, double s1, double s2, double beta, double theta,
               double lam, x):
    cdef cnp.ndarray[cnp.float64_t, ndim=1] xv = np.ascontiguousarray(
        np.atleast_1d(np.asarray(x, dtype=np.float64)))
    cdef Py_ssize_t n = xv.shape[0], i
    cdef cnp.ndarray[cnp.float64_t, ndim=1] out = np.empty(n)
    cdef double G, lgp, lu, v
    for i in range(n):
        _g_parts(fam, s1, s2, xv[i], &G, &lgp)
        lu = _log1mexp(beta * G)
        v = exp(theta * lu)
        out[i] = (log(theta * beta) + lgp - beta * G
                  + (theta - 1.0) * lu + log((1.0 + lam) - 2.0 * lam * v))
    return out if np.ndim(x) else out[0]


def objective(int method, int fam, double s1, double s2, double beta,
              double theta, double lam, xs):
    """Evaluate one fitting objective on the ascending-sorted sample ``xs``.

    Returns (value, clamp_count); non-finite values map to a large constant.
    """
    cdef cnp.ndarray[cnp.float64_t, ndim=1] xv = np.ascontiguousarray(
        np.asarray(xs, dtype=np.float64))
    cdef Py_ssize_t n = xv.shape[0], i
    cdef double total = 0.0, G, lgp, lu, v, F, S, Fj, Sj, pp, w, dn = <double>n
    cdef int clamps = 0
    cdef cnp.ndarray[cnp.float64_t, ndim=1] Fa, Sa

    if method == 0:
        with nogil:
            for i in range(n):
                _g_parts(fam, s1, s2, xv[i], &G, &lgp)
                lu = _log1mexp(beta * G)
                v = exp(theta * lu)
                total += (log(theta * beta) + lgp - beta * G
                          + (theta - 1.0) * lu
                          + log((1.0 + lam) - 2.0 * lam * v))
        if not isfinite(total):
            return _BIG, 0
        return -total, 0

    if method in (1, 2, 3):
        with nogil:
            for i in range(n):
                lu = _log_u(fam, s1, s2, beta, xv[i])
                v = exp(theta * lu)
                F = v * ((1.0 + lam) - lam * v)
                if method == 1:
                    pp = (i + 1.0) / (dn + 1.0)
                    total += (F - pp) * (F - pp)
                elif method == 2:
                    pp = (i + 1.0) / (dn + 1.0)
                    w = ((dn + 1.0) * (dn + 1.0) * (dn + 2.0)
                         / ((i + 1.0) * (dn - i)))
                    total += w * (F - pp) * (F - pp)
                else:
                    pp = (2.0 * (i + 1.0) - 1.0) / (2.0 * dn)
                    total += (F - pp) * (F - pp)
        if method == 3:
            total += 1.0 / (12.0 * dn)
        if not isfinite(total):
            return _BIG, 0
        return total, 0

    # ad / rtad need the survival values in reverse sample order
    Fa = np.empty(n)
    Sa = np.empty(n)
    with nogil:
        for i in range(n):
            lu = _log_u(fam, s1, s2, beta, xv[i])
            v = exp(theta * lu)
            Fa[i] = v * ((1.0 + lam) - lam * v)
            Sa[i] = (-expm1(theta * lu)) * (1.0 - lam * v)
    for i in range(n):
        if Fa[i] < _LOG_CLAMP:
            clamps += 1
        if Sa[i] < _LOG_CLAMP:
            clamps += 1
    if method == 4:
        for i in range(n):
            w = 2.0 * (i + 1.0) - 1.0
            # NaN must propagate (to the _BIG sentinel), so only clamp on <
            Fj = _LOG_CLAMP if Fa[i] < _LOG_CLAMP else Fa[i]
            Sj = _LOG_CLAMP if Sa[n - 1 - i] < _LOG_CLAMP else Sa[n - 1 - i]
            total += w * (log(Fj) + log(Sj))
        total = -dn - total / dn
        if not isfinite(total):
            return _BIG, clamps
        return total, clamps
    if method == 5:
        for i in range(n):
            w = 2.0 * (i + 1.0) - 1.0
            Sj = _LOG_CLAMP if Sa[n - 1 - i] < _LOG_CLAMP else Sa[n - 1 - i]
            total += w * log(Sj) / dn + 2.0 * Fa[i]
        total = dn / 2.0 - total
        if not isfinite(total):
            return _BIG, clamps
        return total, clamps
    raise ValueError(f"unknown method id {method}")
