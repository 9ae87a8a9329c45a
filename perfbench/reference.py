"""Independent reference for the gtld benchmark's correctness checks.

Written from the paper's formulas with NumPy/SciPy only; it never imports
gtld.  The family CDF is

    F(x) = (1 + lam) v - lam v^2,   v = u^theta,   u = 1 - exp(-beta G(x)),

over eight baseline transforms G.  Parameters travel as a flat dict with
keys ``beta``, ``theta``, ``lam`` and the family's shape names (``alpha``,
``gamma``).

The property checks integrate *different* integrands from the ones gtld
uses (E[X^r] from the survival function, Renyi entropy in log-x, ...), so
agreement is evidence for both codes rather than a copy of one.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize

SHAPES = {
    "gte": (),
    "gtr": (),
    "gtw": ("alpha",),
    "gtmw": ("alpha", "gamma"),
    "gtwe": ("alpha",),
    "gtb12": ("alpha",),
    "gtl": ("alpha",),
    "gtp1": ("alpha",),
}
HEAVY_TAILED = ("gtb12", "gtl", "gtp1")


def support_low(fam: str, p: dict) -> float:
    return p["alpha"] if fam == "gtp1" else 0.0


def edge_order(fam: str, p: dict) -> float:
    """Power k with G(x) ~ c (x - support_low)^k at the lower support edge."""
    if fam == "gtr":
        return 2.0
    if fam in ("gtw", "gtmw", "gtwe", "gtb12"):
        return p["alpha"]
    return 1.0


def tail_index(fam: str, p: dict) -> float:
    """Moments E[X^r] exist exactly for r below this value (lam < 1)."""
    if fam == "gtb12":
        return p["alpha"] * p["beta"]
    if fam in ("gtl", "gtp1"):
        return p["beta"]
    return math.inf


def G(fam: str, p: dict, x):
    x = np.asarray(x, dtype=float)
    if fam == "gte":
        return x
    if fam == "gtr":
        return x * x / 2.0
    a = p["alpha"]
    if fam == "gtw":
        return x**a
    if fam == "gtmw":
        return x**a * np.exp(p["gamma"] * x)
    if fam == "gtwe":
        return np.expm1(x**a)
    if fam == "gtb12":
        return np.log1p(x**a)
    if fam == "gtl":
        return np.log1p(x / a)
    if fam == "gtp1":
        return np.log(x / a)
    raise ValueError(f"unknown family {fam!r}")


def log_dG(fam: str, p: dict, x):
    """log G'(x)."""
    x = np.asarray(x, dtype=float)
    if fam == "gte":
        return np.zeros_like(x)
    if fam == "gtr":
        return np.log(x)
    a = p["alpha"]
    if fam == "gtw":
        return math.log(a) + (a - 1.0) * np.log(x)
    if fam == "gtmw":
        g = p["gamma"]
        return (a - 1.0) * np.log(x) + g * x + np.log(a + g * x)
    if fam == "gtwe":
        return math.log(a) + (a - 1.0) * np.log(x) + x**a
    if fam == "gtb12":
        return math.log(a) + (a - 1.0) * np.log(x) - np.log1p(x**a)
    if fam == "gtl":
        return -np.log(a + x)
    if fam == "gtp1":
        return -np.log(x)
    raise ValueError(f"unknown family {fam!r}")


def G_inverse(fam: str, p: dict, y: float) -> float:
    if fam == "gte":
        return y
    if fam == "gtr":
        return math.sqrt(2.0 * y)
    a = p["alpha"]
    if fam == "gtw":
        return y ** (1.0 / a)
    if fam == "gtwe":
        return math.log1p(y) ** (1.0 / a)
    if fam == "gtb12":
        return math.expm1(y) ** (1.0 / a)
    if fam == "gtl":
        return a * math.expm1(y)
    if fam == "gtp1":
        return a * math.exp(y)
    if fam == "gtmw":
        # a log x + gamma x = log y is increasing in x
        g, ly = p["gamma"], math.log(y)
        h = lambda x: a * math.log(x) + g * x - ly  # noqa: E731
        hi = 1.0
        while h(hi) < 0.0:
            hi *= 2.0
        lo = hi / 2.0
        while h(lo) > 0.0:
            lo /= 2.0
        return optimize.brentq(h, lo, hi, xtol=1e-300, rtol=1e-15, maxiter=500)
    raise ValueError(f"unknown family {fam!r}")


def _log_u(a):
    """log(1 - exp(-a)), accurate for small and large a."""
    a = np.asarray(a, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(
            a < math.log(2.0),
            np.log(-np.expm1(-np.minimum(a, math.log(2.0)))),
            np.log1p(-np.exp(-np.maximum(a, math.log(2.0)))),
        )


def cdf(fam: str, p: dict, x):
    v = np.exp(p["theta"] * _log_u(p["beta"] * G(fam, p, x)))
    return (1.0 + p["lam"]) * v - p["lam"] * v * v


def sf(fam: str, p: dict, x):
    tlu = p["theta"] * _log_u(p["beta"] * G(fam, p, x))
    return -np.expm1(tlu) * (1.0 - p["lam"] * np.exp(tlu))


def log_sf(fam: str, p: dict, x):
    tlu = p["theta"] * _log_u(p["beta"] * G(fam, p, x))
    with np.errstate(divide="ignore"):
        return np.log(-np.expm1(tlu)) + np.log1p(-p["lam"] * np.exp(tlu))


def logpdf(fam: str, p: dict, x):
    b, t, lam = p["beta"], p["theta"], p["lam"]
    bg = b * G(fam, p, x)
    lu = _log_u(bg)
    v = np.exp(t * lu)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (
            math.log(t * b)
            + log_dG(fam, p, x)
            - bg
            + (t - 1.0) * lu
            + np.log((1.0 + lam) - 2.0 * lam * v)
        )


def pdf(fam: str, p: dict, x):
    return np.exp(logpdf(fam, p, x))


def quantile(fam: str, p: dict, q: float) -> float:
    lam, t, b = p["lam"], p["theta"], p["beta"]
    if lam == 0.0:
        v = q
    else:  # root in [0, 1] of lam v^2 - (1 + lam) v + q = 0
        v = ((1.0 + lam) - math.sqrt((1.0 + lam) ** 2 - 4.0 * lam * q)) / (2.0 * lam)
    u = v ** (1.0 / t)
    return G_inverse(fam, p, -math.log1p(-u) / b)


# -- the six fitting objectives ----------------------------------------------


def objective(method: str, fam: str, p: dict, sample) -> float:
    """The paper's objective for ``method`` at parameters ``p``."""
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.size
    i = np.arange(1, n + 1, dtype=float)
    if method == "ml":
        return float(-np.sum(logpdf(fam, p, x)))
    F = cdf(fam, p, x)
    if method == "ols":
        return float(np.sum((F - i / (n + 1.0)) ** 2))
    if method == "wls":
        w = (n + 1.0) ** 2 * (n + 2.0) / (i * (n - i + 1.0))
        return float(np.sum(w * (F - i / (n + 1.0)) ** 2))
    if method == "cvm":
        return float(1.0 / (12.0 * n) + np.sum((F - (2.0 * i - 1.0) / (2.0 * n)) ** 2))
    S_rev = sf(fam, p, x)[::-1]
    if method == "ad":
        return float(-n - np.sum((2.0 * i - 1.0) * (np.log(F) + np.log(S_rev))) / n)
    if method == "rtad":
        return float(n / 2.0 - 2.0 * np.sum(F) - np.sum((2.0 * i - 1.0) * np.log(S_rev)) / n)
    raise ValueError(f"unknown method {method!r}")


# -- quadrature in log-x -------------------------------------------------------


def _quad(h, a, b):
    val, _ = integrate.quad(h, a, b, epsabs=0.0, epsrel=1e-10, limit=400)
    return val


def integral(fam: str, p: dict, h, upper: float = math.inf) -> float:
    """Integral of h(x) over (support_low, upper), taken in s = log(x - low).

    The substitution turns edge power laws and heavy tails into exponential
    decay in s; the range is split at the median.
    """
    low = support_low(fam, p)

    def hs(s):
        if not -300.0 < s < 300.0:
            return 0.0
        d = math.exp(s)
        with np.errstate(over="ignore"):
            return float(h(low + d)) * d

    split = math.log(quantile(fam, p, 0.5) - low)
    if upper == math.inf:
        return _quad(hs, -math.inf, split) + _quad(hs, split, math.inf)
    top = math.log(upper - low)
    if top <= split:
        return _quad(hs, -math.inf, top)
    return _quad(hs, -math.inf, split) + _quad(hs, split, top)


def _tail_integral(fam, p, h, t):
    """Integral of h over (t, inf), taken in s = log(x - t + scale)."""
    low = support_low(fam, p)
    scale = quantile(fam, p, 0.5) - low

    def hs(s):
        if s > 300.0:
            return 0.0
        d = math.exp(s)
        with np.errstate(over="ignore"):
            return float(h(t - scale + d)) * d

    top = math.log(scale + max(quantile(fam, p, 0.99) - t, scale))
    return _quad(hs, math.log(scale), top) + _quad(hs, top, math.inf)


# -- properties, each through another integrand than gtld's -------------------


def raw_moment(fam, p, r):
    """E[X^r] = low^r + int r x^(r-1) S(x) dx."""
    low = support_low(fam, p)
    return low**r + integral(fam, p, lambda x: r * x ** (r - 1) * sf(fam, p, x))


def incomplete_moment(fam, p, r, z):
    """E[X^r; X <= z] = z^r F(z) - int_low^z r x^(r-1) F(x) dx."""
    head = integral(fam, p, lambda x: r * x ** (r - 1) * cdf(fam, p, x), upper=z)
    return z**r * float(cdf(fam, p, z)) - head


def pwm_11(fam, p):
    """E[X F(X)] = E[max(X1, X2)] / 2 = (low + int (1 - F^2)) / 2."""
    low = support_low(fam, p)
    return 0.5 * (low + integral(fam, p, lambda x: sf(fam, p, x) * (1.0 + cdf(fam, p, x))))


def mgf(fam, p, t):
    """E[e^(tX)] = e^(t low) + t int e^(tx) S(x) dx."""
    low = support_low(fam, p)
    tail = integral(fam, p, lambda x: math.exp(t * x + float(log_sf(fam, p, x))))
    return math.exp(t * low) + t * tail


def density_power(fam, p, rho):
    """int f^rho dx, evaluated in log-x."""
    return integral(fam, p, lambda x: math.exp(rho * float(logpdf(fam, p, x))))


def renyi_entropy(fam, p, rho):
    return math.log(density_power(fam, p, rho)) / (1.0 - rho)


def q_entropy(fam, p, q):
    return math.log1p(-density_power(fam, p, q)) / (q - 1.0)


def mean_residual_life(fam, p, t):
    """E[X - t | X > t] = int_t^inf S / S(t)."""
    return _tail_integral(fam, p, lambda x: sf(fam, p, x), t) / float(sf(fam, p, t))


def mean_waiting_time(fam, p, t):
    """E[t - X | X <= t] = int_low^t F / F(t)."""
    return integral(fam, p, lambda x: cdf(fam, p, x), upper=t) / float(cdf(fam, p, t))


def cigf_11(fam, p):
    """int F S dx."""
    return integral(fam, p, lambda x: cdf(fam, p, x) * sf(fam, p, x))


def quantile_measures(fam, p):
    q = [quantile(fam, p, k / 8.0) for k in range(1, 8)]
    return (
        q[3],
        (q[6] - q[4] + q[2] - q[0]) / (q[5] - q[1]),
        (q[5] + q[1] - 2.0 * q[3]) / (q[5] - q[1]),
    )
