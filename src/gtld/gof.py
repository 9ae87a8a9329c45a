"""Goodness-of-fit statistics, p-values, and AIC-based model selection.

-log L, W^2 and A^2 are the fit kernels' ml, cvm and ad objectives
(``_kernels.objective``) at the fitted model, on the sorted sample, through
one helper; a statistic refuses a sample with a NaN or infinite point, or
one not above the support's low end, before any evaluation, through the
objectives' own check.

The p-values use the classical asymptotic null distributions of the
statistics, ignoring the effect of parameter estimation (as standard
statistical software reports them); they are approximate by construction.

- KS: Kolmogorov's limiting distribution of sqrt(n) * D, from its theta-
  function series below y = 0.82 and its alternating series above.
- CvM: the Csorgo-Faraway series for the limiting W^2 law (Bessel-K form).
  Each term's factor e^(-a) K_{1/4}(a) is the integral
  int_0^inf exp(-a (1 + cosh t)) cosh(t/4) dt, taken by the trapezoid rule
  (spectrally convergent: the integrand is entire and decays
  double-exponentially) with a step shrinking like 1/sqrt(a); the 12 terms
  take one array evaluation.  From W^2 = 1 on, the p-value is the upper
  tail itself, the first term of Smirnov's series taken by tanh-sinh
  quadrature, not 1 - CDF, which cancels to rounding noise.
- AD: Marsaglia & Marsaglia's adinf approximation with the finite-n
  correction term.

All of it needs only NumPy and ``math``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .estimation import FitError, FitResult, _finite_sample, _objective_value, fit
from .model import GtldModel, param_names

_KOLMOG_CUTOVER = 0.82
_KOLMOG_TERMS = 12
_CVM_TERMS = 12
_CVM_TAIL = 1.0  # from here on the CvM p-value is the upper tail itself (p < 0.0025)


@dataclass(frozen=True)
class GofReport:
    neg2_loglik: float
    aic: float
    ks: tuple
    cvm: tuple
    ad: tuple
    n: int

    def to_dict(self) -> dict:
        return {
            "neg2_loglik": self.neg2_loglik,
            "aic": self.aic,
            "ks": {"statistic": self.ks[0], "p_value": self.ks[1]},
            "cvm": {"statistic": self.cvm[0], "p_value": self.cvm[1]},
            "ad": {"statistic": self.ad[0], "p_value": self.ad[1]},
            "n": self.n,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def _fit_statistic(method: str, sample, model: GtldModel) -> float:
    """The fit objective ``method`` at the model, on the sorted sample: -log L
    for ml, W^2 for cvm, A^2 (log terms clamped at 1e-300) for ad."""
    return float(_objective_value(method, model, sample)[0])


def _kolmogorov_sf(y: float) -> float:
    """P(K > y) for Kolmogorov's limit law K of sqrt(n) * D.

    Up to the cutover the cdf's theta-function form
    sqrt(2 pi)/y * sum exp(-(2k-1)^2 pi^2 / (8 y^2)) converges fast; above
    it the alternating series 2 * sum (-1)^(k-1) exp(-2 k^2 y^2) does.  At
    the cutover the first needs 3 terms and the second 6 for double
    precision, so 12 are ample on either side.
    """
    if y <= 0.04:
        return 1.0  # the cdf underflows to 0
    if y <= _KOLMOG_CUTOVER:
        c = -(math.pi**2) / (8.0 * y * y)
        cdf = math.sqrt(2.0 * math.pi) / y * math.fsum(
            math.exp((2 * k - 1) ** 2 * c) for k in range(1, _KOLMOG_TERMS + 1)
        )
        return min(max(1.0 - cdf, 0.0), 1.0)
    c = -2.0 * y * y
    sf = 2.0 * math.fsum(
        (-1.0) ** (k - 1) * math.exp(k * k * c) for k in range(1, _KOLMOG_TERMS + 1)
    )
    return min(max(sf, 0.0), 1.0)


def ks_statistic(sample, model: GtldModel):
    """Two-sided sup-distance D and its asymptotic p-value."""
    F = model.cdf(np.sort(_finite_sample(sample, model.support_low)))
    n = F.size
    i = np.arange(1, n + 1)
    d = max(float(np.max(i / n - F)), float(np.max(F - (i - 1) / n)))
    return d, _kolmogorov_sf(math.sqrt(n) * d)


def _exp_k_quarter(a: np.ndarray) -> np.ndarray:
    """e^(-a) K_{1/4}(a) for each a > 0, in one array evaluation.

    e^(-a) K_nu(a) = int_0^inf exp(-a (1 + cosh t)) cosh(nu t) dt
                   = e^(-2a) int_0^inf exp(-2a sinh(t/2)^2) cosh(nu t) dt,
    and the trapezoid rule converges spectrally on it: the integrand is
    entire and decays double-exponentially.  Near t = 0 it is a Gaussian
    of width 1/sqrt(a), so the step is 0.6/sqrt(a), capped at 0.25; the
    nodes run out to where the integrand has fallen below e^-40 (for the
    largest step; the other rows' terms past their own end underflow to 0,
    which is their limit).
    """
    h = np.minimum(0.25, 0.6 / np.sqrt(a))
    t_end = 2.0 * np.arcsinh(np.sqrt(20.0 / a))
    t = np.arange(int(np.max(t_end / h)) + 2) * h[:, None]
    with np.errstate(under="ignore"):
        f = np.exp(-2.0 * a[:, None] * np.sinh(0.5 * t) ** 2) * np.cosh(0.25 * t)
        return np.exp(-2.0 * a) * h * (f.sum(axis=1) - 0.5 * f[:, 0])


def _cvm_limit_cdf(x: float) -> float:
    """Limiting CDF of the Cramer-von Mises W^2 statistic (Csorgo-Faraway)."""
    if math.isnan(x):
        return math.nan
    if x <= 0.0:
        return 0.0
    a = [(4.0 * k + 1.0) ** 2 / (16.0 * x) for k in range(_CVM_TERMS)]
    live = [v for v in a if v <= 700.0]  # a grows with k
    bessel = _exp_k_quarter(np.array(live)).tolist() if live else []
    total = 0.0
    binom = 1.0  # C(-1/2, k) by the multiplicative recurrence
    for k in range(len(live)):
        if k > 0:
            binom *= (-0.5 - k + 1) / k
        total += (-1.0) ** k * binom * math.sqrt(4.0 * k + 1.0) * bessel[k]
    return min(max(total / (math.pi * math.sqrt(x)), 0.0), 1.0)


def _cvm_upper_tail(x: float) -> float:
    """P(W^2 > x) for the limiting Cramer-von Mises law, for x >= 1.

    Smirnov's series gives
    P(W^2 > x) = (2/pi) sum_k (-1)^(k+1)
                 int_{(2k-1) pi}^{2k pi} e^(-x y^2/2) / sqrt(-y sin y) dy,
    whose terms after the first are below e^(-4 pi^2 x) < 1e-17 of it for
    x >= 1.  With y = pi (1 + s) the first is
    2 e^(-pi^2 x/2) int_0^1 e^(-pi^2 x s (1 + s/2)) / sqrt(pi (1 + s) sin(pi s)) ds,
    whose inverse-square-root endpoint singularities the tanh-sinh rule
    absorbs.  Unlike 1 - CDF it keeps its relative accuracy however small
    the tail, and it is 0 only where e^(-pi^2 x/2) underflows.
    """
    # imported here: numerics builds its node tables at import, and a fit
    # report needs them only for a p-value at W^2 >= 1
    from .numerics import QuadratureSpec, integrate

    c = math.pi**2 * x

    def integrand(s):
        weight = np.exp(-c * s * (1.0 + 0.5 * s))
        return weight / np.sqrt(math.pi * (1.0 + s) * np.sin(math.pi * s))

    spec = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-14)
    return 2.0 * math.exp(-0.5 * c) * integrate(integrand, 0.0, 1.0, spec)


def _cvm_sf(x: float) -> float:
    """P(W^2 > x): 1 - CDF below x = 1, the upper tail itself from there on."""
    if x >= _CVM_TAIL:
        return _cvm_upper_tail(x)
    return 1.0 - _cvm_limit_cdf(x)


def cvm_statistic(sample, model: GtldModel):
    """W^2 statistic and asymptotic p-value."""
    w2 = _fit_statistic("cvm", sample, model)
    return w2, _cvm_sf(w2)


def _adinf(z: float) -> float:
    """Marsaglia's asymptotic CDF of the Anderson-Darling statistic."""
    if z <= 0.0:
        return 0.0
    if z < 2.0:
        return (
            math.exp(-1.2337141 / z)
            / math.sqrt(z)
            * (
                2.00012
                + (
                    0.247105
                    - (0.0649821 - (0.0347962 - (0.011672 - 0.00168691 * z) * z) * z)
                    * z
                )
                * z
            )
        )
    return math.exp(
        -math.exp(
            1.0776 - (2.30695 - (0.43424 - (0.082433 - (0.008056 - 0.0003146 * z) * z) * z) * z) * z
        )
    )


def _ad_errfix(n: int, x: float) -> float:
    """Finite-n correction to adinf (Marsaglia & Marsaglia 2004)."""
    if x > 0.8:
        return (
            -130.2137
            + (745.2337 - (1705.091 - (1950.646 - (1116.360 - 255.7844 * x) * x) * x) * x) * x
        ) / n
    c = 0.01265 + 0.1757 / n
    if x < c:
        t = x / c
        t = math.sqrt(t) * (1.0 - t) * (49.0 * t - 102.0)
        return t * (0.0037 / n**3 + 0.00078 / n**2 + 0.00006 / n)
    t = (x - c) / (0.8 - c)
    t = -0.00022633 + (6.54034 - (14.6538 - (14.458 - (8.259 - 1.91864 * t) * t) * t) * t) * t
    return t * (0.04213 + 0.01365 / n) / n


def ad_statistic(sample, model: GtldModel):
    """A^2 statistic and p-value via adinf + finite-n correction."""
    n = np.size(sample)
    a2 = _fit_statistic("ad", sample, model)
    cdf_val = _adinf(a2)
    cdf_val = min(max(cdf_val + _ad_errfix(n, cdf_val), 0.0), 1.0)
    return a2, 1.0 - cdf_val


def gof_report(sample, model: GtldModel) -> GofReport:
    """Assemble the full report for a fitted model; the AIC counts the
    model's parameters."""
    xs = np.asarray(sample, dtype=float)
    neg2 = 2.0 * _fit_statistic("ml", xs, model)
    k = len(param_names(model.family))
    return GofReport(
        neg2_loglik=neg2,
        aic=neg2 + 2.0 * k,
        ks=ks_statistic(xs, model),
        cvm=cvm_statistic(xs, model),
        ad=ad_statistic(xs, model),
        n=int(xs.size),
    )


@dataclass(frozen=True)
class ModelSelectEntry:
    family: str
    method: str
    fit: FitResult | None
    report: GofReport | None
    error: str | None = None


def model_select(sample, candidates, seed: int = 0) -> list[ModelSelectEntry]:
    """Fit every candidate and rank by AIC (ties broken by KS statistic).

    ``candidates`` is an iterable of family ids or (family, method) pairs;
    a candidate whose fit or report fails with ``FitError``,
    ``ArithmeticError`` or ``ValueError`` is recorded in the ranking with
    its message, not raised.
    """
    entries = []
    for cand in candidates:
        family, method = (cand, "ml") if isinstance(cand, str) else cand
        try:
            result = fit(sample, family, method=method, seed=seed)
            report = gof_report(sample, GtldModel(family, result.estimates))
            entries.append(ModelSelectEntry(family, method, result, report))
        except (FitError, ArithmeticError, ValueError) as exc:
            # a candidate that fails numerically is ranked last; any other
            # exception is a bug and propagates
            entries.append(ModelSelectEntry(family, method, None, None, str(exc)))
    ok = [e for e in entries if e.report is not None]
    failed = [e for e in entries if e.report is None]
    ok.sort(key=lambda e: (e.report.aic, e.report.ks[0]))
    return ok + failed
