"""Goodness-of-fit statistics, p-values, and AIC-based model selection.

The p-values use the classical asymptotic null distributions of the
statistics, ignoring the effect of parameter estimation (as standard
statistical software reports them); they are approximate by construction.

- KS: Kolmogorov's limiting distribution of sqrt(n) * D.
- CvM: the Csorgo-Faraway series for the limiting W^2 law (Bessel-K form).
- AD: Marsaglia & Marsaglia's adinf approximation with the finite-n
  correction term.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .estimation import FitResult, fit, neg_log_likelihood
from .model import GtldModel, model_from_params, param_names

_LOG_CLAMP = 1e-300


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


def _fitted_cdf(sample, model: GtldModel) -> np.ndarray:
    return np.asarray(model.cdf(np.sort(np.asarray(sample, dtype=float))))


def ks_statistic(sample, model: GtldModel):
    """Two-sided sup-distance D and its asymptotic p-value."""
    F = _fitted_cdf(sample, model)
    n = F.size
    i = np.arange(1, n + 1)
    d = max(float(np.max(i / n - F)), float(np.max(F - (i - 1) / n)))
    p = float(special.kolmogorov(math.sqrt(n) * d))
    return d, p


def _cvm_limit_cdf(x: float) -> float:
    """Limiting CDF of the Cramer-von Mises W^2 statistic (Csorgo-Faraway)."""
    if x <= 0.0:
        return 0.0
    total = 0.0
    binom = 1.0  # C(-1/2, k) by the multiplicative recurrence
    for k in range(12):
        if k > 0:
            binom *= (-0.5 - k + 1) / k
        a = (4.0 * k + 1.0) ** 2 / (16.0 * x)
        if a > 700.0:
            term = 0.0
        else:
            term = (
                (-1.0) ** k
                * binom
                * math.sqrt(4.0 * k + 1.0)
                * math.exp(-a)
                * float(special.kv(0.25, a))
            )
        total += term
    return min(max(total / (math.pi * math.sqrt(x)), 0.0), 1.0)


def cvm_statistic(sample, model: GtldModel):
    """W^2 statistic and asymptotic p-value."""
    F = _fitted_cdf(sample, model)
    n = F.size
    i = np.arange(1, n + 1)
    w2 = 1.0 / (12.0 * n) + float(np.sum((F - (2.0 * i - 1.0) / (2.0 * n)) ** 2))
    return w2, 1.0 - _cvm_limit_cdf(w2)


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
    xs = np.sort(np.asarray(sample, dtype=float))
    n = xs.size
    i = np.arange(1, n + 1)
    Fc = np.maximum(model.cdf(xs), _LOG_CLAMP)
    Sc = np.maximum(model.survival(xs), _LOG_CLAMP)
    a2 = -n - float(np.sum((2.0 * i - 1.0) * (np.log(Fc) + np.log(Sc[::-1])))) / n
    cdf_val = _adinf(a2)
    cdf_val = min(max(cdf_val + _ad_errfix(n, cdf_val), 0.0), 1.0)
    return a2, 1.0 - cdf_val


def gof_report(sample, model: GtldModel, family: str) -> GofReport:
    """Assemble the full report for a fitted model."""
    xs = np.asarray(sample, dtype=float)
    nll = neg_log_likelihood(model.params, xs, family)
    k = len(param_names(family))
    neg2 = 2.0 * nll
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
    per-candidate failures are recorded in the ranking, not raised.
    """
    entries = []
    for cand in candidates:
        family, method = (cand, "ml") if isinstance(cand, str) else cand
        try:
            result = fit(sample, family, method=method, seed=seed)
            model = model_from_params(family, result.estimates)
            report = gof_report(sample, model, family)
            entries.append(ModelSelectEntry(family, method, result, report))
        except Exception as exc:  # noqa: BLE001 - per-candidate isolation
            entries.append(ModelSelectEntry(family, method, None, None, str(exc)))
    ok = [e for e in entries if e.report is not None]
    failed = [e for e in entries if e.report is None]
    ok.sort(key=lambda e: (e.report.aic, e.report.ks[0]))
    return ok + failed
