"""The distribution family itself: CDF/PDF/SF/hazard, quantile, sampling.

The CDF is F(x) = (1+lam)*v - lam*v^2 with v = u^theta and
u = 1 - exp(-beta*G(x)); G is selected by an :class:`InnerTransform`.
F, the survival function and log f are evaluated by the kernels
(``_kernels``), which work in log u; the survival function uses the exact
factorization 1 - (1+lam)*v + lam*v^2 = (1-v)*(1-lam*v), with 1-v
evaluated through expm1 so the deep right tail keeps relative accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

import numpy as np

from . import _kernels
from .transforms import SUBFAMILY_SHAPES, InnerTransform, make_transform

_V_CLIP = 1.0 - 1e-16  # clamp on v = A^(1/theta) before log1p at p -> 1


class SupportError(ValueError):
    """Argument outside the distribution's support."""


@dataclass(frozen=True)
class ParamVector:
    """Full parameter tuple: shape psi, scale beta, power theta, transmutation lam."""

    beta: float
    theta: float
    lam: float
    shape: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if not self.theta > 0:
            raise ValueError(f"theta must be positive, got {self.theta}")
        if not -1.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda must lie in [-1, 1], got {self.lam}")
        for name, val in self.shape.items():
            if not val > 0:
                raise ValueError(f"shape parameter {name} must be positive, got {val}")
        object.__setattr__(self, "shape", dict(self.shape))

    def as_array(self, family: str | None = None) -> np.ndarray:
        """Flat (shape..., beta, theta, lam) array in declaration order."""
        names = SUBFAMILY_SHAPES[family] if family else tuple(self.shape)
        return np.array(
            [self.shape[n] for n in names] + [self.beta, self.theta, self.lam]
        )


def param_names(family: str) -> tuple[str, ...]:
    """Flat parameter order used by arrays, Hessians, and reports."""
    return SUBFAMILY_SHAPES[family] + ("beta", "theta", "lambda")


class QuantileMeasures(NamedTuple):
    median: float
    moors_kurtosis: float
    bowley_skewness: float


@dataclass(frozen=True)
class GtldModel:
    """Immutable pairing of an inner transform and a parameter vector."""

    transform: InnerTransform
    params: ParamVector
    # (family id, s1, s2, beta, theta, lam): the kernels' leading arguments
    kernel_args: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        tr, p = self.transform, self.params
        args = (tr.family_id, *tr.kernel_shapes, p.beta, p.theta, p.lam)
        object.__setattr__(self, "kernel_args", args)

    @property
    def support_low(self) -> float:
        return self.transform.support_low

    # -- distribution functions ------------------------------------------

    def _check_support(self, x):
        xv = np.asarray(x, dtype=float)
        low = self.transform.support_low
        if (xv < low).any():
            raise SupportError(
                f"argument below the support infimum {low} of {self.transform.name}"
            )
        return xv

    def cdf(self, x):
        out = _kernels.cdf_arr(*self.kernel_args, self._check_support(x))
        return out if np.ndim(x) else float(out)

    def survival(self, x):
        out = _kernels.sf_arr(*self.kernel_args, self._check_support(x))
        return out if np.ndim(x) else float(out)

    def _logpdf(self, xv):
        out = _kernels.logpdf_arr(*self.kernel_args, xv)
        if np.isnan(out).any():
            out = self._fill_nan(xv, out)
        return out

    def _fill_nan(self, xv, out):
        """Replace the kernel's NaNs: one-sided limits where G(x) <= 0, else -inf.

        Where u = 0 the kernel's terms are inf - inf or 0*inf.  The limits
        follow theta: f -> beta*G'*(1+lam) for theta = 1, 0 for theta > 1,
        inf for theta < 1 wherever G' > 0.  log G' is itself 0*inf for the
        power transforms at alpha = 1, where its limit is log(alpha) = 0.
        """
        p = self.params
        G, log_gp = self.transform._parts(xv)
        log_gp = np.where(np.isnan(log_gp), 0.0, log_gp)
        if p.theta == 1.0:
            with np.errstate(divide="ignore"):
                edge = np.log(p.beta * (1.0 + p.lam)) + log_gp
        elif p.theta > 1.0:
            edge = np.full_like(log_gp, -np.inf)
        else:
            edge = np.where(log_gp > -np.inf, np.inf, -np.inf)
        nan = np.isnan(out)
        return np.where(nan & (G <= 0.0), edge, np.where(nan, -np.inf, out))

    def logpdf(self, x):
        out = self._logpdf(self._check_support(x))
        return out if np.ndim(x) else float(out)

    def pdf(self, x):
        with np.errstate(over="ignore"):
            out = np.exp(self._logpdf(self._check_support(x)))
        return out if np.ndim(x) else float(out)

    def hazard(self, x):
        s = self.survival(x)
        f = self.pdf(x)
        s_arr = np.asarray(s)
        if np.any(s_arr == 0.0):
            raise OverflowError("survival underflowed to 0; hazard undefined")
        return f / s

    # -- quantiles and sampling ------------------------------------------

    def _quantile_arr(self, p):
        par = self.params
        lam = par.lam
        with np.errstate(invalid="ignore"):
            disc = np.sqrt(np.maximum((1.0 + lam) ** 2 - 4.0 * p * lam, 0.0))
            A = 2.0 * p / ((1.0 + lam) + disc)
            y = np.minimum(A ** (1.0 / par.theta), _V_CLIP)
        G = -np.log1p(-y) / par.beta
        return self.transform.inverse(G)

    def quantile(self, p):
        pv = np.asarray(p, dtype=float)
        if np.any((pv <= 0.0) | (pv >= 1.0)):
            raise ValueError("quantile requires 0 < p < 1")
        out = self._quantile_arr(pv)
        return out if np.ndim(p) else float(out)

    def sample(self, n: int, seed: int) -> np.ndarray:
        """n i.i.d. draws by inverse-CDF over a seeded PCG64 generator."""
        if n < 1:
            raise ValueError("sample size must be >= 1")
        rng = np.random.default_rng(seed)
        u = rng.random(n)
        u = np.maximum(u, 1e-300)  # keep strictly inside (0, 1)
        return np.asarray(self._quantile_arr(u), dtype=float)

    def quantile_measures(self) -> QuantileMeasures:
        """Median, Moors coefficient of kurtosis, Bowley coefficient of skewness."""
        q = self.quantile(np.array([1, 2, 3, 4, 5, 6, 7]) / 8.0)
        median = q[3]
        mck = (q[6] - q[4] + q[2] - q[0]) / (q[5] - q[1])
        bcs = (q[5] + q[1] - 2.0 * q[3]) / (q[5] - q[1])
        return QuantileMeasures(float(median), float(mck), float(bcs))


def make_model(
    family: str,
    beta: float,
    theta: float,
    lam: float,
    **shape: float,
) -> GtldModel:
    """Convenience constructor from a sub-family id and named parameters."""
    transform = make_transform(family, **shape)
    params = ParamVector(beta=beta, theta=theta, lam=lam, shape=shape)
    return GtldModel(transform=transform, params=params)


def model_from_params(family: str, params: ParamVector) -> GtldModel:
    return GtldModel(make_transform(family, **params.shape), params)
