"""The distribution family itself: CDF/PDF/SF/hazard, quantile, sampling.

The CDF is F(x) = (1+lam)*v - lam*v^2 with v = u^theta and
u = 1 - exp(-beta*G(x)); a model is a sub-family's name, which selects G
from the kernels' family table (``_kernels._FAMILIES``), and a
:class:`ParamVector` holding its shapes psi, beta, theta and lam.
F, the survival function and log f are evaluated by the kernels
(``_kernels``), which work in log u; the survival function uses the exact
factorization 1 - (1+lam)*v + lam*v^2 = (1-v)*(1-lam*v), with 1-v
evaluated through expm1 so the deep right tail keeps relative accuracy.
The public ``cdf``, ``survival``, ``logpdf`` and ``pdf`` check the support
and run the kernels' cores through ``_kernels._at_points``, the one way in
for points; ``_logpdf`` is the log f core with the density's limits filled
in where the kernel gives NaN, and ``_pdf`` its exp.  Quantiles come from
the kernels' quantile core, ``_kernels._quantile_core``, which the
property integrals call on their levels too: a Q past the float range is
inf, and ``sample`` refuses such a draw with ``OverflowError``, as
``quantile_measures`` refuses such a level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

import numpy as np

from . import _kernels

# the shape names of each family, in the kernels' family order
SUBFAMILY_SHAPES: dict[str, tuple[str, ...]] = {r.name: r.shapes for r in _kernels._FAMILIES}
SUBFAMILY_IDS = tuple(SUBFAMILY_SHAPES)


def _check_positive(name: str, value) -> None:
    """Refuse (ValueError) a parameter that is not a positive finite number."""
    if not 0 < value < np.inf:  # NaN fails it too
        raise ValueError(f"{name} must be {'finite' if value > 0 else 'positive'}, got {value}")


def _check_shapes(family: str, shape: Mapping[str, float]) -> None:
    """Refuse (ValueError) an unknown sub-family, and shape parameters that
    are missing from or not among the sub-family's."""
    if family not in SUBFAMILY_SHAPES:
        raise ValueError(f"unknown sub-family {family!r}; expected one of {SUBFAMILY_IDS}")
    required = SUBFAMILY_SHAPES[family]
    missing = [n for n in required if n not in shape]
    if missing:
        raise ValueError(f"{family} requires shape parameter(s) {missing}")
    extra = [n for n in shape if n not in required]
    if extra:
        raise ValueError(f"{family} does not take shape parameter(s) {extra}")


def kernel_shapes(values) -> tuple[float, float]:
    """The kernels' shape slots (s1, s2): shape values in table order, zero-padded."""
    s1, s2 = (*values, 0.0, 0.0)[:2]
    return s1, s2


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
        _check_positive("beta", self.beta)
        _check_positive("theta", self.theta)
        if not -1.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda must lie in [-1, 1], got {self.lam}")
        for name, val in self.shape.items():
            _check_positive(f"shape parameter {name}", val)
        object.__setattr__(self, "shape", dict(self.shape))

    def as_array(self, family: str) -> np.ndarray:
        """Flat (shape..., beta, theta, lam) array, the shapes in the
        family's table order."""
        return np.array(
            [self.shape[n] for n in SUBFAMILY_SHAPES[family]] + [self.beta, self.theta, self.lam]
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
    """One member of the family: a sub-family's name and a parameter vector
    with that sub-family's shapes (ValueError for an unknown sub-family, a
    missing shape or an extra one).

    The rest is read once from the family table: the kernels' leading
    arguments, the support's low end, and the edge order k and coefficient
    c with G(x) ~ c*(x - support_low)^k there.
    """

    family: str
    params: ParamVector
    # (family id, s1, s2, beta, theta, lam), the shapes as floats in table order
    kernel_args: tuple = field(init=False, repr=False, compare=False)
    support_low: float = field(init=False, repr=False, compare=False)
    edge_order: float = field(init=False, repr=False, compare=False)
    edge_coef: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        family, p = self.family, self.params
        _check_shapes(family, p.shape)
        fam = _kernels.FAMILY_IDS[family]
        s1, s2 = kernel_shapes(float(p.shape[n]) for n in SUBFAMILY_SHAPES[family])
        k, c, low = _kernels._FAMILIES[fam].edge(s1)
        object.__setattr__(self, "kernel_args", (fam, s1, s2, p.beta, p.theta, p.lam))
        object.__setattr__(self, "support_low", low)
        object.__setattr__(self, "edge_order", k)
        object.__setattr__(self, "edge_coef", c)

    # -- distribution functions ------------------------------------------

    def _check_support(self, x):
        xv = np.asarray(x, dtype=float)
        low = self.support_low
        if (xv < low).any():
            raise SupportError(f"argument below the support infimum {low} of {self.family}")
        return xv

    def cdf(self, x):
        return _kernels._at_points(self._check_support(x), _kernels._cdf_core, *self.kernel_args)

    def survival(self, x):
        return _kernels._at_points(self._check_support(x), _kernels._sf_core, *self.kernel_args)

    def _logpdf(self, xv):
        """log f on a float array of points in the support, under the
        caller's errstate: the kernel's core, its NaNs filled."""
        out = _kernels._logpdf_core(*self.kernel_args, xv)
        if np.isnan(out).any():
            out = self._fill_nan(xv, out)
        return out

    def _fill_nan(self, xv, out):
        """Replace the kernel's NaNs, under the caller's errstate: one-sided
        limits where G(x) <= 0 (G from the kernels' ``_g_parts``), else -inf.

        Where u = 0 the kernel's terms are inf - inf or 0*inf.  Near the edge
        G ~ c*t^k, so F ~ (1+lam)*(beta*c)^theta * t^(k*theta) and the density
        tends to 0 for k*theta > 1, to inf for k*theta < 1 and to
        (beta*c)^theta*(1+lam) for k*theta = 1.  At lam = -1, F = v^2 is the
        lam = 0 model with 2*theta.
        """
        p = self.params
        theta, scale = (2.0 * p.theta, 1.0) if p.lam == -1.0 else (p.theta, 1.0 + p.lam)
        power = self.edge_order * theta
        if power > 1.0:
            edge = -np.inf
        elif power < 1.0:
            edge = np.inf
        else:
            edge = theta * np.log(p.beta * self.edge_coef) + np.log(scale)
        nan = np.isnan(out)
        g = _kernels._g_parts(*self.kernel_args[:3], 1.0, xv)[0]
        return np.where(nan & (g <= 0.0), edge, np.where(nan, -np.inf, out))

    def _pdf(self, xv):
        """f on a float array of points in the support, under the caller's
        errstate."""
        return np.exp(self._logpdf(xv))

    def logpdf(self, x):
        return _kernels._at_points(self._check_support(x), self._logpdf)

    def pdf(self, x):
        return _kernels._at_points(self._check_support(x), self._pdf)

    def hazard(self, x):
        s = self.survival(x)
        f = self.pdf(x)
        s_arr = np.asarray(s)
        if np.any(s_arr == 0.0):
            raise OverflowError("survival underflowed to 0; hazard undefined")
        return f / s

    # -- quantiles and sampling ------------------------------------------

    def _quantile_arr(self, p):
        """Q(p) on a float array of levels, from the kernels' quantile core;
        inf where Q lies past the float range."""
        with np.errstate(all="ignore"):
            return _kernels._quantile_core(*self.kernel_args, p)

    def quantile(self, p):
        # a scalar p runs as a one-element array: a 0-d one would take other
        # NumPy loops and could round differently from ``sample``
        pv = np.array(p, dtype=float, ndmin=1)
        if not ((pv > 0.0) & (pv < 1.0)).all():  # NaN fails both
            raise ValueError("quantile requires 0 < p < 1")
        out = self._quantile_arr(pv)
        return out if np.ndim(p) else float(out[0])

    def sample(self, n: int, seed: int) -> np.ndarray:
        """n i.i.d. draws by inverse-CDF over a seeded PCG64 generator."""
        if n < 1:
            raise ValueError("sample size must be >= 1")
        rng = np.random.default_rng(seed)
        u = rng.random(n)
        u = np.maximum(u, 1e-300)  # keep strictly inside (0, 1)
        x = self._quantile_arr(u)
        if not np.isfinite(x).all():
            raise OverflowError("a draw lies past the float range (Q(u) = inf)")
        return x

    def quantile_measures(self) -> QuantileMeasures:
        """Median, Moors coefficient of kurtosis, Bowley coefficient of skewness.

        ``OverflowError`` where one of Q(1/8), ..., Q(7/8) or the Moors
        coefficient lies past the float range, ``ZeroDivisionError`` where
        Q(2/8) = Q(6/8) in floating point.
        """
        q = self.quantile(np.array([1, 2, 3, 4, 5, 6, 7]) / 8.0)
        if not np.isfinite(q).all():
            k = int(np.argmin(np.isfinite(q))) + 1
            raise OverflowError(f"Q({k}/8) lies past the float range (Q = inf)")
        # Python floats round as NumPy's scalars do, and never warn
        q1, q2, q3, q4, q5, q6, q7 = q.tolist()
        spread = q6 - q2
        if spread == 0.0:
            raise ZeroDivisionError("Q(2/8) = Q(6/8) in floating point: no quantile measures")
        mck = (q7 - q5 + q3 - q1) / spread
        if mck == math.inf:
            raise OverflowError("the Moors coefficient lies past the float range")
        # fl(q6 - q4) <= fl(q6 - q2), so the quotient cannot exceed 1
        return QuantileMeasures(q4, mck, ((q6 - q4) - (q4 - q2)) / spread)


def make_model(
    family: str,
    beta: float,
    theta: float,
    lam: float,
    **shape: float,
) -> GtldModel:
    """Convenience constructor from a sub-family id and named parameters."""
    return GtldModel(family, ParamVector(beta=beta, theta=theta, lam=lam, shape=shape))


def model_from_params(family: str, params: ParamVector) -> GtldModel:
    return GtldModel(family, params)
