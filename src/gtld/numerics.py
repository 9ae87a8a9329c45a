"""Special functions, adaptive quadrature, and series summation.

Thin, well-tested wrappers shared by the distribution, property, and
estimation layers.  Quadrature is delegated to QUADPACK (via
``scipy.integrate.quad``); semi-infinite ranges are mapped onto (0, 1)
with the substitution x = lo + t/(1-t) so that integrands with very
different decay rates are treated uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from scipy import integrate as _integrate
from scipy import special as _special


class NumericsError(Exception):
    """Base class for numerical failures in this module."""


class QuadratureError(NumericsError):
    """Raised when adaptive quadrature cannot meet the requested tolerance.

    Carries the best available estimate and its error bound so callers can
    decide whether to accept a degraded result.
    """

    def __init__(self, message, estimate=None, error_bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class SeriesError(NumericsError):
    """Raised when a series fails to converge within ``max_terms``."""

    def __init__(self, message, partial_sum=None, terms_used=None):
        super().__init__(message)
        self.partial_sum = partial_sum
        self.terms_used = terms_used


@dataclass(frozen=True)
class QuadratureSpec:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subdivisions: int = 200

    def __post_init__(self):
        if not self.abs_tol > 0:
            raise ValueError("abs_tol must be positive")
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


@dataclass(frozen=True)
class SeriesSpec:
    tail_tol: float = 1e-12
    max_terms: int = 100_000

    def __post_init__(self):
        if not self.tail_tol > 0:
            raise ValueError("tail_tol must be positive")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")


def gamma_fn(x: float) -> float:
    """Gamma function, rejecting the poles at non-positive integers."""
    if x <= 0 and x == math.floor(x):
        raise NumericsError(f"gamma_fn pole at non-positive integer x={x}")
    return math.gamma(x)


def lower_incomplete_gamma(s: float, x: float) -> float:
    """gamma(s, x) = integral of t^(s-1) e^(-t) over (0, x]."""
    if s <= 0:
        raise ValueError(f"lower_incomplete_gamma requires s > 0, got {s}")
    if x < 0:
        raise ValueError(f"lower_incomplete_gamma requires x >= 0, got {x}")
    return float(_special.gammainc(s, x)) * math.gamma(s)


def integrate(
    f: Callable[[float], float],
    lower: float,
    upper: float,
    spec: QuadratureSpec | None = None,
) -> float:
    """Adaptive quadrature of ``f`` over (lower, upper); upper may be inf.

    Semi-infinite ranges are folded onto (0, 1) via x = lower + t/(1-t).
    Raises :class:`QuadratureError` (carrying the best estimate) when the
    achieved error bound exceeds max(abs_tol, rel_tol*|result|).
    """
    spec = spec or QuadratureSpec()
    if math.isinf(upper):
        lo = lower

        def folded(t: float) -> float:
            om = 1.0 - t
            return f(lo + t / om) / (om * om)

        val, err, ok = _quad(folded, 0.0, 1.0, spec)
    else:
        val, err, ok = _quad(f, lower, upper, spec)
    if not ok and err > max(spec.abs_tol, spec.rel_tol * abs(val)):
        raise QuadratureError(
            f"quadrature did not converge (estimate {val!r}, error bound {err!r})",
            estimate=val,
            error_bound=err,
        )
    return val


def _quad(f, a, b, spec):
    out = _integrate.quad(
        f,
        a,
        b,
        epsabs=spec.abs_tol,
        epsrel=spec.rel_tol,
        limit=spec.max_subdivisions,
        full_output=1,
    )
    val, err = out[0], out[1]
    # quad signals trouble through a 4th element (message); treat presence as failure
    ok = len(out) == 3
    return val, err, ok


def sum_series(term: Callable[[int], float], spec: SeriesSpec | None = None) -> float:
    """Sum term(0) + term(1) + ... until the tail is negligible.

    Truncates once |term(k)| < tail_tol for three consecutive k (the
    alternating binomial series handled here have non-monotone early terms,
    so a single small term is not a safe stopping signal).
    """
    spec = spec or SeriesSpec()
    total = 0.0
    small_run = 0
    for k in range(spec.max_terms):
        t = term(k)
        total += t
        if abs(t) < spec.tail_tol:
            small_run += 1
            if small_run >= 3:
                return total
        else:
            small_run = 0
    raise SeriesError(
        f"series tail above {spec.tail_tol!r} after {spec.max_terms} terms",
        partial_sum=total,
        terms_used=spec.max_terms,
    )
