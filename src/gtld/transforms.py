"""The eight built-in inner transforms G(x) and their closed-form CDFs.

Each sub-family of the distribution is determined by a strictly increasing
function G with G(support_low+) = 0 and G(x) -> inf.  G and log G' are
evaluated only by the kernels (``_kernels``); :data:`FAMILIES` holds what
else differs between sub-families, one row each, and ``make_transform``
builds a sub-family's :class:`InnerTransform` from its lowercase string id.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple

import numpy as np

from . import _kernels


def _gtmw_inverse(y, alpha: float, gamma: float) -> np.ndarray:
    """Inverse of G(x) = x^alpha * exp(gamma*x), elementwise.

    Newton's method on h(z) = alpha*z + gamma*e^z - log y in z = log x, so
    that x keeps its relative accuracy however small y is.  h is increasing
    and convex: from a start right of the root the iterates fall onto it
    monotonically, and from one left of it the first step lands right of
    it.  The start min(log(y)/alpha, log(log(y)/gamma)), the second term
    only where log y > 0, is right of the root or one short step left of it.
    """
    y = np.asarray(y, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ly = np.log(np.atleast_1d(y))
        z = np.minimum(ly / alpha, np.where(ly > 0.0, np.log(ly / gamma), np.inf))
    idx = np.flatnonzero(np.isfinite(z))  # y = 0 gives x = 0, y = inf gives inf
    for _ in range(100):
        if idx.size == 0:
            break
        zi, ez = z[idx], np.exp(z[idx])
        step = (alpha * zi + gamma * ez - ly[idx]) / (alpha + gamma * ez)
        z[idx] = zi - step
        idx = idx[np.abs(step) > 1e-15 * np.maximum(1.0, np.abs(zi))]
    return np.exp(z).reshape(y.shape)


class Family(NamedTuple):
    """What a sub-family adds to its kernel G, as functions of the shapes (s1, s2).

    ``edge_order`` is the power k and ``edge_coef`` the coefficient c with
    G(x) ~ c*(x - support_low)^k near the lower endpoint (used for
    integrability screening and the density's limit there); ``start`` gives
    the shape values ``fit`` starts from, given the sample.
    """

    shapes: tuple[str, ...]
    inverse: Callable  # (y, s1, s2) -> x with G(x) = y
    edge_order: Callable  # (s1, s2) -> k
    edge_coef: Callable  # (s1, s2) -> c
    support_low: Callable  # (s1, s2) -> lower end of the support
    start: Callable  # sample -> shape values


def _alpha(s1, s2):
    return s1


def _one(s1, s2):
    return 1.0


def _zero(s1, s2):
    return 0.0


def _inv_alpha(s1, s2):
    return 1.0 / s1


def _unit_alpha(xs):
    return (1.0,)


# "alpha" is a power for gtw/gtmw/gtwe/gtb12, the Lomax inner scale for gtl
# and the Pareto lower bound for gtp1, whose support is (alpha, inf)
FAMILIES: dict[str, Family] = {
    "gte": Family((), lambda y, a, g: y + 0.0, _one, _one, _zero, lambda xs: ()),
    "gtr": Family(
        (), lambda y, a, g: np.sqrt(2.0 * y), lambda a, g: 2.0, lambda a, g: 0.5,
        _zero, lambda xs: (),
    ),
    "gtw": Family(
        ("alpha",), lambda y, a, g: y ** (1.0 / a), _alpha, _one, _zero, _unit_alpha
    ),
    "gtmw": Family(
        ("alpha", "gamma"), _gtmw_inverse, _alpha, _one, _zero, lambda xs: (1.0, 0.1)
    ),
    "gtwe": Family(
        ("alpha",), lambda y, a, g: np.log1p(y) ** (1.0 / a), _alpha, _one, _zero,
        _unit_alpha,
    ),
    "gtb12": Family(
        ("alpha",), lambda y, a, g: np.expm1(y) ** (1.0 / a), _alpha, _one, _zero,
        _unit_alpha,
    ),
    "gtl": Family(
        ("alpha",), lambda y, a, g: a * np.expm1(y), _one, _inv_alpha, _zero, _unit_alpha
    ),
    "gtp1": Family(
        ("alpha",), lambda y, a, g: a * np.exp(y), _one, _inv_alpha, _alpha,
        lambda xs: (0.9 * float(np.min(xs)),),
    ),
}

SUBFAMILY_SHAPES: dict[str, tuple[str, ...]] = {k: f.shapes for k, f in FAMILIES.items()}

SUBFAMILY_IDS = tuple(FAMILIES)


def kernel_shapes(values) -> tuple[float, float]:
    """The kernels' shape slots (s1, s2): shape values in table order, zero-padded."""
    s1, s2 = (*values, 0.0, 0.0)[:2]
    return s1, s2


@dataclass(frozen=True)
class InnerTransform:
    """A built-in sub-family's G with derivative, inverse, and support.

    Invariants: G strictly increasing on (support_low, inf),
    G(support_low+) = 0, G -> inf; ``inverse`` is the functional inverse of
    ``eval``.  ``family_id`` and ``kernel_shapes`` are the kernel arguments
    that select G.
    """

    name: str
    shape_params: Mapping[str, float]
    family_id: int
    kernel_shapes: tuple[float, float]
    support_low: float
    edge_order: float
    edge_coef: float

    def _g(self, xv):
        return _kernels._g_parts(self.family_id, *self.kernel_shapes, 1.0, xv)[0]

    def _gp(self, xv):
        return np.exp(_kernels._g_parts(self.family_id, *self.kernel_shapes, 1.0, xv, lgp=True)[1])

    def eval(self, x):
        """G(x), from the kernels' ``_g_parts`` with beta = 1."""
        return _kernels._at_points(x, self._g)

    def deriv(self, x):
        """G'(x), as exp of the kernel's log G'."""
        return _kernels._at_points(x, self._gp)

    def inverse(self, y):
        return FAMILIES[self.name].inverse(np.asarray(y, dtype=float), *self.kernel_shapes)


def make_transform(sub_id: str, **shape: float) -> InnerTransform:
    """Build one of the eight built-in transforms from its string id."""
    if sub_id not in FAMILIES:
        raise ValueError(
            f"unknown sub-family {sub_id!r}; expected one of {SUBFAMILY_IDS}"
        )
    required = FAMILIES[sub_id].shapes
    missing = [n for n in required if n not in shape]
    if missing:
        raise ValueError(f"{sub_id} requires shape parameter(s) {missing}")
    extra = [n for n in shape if n not in required]
    if extra:
        raise ValueError(f"{sub_id} does not take shape parameter(s) {extra}")
    for name, val in shape.items():
        if not val > 0:
            raise ValueError(f"shape parameter {name} must be positive, got {val}")

    row = FAMILIES[sub_id]
    shape = {n: float(shape[n]) for n in required}
    s = kernel_shapes(shape.values())
    return InnerTransform(
        name=sub_id,
        shape_params=shape,
        family_id=_kernels.FAMILY_IDS[sub_id],
        kernel_shapes=s,
        support_low=row.support_low(*s),
        edge_order=row.edge_order(*s),
        edge_coef=row.edge_coef(*s),
    )


def closed_form_cdf(sub_id: str, params, x):
    """The sub-family's printed CDF, written directly (no G pipeline).

    Differential-test counterpart of the generic cdf; both must agree to
    machine-level tolerance.
    """
    if sub_id not in FAMILIES:
        raise ValueError(f"unknown sub-family {sub_id!r}")
    x = np.asarray(x, dtype=float)
    b, t, lam = params.beta, params.theta, params.lam
    sh = params.shape
    if sub_id == "gte":
        u = -np.expm1(-b * x)
    elif sub_id == "gtr":
        u = -np.expm1(-b * x**2 / 2.0)
    elif sub_id == "gtw":
        u = -np.expm1(-b * x ** sh["alpha"])
    elif sub_id == "gtmw":
        u = -np.expm1(-b * x ** sh["alpha"] * np.exp(sh["gamma"] * x))
    elif sub_id == "gtwe":
        with np.errstate(over="ignore"):  # G = inf is the right limit
            u = -np.expm1(-b * np.expm1(x ** sh["alpha"]))
    elif sub_id == "gtb12":
        u = 1.0 - (1.0 + x ** sh["alpha"]) ** (-b)
    elif sub_id == "gtl":
        u = 1.0 - (1.0 + x / sh["alpha"]) ** (-b)
    else:  # gtp1
        u = 1.0 - (x / sh["alpha"]) ** (-b)
    ut = u**t
    return (1.0 + lam) * ut - lam * ut**2
