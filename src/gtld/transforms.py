"""The eight built-in inner transforms G(x) and their closed-form CDFs.

Each sub-family of the distribution is determined by a strictly increasing
function G with G(support_low+) = 0 and G(x) -> inf.  G, log G' and the
inverse G^-1 are evaluated only by the kernels (``_kernels``), whose one
family table also holds what else differs between sub-families (shape
names, support, edge behaviour, start shapes); ``make_transform`` builds a
sub-family's :class:`InnerTransform` from its lowercase string id and that
table's row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import _kernels

# the shape names of each family, in the kernels' family order
SUBFAMILY_SHAPES: dict[str, tuple[str, ...]] = {r.name: r.shapes for r in _kernels._FAMILIES}
SUBFAMILY_IDS = tuple(SUBFAMILY_SHAPES)


def _check_positive(name: str, value) -> None:
    """Refuse (ValueError) a parameter that is not a positive finite number."""
    if not 0 < value < np.inf:  # NaN fails it too
        raise ValueError(f"{name} must be {'finite' if value > 0 else 'positive'}, got {value}")


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
        """x with G(x) = y, from the kernels' ``_g_inverse``; inf past the float range."""
        y = np.asarray(y, dtype=float)
        with np.errstate(all="ignore"):
            return _kernels._g_inverse(self.family_id, *self.kernel_shapes, y)


def make_transform(sub_id: str, **shape: float) -> InnerTransform:
    """Build one of the eight built-in transforms from its string id."""
    if sub_id not in SUBFAMILY_SHAPES:
        raise ValueError(
            f"unknown sub-family {sub_id!r}; expected one of {SUBFAMILY_IDS}"
        )
    required = SUBFAMILY_SHAPES[sub_id]
    missing = [n for n in required if n not in shape]
    if missing:
        raise ValueError(f"{sub_id} requires shape parameter(s) {missing}")
    extra = [n for n in shape if n not in required]
    if extra:
        raise ValueError(f"{sub_id} does not take shape parameter(s) {extra}")
    for name, val in shape.items():
        _check_positive(f"shape parameter {name}", val)

    fam = _kernels.FAMILY_IDS[sub_id]
    shape = {n: float(shape[n]) for n in required}
    s = kernel_shapes(shape.values())
    k, c, low = _kernels._FAMILIES[fam].edge(s[0])
    return InnerTransform(
        name=sub_id,
        shape_params=shape,
        family_id=fam,
        kernel_shapes=s,
        support_low=low,
        edge_order=k,
        edge_coef=c,
    )


def closed_form_cdf(sub_id: str, params, x):
    """The sub-family's printed CDF, written directly (no G pipeline).

    Differential-test counterpart of the generic cdf; both must agree to
    machine-level tolerance.
    """
    if sub_id not in SUBFAMILY_SHAPES:
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
        with np.errstate(over="ignore", under="ignore"):  # G = inf is the right limit
            u = -np.expm1(-b * np.expm1(x ** sh["alpha"]))
    elif sub_id == "gtb12":
        u = 1.0 - (1.0 + x ** sh["alpha"]) ** (-b)
    elif sub_id == "gtl":
        u = 1.0 - (1.0 + x / sh["alpha"]) ** (-b)
    else:  # gtp1
        u = 1.0 - (x / sh["alpha"]) ** (-b)
    ut = u**t
    return (1.0 + lam) * ut - lam * ut**2
