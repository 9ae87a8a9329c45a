"""Special functions, tanh-sinh quadrature, and series summation.

Shared by the distribution, property, and estimation layers, and built on
NumPy and ``math`` alone: the lower incomplete gamma function comes from
its power series and continued fraction.  Quadrature is a vectorised
tanh-sinh rule (Takahasi & Mori, 1974): its nodes crowd
double-exponentially towards both ends of (0, 1), which handles endpoint
singularities, and semi-infinite ranges are folded onto (0, 1) with the
substitution x = lo + t/(1-t).  The node tables for the step sizes
h = 1, 1/2, ..., 1/128 are built once at import, grouped into the array
calls of the integrand: one call covers the levels h = 1 ... 1/16, where
most integrals converge, and each finer level makes one call more.
Mapping a block's nodes onto a range (x, the Jacobian, and the level
table once nodes that round onto an endpoint are dropped) depends on the
range alone, so it is memoized per (lower, upper, block) in a cache of
``_NODE_MAPS`` entries (``_node_map``): the property catalog integrates
over a few fixed ranges of levels again and again.  The mapped arrays are
shared between calls and read-only, and so are the parts an integrand is
handed: one that writes into them raises ``ValueError``.

The rule on one range is a reverse-communication generator (``_rule``):
it yields each block's nodes and is sent the integrand's values there.
:func:`integrate_ranges` steps several ranges in lock step, so that one
array call of the integrand per round covers every range still running.
:func:`integrate` is its one-range case.  Whether an integral exists is
the caller's to decide before it integrates.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np


class NumericsError(Exception):
    """Base class for numerical failures in this module."""


class QuadratureError(NumericsError):
    """Raised when quadrature cannot meet the requested tolerance.

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

    def __post_init__(self):
        if not self.abs_tol > 0:
            raise ValueError("abs_tol must be positive")
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")


@dataclass(frozen=True)
class SeriesSpec:
    tail_tol: float = 1e-12
    max_terms: int = 100_000

    def __post_init__(self):
        if not self.tail_tol > 0:
            raise ValueError("tail_tol must be positive")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")


_EPS = 2.0**-52
_LENTZ_TINY = 1e-300
_GAMMA_MAX_STEPS = 10_000


def gamma_fn(x: float) -> float:
    """Gamma function, rejecting the poles at non-positive integers."""
    if x <= 0 and x == math.floor(x):
        raise NumericsError(f"gamma_fn pole at non-positive integer x={x}")
    return math.gamma(x)


def lower_incomplete_gamma(s: float, x: float) -> float:
    """gamma(s, x) = integral of t^(s-1) e^(-t) over (0, x].

    For x < s + 1 the power series
    gamma(s, x) = x^s e^(-x) * sum_n x^n / (s (s+1) ... (s+n))
    has terms falling at least geometrically; otherwise the continued
    fraction for the upper part Gamma(s, x), evaluated by Lentz's method,
    converges fast and gamma(s, x) = Gamma(s) - Gamma(s, x) loses at most
    a bit or two, since Gamma(s, x) < Gamma(s)/2 there.  Both stop when a
    step changes the sum by less than one rounding unit; the prefactor
    x^s e^(-x) is taken through logarithms, so it can neither overflow nor
    underflow before the result does.  Relative error is about 1e-13.
    """
    if s <= 0:
        raise ValueError(f"lower_incomplete_gamma requires s > 0, got {s}")
    if x < 0:
        raise ValueError(f"lower_incomplete_gamma requires x >= 0, got {x}")
    if x == 0:
        return 0.0
    log_front = s * math.log(x) - x
    if x < s + 1.0:
        term = total = 1.0 / s
        for n in range(1, _GAMMA_MAX_STEPS):
            term *= x / (s + n)
            total += term
            if term <= total * _EPS:
                return math.exp(log_front + math.log(total))
    else:
        b = x + 1.0 - s
        c = 1.0 / _LENTZ_TINY
        d = 1.0 / b
        frac = d
        for n in range(1, _GAMMA_MAX_STEPS):
            an = -n * (n - s)
            b += 2.0
            d = an * d + b
            d = 1.0 / (d if abs(d) >= _LENTZ_TINY else _LENTZ_TINY)
            c = b + an / c
            if abs(c) < _LENTZ_TINY:
                c = _LENTZ_TINY
            delta = d * c
            frac *= delta
            if abs(delta - 1.0) <= _EPS:
                return math.gamma(s) - math.exp(log_front + math.log(frac))
    raise NumericsError(
        f"lower_incomplete_gamma({s}, {x}) did not converge in {_GAMMA_MAX_STEPS} steps"
    )


# Nodes t = 1/(1 + exp(-pi*sinh(s))) at s = j*h reach min(t, 1-t) = _T_MIN;
# the integrand may be non-finite only where min(t, 1-t) < _T_EDGE
_T_MIN = 1e-150
_T_EDGE = 1e-12
_LEVELS = 8  # h = 2^-k, k = 0..7


def _node_tables():
    """Per level: h and the (t, 1 - t, dt/ds) of the nodes it adds, ordered by s.

    Level 0 holds s = j for |j| <= s_max; level k >= 1 adds the odd
    multiples of 2^-k.  1 - t is taken from the table, never as 1.0 - t,
    so nodes near t = 1 keep their relative accuracy.
    """
    s_max = math.asinh(-math.log(_T_MIN) / math.pi)
    tables = []
    for k in range(_LEVELS):
        h = 2.0**-k
        n = int(s_max / h)
        j = np.arange(-n, n + 1)
        s = (j if k == 0 else j[j % 2 == 1]) * h
        e = np.exp(-np.pi * np.sinh(s))
        t = 1.0 / (1.0 + e)
        omt = e / (1.0 + e)
        tables.append((h, t, omt, np.pi * np.cosh(s) * t * omt))
    return tables


_TABLES = _node_tables()
_FRONT = 5  # levels 0..4 (173 nodes) share the first call of the integrand


class _Block(NamedTuple):
    """The nodes of one integrand call, with what ``_node_map`` maps them by."""

    t: np.ndarray
    omt: np.ndarray  # 1 - t
    w: np.ndarray  # dt/ds
    levels: list  # (h, start, stop): [start:stop] holds level h's nodes
    starts: np.ndarray  # each level's start
    near_lower: np.ndarray  # t < 1/2: a finite range maps from its lower end
    signed: np.ndarray  # t near the lower end, -(1 - t) near the upper one
    t_fold: np.ndarray  # t / (1 - t), the semi-infinite map less its lower end
    jac_fold: np.ndarray  # its Jacobian, dt/ds / (1 - t)^2


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _node_blocks():
    """The node tables grouped by integrand call, as read-only arrays.

    The first block concatenates levels 0.._FRONT-1 and each later level is
    a block of its own; a block lists each level's nodes in the order of
    ``_TABLES``.
    """
    blocks = []
    for group in [_TABLES[:_FRONT]] + [[level] for level in _TABLES[_FRONT:]]:
        stops = np.cumsum([len(t) for _, t, _, _ in group]).tolist()
        levels = [(h, stop - len(t), stop) for (h, t, _, _), stop in zip(group, stops)]
        t, omt, w = (np.concatenate([level[i] for level in group]) for i in (1, 2, 3))
        starts = np.array([a for _, a, _ in levels])
        near = t < 0.5
        signed = np.where(near, t, -omt)
        arrays = _read_only(t, omt, w, starts, near, signed, t / omt, w / (omt * omt))
        blocks.append(_Block(*arrays[:3], levels, *arrays[3:]))
    return blocks


_BLOCKS = _node_blocks()
# the mapped blocks held: the catalog's fixed ranges of levels, (0, 0.75),
# (0, 0.25) and (0, 1), take 12 with every block, and most integrals one each
_NODE_MAPS = 16


class _NodeMap(NamedTuple):
    """One block's nodes mapped onto one range, read-only; nodes that round
    onto an endpoint are left out."""

    x: np.ndarray
    jac: np.ndarray  # dx/ds
    t: np.ndarray
    omt: np.ndarray  # 1 - t
    # (h, start, stop, t, 1 - t): [start:stop] holds level h's nodes, and
    # the floats are its outermost nodes' t and 1 - t (None for no nodes)
    levels: tuple


@functools.lru_cache(maxsize=_NODE_MAPS)
def _node_map(lower, upper, index):
    """The nodes of block ``index`` of ``_BLOCKS`` on (lower, upper), float
    bounds; the map depends on these alone, so each is made once while it
    stays among the ``_NODE_MAPS`` most recently used."""
    t, omt, w, levels, starts, near_lower, signed, t_fold, jac_fold = _BLOCKS[index]
    if math.isinf(upper):
        x = lower + t_fold
        jac = jac_fold
        keep = x > lower
    else:
        # lower + width*t near the lower end, upper - width*(1 - t) near the upper
        width = upper - lower
        x = np.where(near_lower, lower, upper) + width * signed
        jac = width * w
        keep = (x > lower) & (x < upper)
    kept = np.add.reduceat(keep, starts, dtype=np.intp).tolist()  # per level
    if sum(kept) < keep.size:
        x, jac, t, omt = x[keep], jac[keep], t[keep], omt[keep]
        stops = itertools.accumulate(kept)
        levels = [(h, stop - n, stop) for (h, _, _), n, stop in zip(levels, kept, stops)]
    # the tables order nodes by s, so a level's outermost nodes are its ends
    levels = tuple(
        (h, a, b, float(t[a]), float(omt[b - 1])) if b > a else (h, a, b, None, None)
        for h, a, b in levels
    )
    return _NodeMap(*_read_only(x, jac, t, omt), levels)


def _rule(lower, upper, spec):
    """The tanh-sinh rule on one range, by reverse communication.

    A generator: it yields the (read-only) nodes of each block of
    ``_BLOCKS`` in turn and is sent the integrand's values there (an array
    of the nodes' shape, or a scalar); it returns the estimate or raises
    :class:`QuadratureError`.  :func:`integrate_ranges` drives it.
    """
    if lower == upper:
        return 0.0
    lower, upper = float(lower), float(upper)
    outer_lo = outer_hi = None  # (t or 1 - t, term) at the outermost node used
    total = None
    for index in range(len(_BLOCKS)):
        x, jac, t, omt, levels = _node_map(lower, upper, index)
        values = yield x
        block = np.asarray(values, dtype=float) * jac  # under the driver's errstate
        for h, a, b, t_lo, omt_hi in levels:
            terms = block[a:b]
            level = float(np.add.reduce(terms))  # terms.sum() without its wrapper
            if not math.isfinite(level):  # a term is not finite, or the sum overflowed
                bad = ~np.isfinite(terms)
                if bad.any():
                    inner = bad & (np.minimum(t[a:b], omt[a:b]) >= _T_EDGE)
                    if inner.any():
                        node = float(x[a:b][inner][0])
                        raise QuadratureError(
                            f"integrand not finite at x = {node!r} (level h = {h!r}) "
                            "inside the range",
                            estimate=None,
                            error_bound=None,
                        )
                    terms[bad] = 0.0
                    level = float(np.add.reduce(terms))
            if b > a:
                # each level reaches at least as far as the one before
                if outer_lo is None or t_lo <= outer_lo[0]:
                    outer_lo = (t_lo, float(terms[0]))
                if outer_hi is None or omt_hi <= outer_hi[0]:
                    outer_hi = (omt_hi, float(terms[-1]))
            level *= h
            if total is None:
                total = level
                continue
            prev, total = total, 0.5 * total + level
            outer = h * (abs(outer_lo[1]) + abs(outer_hi[1])) if outer_lo else 0.0
            err = abs(total - prev) + outer
            if err <= max(spec.abs_tol, spec.rel_tol * abs(total)):
                return total
    raise QuadratureError(
        f"quadrature did not converge (estimate {total!r}, error bound {err!r})",
        estimate=total,
        error_bound=err,
    )


def _step(rule, values):
    """Send ``values`` to a rule: (its next nodes, None), or (None, its outcome)."""
    try:
        return rule.send(values), None
    except StopIteration as stop:
        return None, stop.value
    except QuadratureError as exc:
        return None, exc


(_NO_NODES,) = _read_only(np.empty(0))  # the part of a range that has finished


def integrate_ranges(
    f: Callable[..., np.ndarray],
    ranges,
    spec: QuadratureSpec | None = None,
) -> list:
    """Tanh-sinh quadrature of ``f`` over several ranges in lock step.

    Each range (lower, upper) is integrated by the rule of
    :func:`integrate`, and one call of ``f`` per round serves every range
    still running.  The call is ``f(*parts)``, one part per range, holding
    the nodes of its next block, or empty once the range has finished.
    ``f`` returns its values on the concatenation of the parts (a scalar is
    broadcast), and is called inside ``np.errstate(all="ignore")``; so an
    elementwise ``f`` sees, besides its own range's nodes, those of the
    other ranges.  The parts are read-only (a range's mapped nodes are
    memoized and shared between calls), so ``f`` must not write into them.
    Ranges are checked as in :func:`integrate` before any call.

    Returns, per range, its estimate or the :class:`QuadratureError` that
    ended it, for the caller to raise or accept in its own order.
    """
    spec = spec or QuadratureSpec()
    for lower, upper in ranges:
        if not lower <= upper or math.isinf(lower):
            raise ValueError(f"integrate needs finite lower <= upper, got ({lower}, {upper})")
    rules = [_rule(lower, upper, spec) for lower, upper in ranges]
    steps = [_step(rule, None) for rule in rules]
    nodes, out = [x for x, _ in steps], [outcome for _, outcome in steps]
    while any(x is not None for x in nodes):
        parts = [_NO_NODES if x is None else x for x in nodes]
        stops = list(itertools.accumulate(part.size for part in parts))
        # the rules scale the values by their weights in this errstate too
        with np.errstate(all="ignore"):
            values = np.asarray(f(*parts), dtype=float)
            if values.shape != (stops[-1],):
                values = np.broadcast_to(values, (stops[-1],))
            for i, x in enumerate(nodes):
                if x is not None:
                    nodes[i], out[i] = _step(rules[i], values[stops[i] - x.size : stops[i]])
    return out


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    lower: float,
    upper: float,
    spec: QuadratureSpec | None = None,
) -> float:
    """Tanh-sinh quadrature of ``f`` over (lower, upper); upper may be inf.

    ``f`` takes and returns arrays (a scalar result is broadcast to the
    nodes); it is called inside ``np.errstate(all="ignore")``, never at
    either endpoint.  Its first call evaluates every node of the levels
    h = 1, 1/2, ..., 1/16 at once, and each later level is one more call,
    so ``f`` may see nodes of levels the rule never consumes: it must
    accept every point of the open range, and it must not write into
    them: the nodes are read-only, memoized per range and block, and
    shared between calls.  A finite range maps
    x = lower + (upper-lower)*t from the nearer end, so that no node
    rounds onto an endpoint (nodes that would are left out); a
    semi-infinite one folds x = lower + t/(1-t).  The rule halves h until
    |I_k - I_{k-1}| plus the magnitudes of the outermost terms is at most
    max(abs_tol, rel_tol*|I_k|), and otherwise raises
    :class:`QuadratureError` carrying the last estimate and that bound.
    Non-finite integrand values are taken as 0 where min(t, 1-t) <
    1e-12, and raise :class:`QuadratureError`, naming the node, anywhere
    else in a level the rule consumes.  This is the one-range case of
    :func:`integrate_ranges`, whose ``f`` may also see the nodes of other
    ranges.
    """
    (out,) = integrate_ranges(f, [(lower, upper)], spec)
    if isinstance(out, QuadratureError):
        raise out
    return out


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
