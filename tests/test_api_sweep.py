"""A seeded sweep of the public API over a wide parameter box.

Each family gets ``SETS`` parameter sets drawn from a fixed seed: beta in
[1e-3, 1e3], theta in [0.01, 50] and every shape parameter in [1e-3, 50],
log-uniformly, and lambda uniform in [-1, 1].  Every call of the sweep,
with every RuntimeWarning an error, must return finite values in its range
or raise a typed error: ValueError, ArithmeticError or NumericsError.  Two
documented exceptions to "finite": ``quantile`` may return inf (Q past the
float range), and ``logpdf`` -inf (log f below it).

A fault the sweep finds that is not mended yet is pinned by a strict xfail
of its own and left out of the per-family test, whose check is otherwise
unchanged.
"""

import warnings

import numpy as np
import pytest

from gtld.gof import ad_statistic, cvm_statistic, ks_statistic
from gtld.model import SUBFAMILY_IDS, SUBFAMILY_SHAPES, ParamVector, model_from_params
from gtld.numerics import NumericsError

from conftest import g_of

SETS = 100
TYPED = (ValueError, ArithmeticError, NumericsError)
LEVELS = np.array([1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-6])
OFFSETS = np.array([1e-8, 1e-3, 0.5, 1.0, 3.0, 10.0, 1e3, 1e8])  # x - low


def _log_uniform(rng, lo, hi):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _params(family, rng):
    shape = {name: _log_uniform(rng, 1e-3, 50.0) for name in SUBFAMILY_SHAPES[family]}
    return ParamVector(
        beta=_log_uniform(rng, 1e-3, 1e3),
        theta=_log_uniform(rng, 0.01, 50.0),
        lam=float(rng.uniform(-1.0, 1.0)),
        shape=shape,
    )


def _in_unit(v):
    return bool(((v >= 0.0) & (v <= 1.0)).all())


def _finite_nonnegative(v):
    return bool((np.isfinite(v) & (v >= 0.0)).all())


def _statistic_in_range(v):
    return bool(np.isfinite(v).all() and v[0] >= 0.0 and 0.0 <= v[1] <= 1.0)


def _sweep(family):
    """(model, call, value or exception) for each call whose value is out of
    its range or which raised an untyped error."""
    rng = np.random.default_rng([20240901, SUBFAMILY_IDS.index(family)])
    bad = []
    for i in range(SETS):
        m = model_from_params(family, _params(family, rng))
        low = m.support_low
        xs = low + OFFSETS

        def check(name, call, valid):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    value = call()
            except TYPED:
                return None
            except Exception as exc:  # a leaked warning or an untyped error
                bad.append((m, name, exc))
                return None
            if not valid(np.asarray(value, dtype=float)):
                bad.append((m, name, value))
            return value

        check("cdf", lambda: m.cdf(xs), _in_unit)
        check("survival", lambda: m.survival(xs), _in_unit)
        check("pdf", lambda: m.pdf(xs), _finite_nonnegative)
        check("logpdf", lambda: m.logpdf(xs), lambda v: bool((v < np.inf).all()))
        check("hazard", lambda: m.hazard(xs), _finite_nonnegative)
        check(
            "quantile",
            lambda: m.quantile(LEVELS),
            lambda v: bool((v >= low).all() and (v[1:] >= v[:-1]).all()),
        )
        check(
            "quantile_measures",
            m.quantile_measures,
            lambda v: bool(np.isfinite(v).all() and v[0] >= low and v[1] >= 0.0
                           and -1.0 <= v[2] <= 1.0),
        )
        xs_drawn = check(
            "sample",
            lambda: m.sample(20, seed=i),
            lambda v: bool((np.isfinite(v) & (v >= low)).all()),
        )
        if xs_drawn is not None:
            for statistic in (ks_statistic, cvm_statistic, ad_statistic):
                check(statistic.__name__, lambda s=statistic: s(xs_drawn, m), _statistic_in_range)
    return bad


@pytest.fixture(scope="module")
def sweep():
    return {family: _sweep(family) for family in SUBFAMILY_IDS}


def _density_inf_where_g_underflows(m, name, value):
    """pdf, logpdf or hazard +inf only at points above the low end where G
    underflows to 0: the kernel takes log u = -inf there, and with theta < 1
    the (theta - 1) log u term gives +inf, though f tends to 0 when
    edge order * theta > 1."""
    if name not in ("pdf", "logpdf", "hazard") or isinstance(value, Exception):
        return False
    at = np.asarray(value) == np.inf
    g = np.asarray(g_of(m, m.support_low + OFFSETS))
    return bool(at.any() and (g[at] == 0.0).all())


def _bowley_past_one(m, name, value):
    """quantile_measures finite but |Bowley| > 1; the sweep meets the case
    that tests it where Q(2/8) = Q(4/8) = the low end and Q(6/8) lies barely
    above it."""
    return (
        name == "quantile_measures"
        and not isinstance(value, Exception)
        and np.isfinite(value).all()
        and abs(value.bowley_skewness) > 1.0
    )


KNOWN = (_density_inf_where_g_underflows,)


@pytest.mark.parametrize("family", sorted(SUBFAMILY_IDS))
def test_every_call_returns_a_value_in_range_or_raises_a_typed_error(sweep, family):
    unknown = [bad for bad in sweep[family] if not any(k(*bad) for k in KNOWN)]
    assert unknown == []


@pytest.mark.xfail(
    strict=True,
    reason="G underflows to 0 above the low end (x^alpha < 5e-324) and the "
    "density comes out +inf; see CHANGES.md",
)
def test_density_finite_where_g_underflows(sweep):
    found = [bad for bads in sweep.values() for bad in bads]
    assert [bad for bad in found if _density_inf_where_g_underflows(*bad)] == []


def test_bowley_skewness_within_one(sweep):
    found = [bad for bads in sweep.values() for bad in bads]
    assert [bad for bad in found if _bowley_past_one(*bad)] == []
