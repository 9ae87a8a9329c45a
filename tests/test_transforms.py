import math

import numpy as np
import pytest

from gtld import _kernels
from gtld._kernels import FAMILY_IDS
from gtld.transforms import (
    SUBFAMILY_IDS,
    SUBFAMILY_SHAPES,
    closed_form_cdf,
    make_transform,
)

from conftest import random_params


def _shape_for(family, rng):
    return random_params(family, rng).shape


def test_every_family_constructs(family, rng):
    tr = make_transform(family, **_shape_for(family, rng))
    assert tr.name == family
    assert tr.family_id == FAMILY_IDS[family]


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        make_transform("nope")


def test_shape_validation():
    with pytest.raises(ValueError):
        make_transform("gtw")  # missing alpha
    with pytest.raises(ValueError):
        make_transform("gte", alpha=1.0)  # extraneous
    with pytest.raises(ValueError):
        make_transform("gtw", alpha=-1.0)  # nonpositive


def test_monotone_and_endpoints(family, rng):
    tr = make_transform(family, **_shape_for(family, rng))
    lo = tr.support_low
    xs = lo + np.geomspace(1e-6, 50.0, 200)
    g = np.array([tr.eval(x) for x in xs])
    assert np.all(np.diff(g) > 0)
    assert tr.eval(lo + 1e-12) < 1e-6
    assert tr.eval(lo + 200.0) > 3.0


def test_derivative_consistency(family, rng):
    tr = make_transform(family, **_shape_for(family, rng))
    for x in tr.support_low + np.array([0.25, 0.8, 1.7, 3.1]):
        h = 1e-6 * max(1.0, x)
        fd = (tr.eval(x + h) - tr.eval(x - h)) / (2 * h)
        assert tr.deriv(x) == pytest.approx(fd, rel=5e-5)


def test_inverse_roundtrip(family, rng):
    tr = make_transform(family, **_shape_for(family, rng))
    for y in (1e-4, 0.05, 0.7, 2.0, 9.0):
        x = tr.inverse(y)
        assert tr.eval(x) == pytest.approx(y, rel=1e-9, abs=1e-12)


def test_gtmw_inverse_is_accurate():
    tr = make_transform("gtmw", alpha=1.7, gamma=0.6)
    for y in np.geomspace(1e-300, 1e4, 80):
        x = tr.inverse(float(y))
        assert tr.eval(x) == pytest.approx(float(y), rel=1e-10, abs=0.0)


def test_gtp1_support():
    tr = make_transform("gtp1", alpha=2.0)
    assert tr.support_low == 2.0
    assert tr.eval(2.0 + 1e-12) == pytest.approx(0.0, abs=1e-11)


def test_closed_form_cdf_matches_kernel(family, rng):
    for _ in range(50):
        p = random_params(family, rng)
        tr = make_transform(family, **p.shape)
        xs = tr.support_low + np.geomspace(1e-3, 30.0, 100)
        got = _kernels._at_points(
            xs,
            _kernels._cdf_core,
            FAMILY_IDS[family],
            p.shape.get("alpha", 0.0),
            p.shape.get("gamma", 0.0),
            p.beta,
            p.theta,
            p.lam,
        )
        want = closed_form_cdf(family, p, xs)
        np.testing.assert_allclose(got, want, atol=1e-12, rtol=1e-12)


def test_edge_order_matches_local_power(family, rng):
    # G(lo + t) ~ c * t^k for small t, so log G is k*log t + const.
    tr = make_transform(family, **_shape_for(family, rng))
    t1, t2 = 1e-7, 2e-7
    g1 = tr.eval(tr.support_low + t1)
    g2 = tr.eval(tr.support_low + t2)
    k = (math.log(g2) - math.log(g1)) / math.log(2.0)
    assert k == pytest.approx(tr.edge_order, rel=1e-3, abs=1e-3)


def test_edge_coef_matches_local_coefficient(family, rng):
    # G(lo + t) ~ c * t^k for small t
    tr = make_transform(family, **_shape_for(family, rng))
    t = 1e-7
    c = tr.eval(tr.support_low + t) / t**tr.edge_order
    assert c == pytest.approx(tr.edge_coef, rel=1e-3)


def test_tail_growth_matches_g(family, rng):
    # G(x) ~ c*x^p as x -> inf, where p = 0 stands for c*log x and p = inf
    # for a G that outgrows every power of x; taken where G(x) = 200, and
    # where G(x) = 1e100 for the last
    tr = make_transform(family, **_shape_for(family, rng))
    p, c = _kernels._FAMILIES[tr.family_id].tail(tr.kernel_shapes[0])
    level = 1e100 if p == math.inf else 200.0
    x = float(tr.inverse(level))
    slope = math.log(tr.eval(2.0 * x) / level) / math.log(2.0)  # d log G / d log x
    if p == 0.0:
        assert level / math.log(x) == pytest.approx(c, rel=1e-2)
        assert slope < 1e-2
    elif p == math.inf:
        assert slope > 10.0
    else:
        assert level / x**p == pytest.approx(c, rel=1e-9)
        assert slope == pytest.approx(p, rel=1e-9)


def test_shape_names_frozen():
    assert SUBFAMILY_SHAPES["gte"] == ()
    assert SUBFAMILY_SHAPES["gtr"] == ()
    assert SUBFAMILY_SHAPES["gtmw"] == ("alpha", "gamma")
    for fam in ("gtw", "gtwe", "gtb12", "gtl", "gtp1"):
        assert SUBFAMILY_SHAPES[fam] == ("alpha",)
