"""The eight baseline transforms G, from the kernels' family table: G
through ``_g_parts``, G' through its log G', G^-1 through ``_g_inverse``,
each at a model's kernel arguments, and the family row's edge and tail
facts the model reads; and the model's cdf against each sub-family's
printed CDF (``closed_form_cdf``, the test oracle)."""

import math

import numpy as np
import pytest

from gtld import _kernels
from gtld._kernels import FAMILY_IDS
from gtld.model import SUBFAMILY_SHAPES, make_model, model_from_params

from conftest import g_inverse, g_of, g_prime, random_params


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


def _model_for(family, rng):
    return model_from_params(family, random_params(family, rng))


def test_every_family_constructs(family, rng):
    m = _model_for(family, rng)
    assert m.family == family
    assert m.kernel_args[0] == FAMILY_IDS[family]


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="unknown sub-family 'nope'"):
        make_model("nope", beta=1.0, theta=1.0, lam=0.0)


def test_shape_validation():
    with pytest.raises(ValueError, match="requires shape parameter"):
        make_model("gtw", beta=1.0, theta=1.0, lam=0.0)  # missing alpha
    with pytest.raises(ValueError, match="does not take shape parameter"):
        make_model("gte", beta=1.0, theta=1.0, lam=0.0, alpha=1.0)  # extraneous
    with pytest.raises(ValueError, match="must be positive"):
        make_model("gtw", beta=1.0, theta=1.0, lam=0.0, alpha=-1.0)  # nonpositive


def test_monotone_and_endpoints(family, rng):
    m = _model_for(family, rng)
    lo = m.support_low
    xs = lo + np.geomspace(1e-6, 50.0, 200)
    g = np.array([g_of(m, x) for x in xs])
    assert np.all(np.diff(g) > 0)
    assert g_of(m, lo + 1e-12) < 1e-6
    assert g_of(m, lo + 200.0) > 3.0


def test_derivative_consistency(family, rng):
    m = _model_for(family, rng)
    for x in m.support_low + np.array([0.25, 0.8, 1.7, 3.1]):
        h = 1e-6 * max(1.0, x)
        fd = (g_of(m, x + h) - g_of(m, x - h)) / (2 * h)
        assert g_prime(m, x) == pytest.approx(fd, rel=5e-5)


def test_inverse_roundtrip(family, rng):
    m = _model_for(family, rng)
    for y in (1e-4, 0.05, 0.7, 2.0, 9.0):
        x = g_inverse(m, y)
        assert g_of(m, x) == pytest.approx(y, rel=1e-9, abs=1e-12)


def test_gtmw_inverse_is_accurate():
    m = make_model("gtmw", beta=1.0, theta=1.0, lam=0.0, alpha=1.7, gamma=0.6)
    for y in np.geomspace(1e-300, 1e4, 80):
        x = g_inverse(m, float(y))
        assert g_of(m, x) == pytest.approx(float(y), rel=1e-10, abs=0.0)


def test_gtp1_support():
    m = make_model("gtp1", beta=1.0, theta=1.0, lam=0.0, alpha=2.0)
    assert m.support_low == 2.0
    assert g_of(m, 2.0 + 1e-12) == pytest.approx(0.0, abs=1e-11)


def test_closed_form_cdf_matches_kernel(family, rng):
    for _ in range(50):
        p = random_params(family, rng)
        xs = model_from_params(family, p).support_low + np.geomspace(1e-3, 30.0, 100)
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
    m = _model_for(family, rng)
    t1, t2 = 1e-7, 2e-7
    g1 = g_of(m, m.support_low + t1)
    g2 = g_of(m, m.support_low + t2)
    k = (math.log(g2) - math.log(g1)) / math.log(2.0)
    assert k == pytest.approx(m.edge_order, rel=1e-3, abs=1e-3)


def test_edge_coef_matches_local_coefficient(family, rng):
    # G(lo + t) ~ c * t^k for small t
    m = _model_for(family, rng)
    t = 1e-7
    c = g_of(m, m.support_low + t) / t**m.edge_order
    assert c == pytest.approx(m.edge_coef, rel=1e-3)


def test_tail_growth_matches_g(family, rng):
    # G(x) ~ c*x^p as x -> inf, where p = 0 stands for c*log x and p = inf
    # for a G that outgrows every power of x; taken where G(x) = 200, and
    # where G(x) = 1e100 for the last
    m = _model_for(family, rng)
    p, c = _kernels._FAMILIES[m.kernel_args[0]].tail(m.kernel_args[1])
    level = 1e100 if p == math.inf else 200.0
    x = float(g_inverse(m, level))
    slope = math.log(g_of(m, 2.0 * x) / level) / math.log(2.0)  # d log G / d log x
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
