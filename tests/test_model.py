import math

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import given, settings
from hypothesis import strategies as hs

from gtld import numerics
from gtld.model import (
    GtldModel,
    ParamVector,
    SupportError,
    make_model,
    model_from_params,
    param_names,
)

from gtld.properties import raw_moment

from conftest import random_params


class TestParamVector:
    def test_validation(self):
        with pytest.raises(ValueError):
            ParamVector(beta=-1.0, theta=1.0, lam=0.0, shape={})
        with pytest.raises(ValueError):
            ParamVector(beta=1.0, theta=0.0, lam=0.0, shape={})
        with pytest.raises(ValueError):
            ParamVector(beta=1.0, theta=1.0, lam=1.5, shape={})
        with pytest.raises(ValueError):
            ParamVector(beta=1.0, theta=1.0, lam=0.0, shape={"alpha": -2.0})

    def test_as_array_ordering(self):
        p = ParamVector(beta=2.0, theta=3.0, lam=0.5, shape={"alpha": 1.5})
        np.testing.assert_allclose(p.as_array("gtw"), [1.5, 2.0, 3.0, 0.5])
        assert param_names("gtw") == ("alpha", "beta", "theta", "lambda")
        assert param_names("gte") == ("beta", "theta", "lambda")
        assert param_names("gtmw") == ("alpha", "gamma", "beta", "theta", "lambda")

    def test_boundary_lambda_allowed(self):
        ParamVector(beta=1.0, theta=1.0, lam=1.0, shape={})
        ParamVector(beta=1.0, theta=1.0, lam=-1.0, shape={})


class TestClosedFormsGte:
    """The exponential inner transform admits hand-derived values."""

    def test_cdf_reduces_to_exponential(self):
        m = make_model("gte", beta=2.0, theta=1.0, lam=0.0)
        for x in (0.1, 0.5, 2.0):
            assert m.cdf(x) == pytest.approx(-math.expm1(-2.0 * x), abs=1e-15)

    def test_cdf_general(self):
        beta, theta, lam = 1.3, 2.2, -0.4
        m = make_model("gte", beta=beta, theta=theta, lam=lam)
        for x in (0.2, 1.0, 3.0):
            u = -math.expm1(-beta * x)
            want = (1 + lam) * u**theta - lam * u ** (2 * theta)
            assert m.cdf(x) == pytest.approx(want, rel=1e-14)

    def test_median_exponential(self):
        m = make_model("gte", beta=0.7, theta=1.0, lam=0.0)
        assert m.quantile(0.5) == pytest.approx(math.log(2) / 0.7, rel=1e-12)

    def test_survival_complements_cdf(self):
        m = make_model("gte", beta=1.1, theta=0.6, lam=0.8)
        for x in (0.05, 0.9, 4.0):
            assert m.cdf(x) + m.survival(x) == pytest.approx(1.0, abs=1e-12)

    def test_hazard_is_pdf_over_survival(self):
        m = make_model("gte", beta=1.0, theta=2.0, lam=0.3)
        x = np.array([0.3, 1.0, 2.5])
        np.testing.assert_allclose(m.hazard(x), m.pdf(x) / m.survival(x), rtol=1e-14)

    def test_hazard_overflow_error_deep_in_tail(self):
        m = make_model("gte", beta=5.0, theta=1.0, lam=0.0)
        with pytest.raises(OverflowError):
            m.hazard(300.0)


class TestAllFamilies:
    def test_quantile_roundtrip(self, family, rng):
        ps = np.linspace(0.001, 0.999, 25)
        for _ in range(10):
            m = model_from_params(family, random_params(family, rng))
            xs = m.quantile(ps)
            np.testing.assert_allclose(m.cdf(xs), ps, atol=1e-9)

    def test_pdf_matches_cdf_derivative(self, family, rng):
        for _ in range(5):
            m = model_from_params(family, random_params(family, rng))
            xs = m.quantile(np.array([0.1, 0.35, 0.6, 0.9]))
            h = 1e-6 * np.maximum(np.abs(xs), 1.0)
            fd = (m.cdf(xs + h) - m.cdf(xs - h)) / (2 * h)
            np.testing.assert_allclose(m.pdf(xs), fd, rtol=1e-5, atol=1e-8)

    def test_logpdf_is_log_of_pdf(self, family, rng):
        m = model_from_params(family, random_params(family, rng))
        xs = m.quantile(np.linspace(0.05, 0.95, 9))
        np.testing.assert_allclose(np.exp(m.logpdf(xs)), m.pdf(xs), rtol=1e-12)

    def test_cdf_monotone(self, family, rng):
        m = model_from_params(family, random_params(family, rng))
        xs = m.quantile(np.linspace(0.01, 0.99, 80))
        assert np.all(np.diff(m.cdf(xs)) > 0)

    def test_sampling_agrees_with_cdf(self, family):
        rng = np.random.default_rng(99)
        m = model_from_params(family, random_params(family, rng))
        draws = m.sample(4000, seed=42)
        res = st.kstest(draws, lambda x: np.asarray(m.cdf(x)))
        assert res.pvalue > 0.01

    def test_sample_deterministic(self, family, rng):
        m = model_from_params(family, random_params(family, rng))
        np.testing.assert_array_equal(m.sample(50, seed=7), m.sample(50, seed=7))
        assert not np.array_equal(m.sample(50, seed=7), m.sample(50, seed=8))


class TestSupport:
    def test_gtp1_below_support_raises(self):
        m = make_model("gtp1", beta=2.0, theta=1.0, lam=0.0, alpha=1.5)
        with pytest.raises(SupportError):
            m.cdf(1.0)
        assert m.cdf(1.5) == pytest.approx(0.0, abs=1e-12)

    def test_negative_argument_raises(self):
        m = make_model("gte", beta=1.0, theta=1.0, lam=0.0)
        with pytest.raises(SupportError):
            m.pdf(-0.1)

    def test_quantile_domain(self):
        m = make_model("gte", beta=1.0, theta=1.0, lam=0.0)
        with pytest.raises(ValueError):
            m.quantile(0.0)
        with pytest.raises(ValueError):
            m.quantile(1.0)

    def test_sample_size_validated(self):
        m = make_model("gte", beta=1.0, theta=1.0, lam=0.0)
        with pytest.raises(ValueError):
            m.sample(0, seed=1)


class TestSupportEdge:
    """One-sided limits of the density where G(x) = 0, i.e. u = 0."""

    @pytest.mark.parametrize(
        "family, shape, theta, want",
        [
            ("gte", {}, 0.5, math.inf),
            ("gte", {}, 1.0, 1.5 * 1.2),
            ("gte", {}, 2.0, 0.0),
            ("gtr", {}, 1.0, 0.0),
            ("gtw", {"alpha": 1.0}, 0.5, math.inf),
            ("gtw", {"alpha": 1.0}, 1.0, 1.5 * 1.2),
            ("gtw", {"alpha": 1.0}, 2.0, 0.0),
            ("gtw", {"alpha": 2.0}, 1.0, 0.0),
            ("gtw", {"alpha": 0.5}, 1.0, math.inf),
            ("gtmw", {"alpha": 1.0, "gamma": 0.7}, 1.0, 1.5 * 1.2),
            ("gtwe", {"alpha": 1.0}, 1.0, 1.5 * 1.2),
            ("gtl", {"alpha": 4.0}, 1.0, 1.5 * 1.2 / 4.0),
            ("gtp1", {"alpha": 2.0}, 0.5, math.inf),
            ("gtp1", {"alpha": 2.0}, 1.0, 1.5 * 1.2 / 2.0),
            ("gtp1", {"alpha": 2.0}, 2.0, 0.0),
        ],
    )
    def test_pdf_and_logpdf_at_support_low(self, family, shape, theta, want):
        m = make_model(family, beta=1.5, theta=theta, lam=0.2, **shape)
        low = m.support_low
        assert m.pdf(low) == pytest.approx(want, rel=1e-14)
        assert m.logpdf(low) == pytest.approx(math.log(want) if want else -math.inf, rel=1e-14)
        # the edge inside an array is the same value, and does not leak
        xs = np.array([low, low + 0.5, low + 1.0])
        got = m.pdf(xs)
        assert got[0] == pytest.approx(want, rel=1e-14)
        np.testing.assert_allclose(got[1:], [m.pdf(low + 0.5), m.pdf(low + 1.0)], rtol=1e-15)
        assert np.all(np.isfinite(got[1:]))

    def test_cdf_and_survival_at_support_low(self, family, rng):
        m = model_from_params(family, random_params(family, rng))
        assert m.cdf(m.support_low) == 0.0
        assert m.survival(m.support_low) == 1.0


class TestGtweOverflowWindow:
    """G = exp(x^alpha) - 1 overflows where x^alpha > 709.78; log f must not."""

    ALPHA = 1.51371

    def model(self):
        return make_model("gtwe", beta=1.2511, theta=0.72527, lam=0.060553, alpha=self.ALPHA)

    def test_logpdf_never_plus_inf(self):
        m = self.model()
        xs = np.linspace(700.0, 709.78, 400) ** (1.0 / self.ALPHA)
        lp = m.logpdf(xs)
        assert not np.any(np.isposinf(lp))
        assert np.all(m.pdf(xs) == 0.0)

    def test_mean_is_integral_of_survival(self):
        m = self.model()
        mid = m.quantile(0.75)
        want = numerics.integrate(m.survival, 0.0, mid) + numerics.integrate(
            m.survival, mid, math.inf
        )
        assert raw_moment(m, 1) == pytest.approx(want, abs=1e-8)


class TestQuantileMeasures:
    def test_median_consistent(self):
        m = make_model("gtw", beta=1.4, theta=0.8, lam=0.25, alpha=2.0)
        qm = m.quantile_measures()
        assert qm.median == pytest.approx(m.quantile(0.5), rel=1e-12)

    def test_exponential_bowley(self):
        # Bowley skewness of any exponential is (log8 - 2 log2 + ... ) fixed:
        m = make_model("gte", beta=3.0, theta=1.0, lam=0.0)
        q1, q2, q3 = (m.quantile(p) for p in (0.25, 0.5, 0.75))
        want = (q3 + q1 - 2 * q2) / (q3 - q1)
        assert m.quantile_measures().bowley_skewness == pytest.approx(want, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    beta=hs.floats(0.2, 4.0),
    theta=hs.floats(0.2, 4.0),
    lam=hs.floats(-0.99, 0.99),
    p=hs.floats(0.001, 0.999),
)
def test_quantile_roundtrip_property(beta, theta, lam, p):
    m = make_model("gtr", beta=beta, theta=theta, lam=lam)
    assert m.cdf(m.quantile(p)) == pytest.approx(p, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    beta=hs.floats(0.2, 4.0),
    theta=hs.floats(0.2, 4.0),
    lam=hs.floats(-0.99, 0.99),
    x=hs.floats(0.01, 20.0),
)
def test_cdf_bounds_property(beta, theta, lam, x):
    m = make_model("gte", beta=beta, theta=theta, lam=lam)
    c = m.cdf(x)
    assert 0.0 <= c <= 1.0
    assert m.pdf(x) >= 0.0
