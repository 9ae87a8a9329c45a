import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from gtld import estimation
from gtld.datasets import load_values
from gtld.estimation import (
    METHODS,
    TransformedParams,
    ad_objective,
    cvm_objective,
    default_init,
    fit,
    mle_theta_bracket,
    neg_log_likelihood,
    ols_objective,
    rtad_objective,
    standard_errors_from_params,
    theta_score,
    wls_objective,
)
from gtld.model import ParamVector, make_model, model_from_params

from conftest import random_params


@pytest.fixture(scope="module")
def gte_sample():
    m = make_model("gte", beta=1.2, theta=1.5, lam=0.3)
    return np.sort(m.sample(400, seed=11))


class TestTransformedParams:
    def test_roundtrip(self, rng):
        for fam in ("gte", "gtw", "gtmw"):
            p = random_params(fam, rng)
            back = TransformedParams.from_params(p, fam).to_params()
            np.testing.assert_allclose(back.as_array(fam), p.as_array(fam), rtol=1e-12)

    def test_lambda_cap(self):
        p = ParamVector(beta=1.0, theta=1.0, lam=1.0, shape={})
        back = TransformedParams.from_params(p, "gte").to_params()
        assert abs(back.lam) < 1.0

    @settings(max_examples=40, deadline=None)
    @given(
        beta=hs.floats(1e-3, 1e3),
        theta=hs.floats(1e-3, 1e3),
        lam=hs.floats(-0.999, 0.999),
    )
    def test_roundtrip_property(self, beta, theta, lam):
        p = ParamVector(beta=beta, theta=theta, lam=lam, shape={})
        back = TransformedParams.from_params(p, "gte").to_params()
        assert back.beta == pytest.approx(beta, rel=1e-10)
        assert back.theta == pytest.approx(theta, rel=1e-10)
        assert back.lam == pytest.approx(lam, abs=1e-12)


class TestObjectives:
    def test_nll_is_minus_sum_logpdf(self, family, rng):
        p = random_params(family, rng)
        m = model_from_params(family, p)
        xs = np.sort(m.sample(100, seed=3))
        want = -float(np.sum(m.logpdf(xs)))
        assert neg_log_likelihood(p, xs, family) == pytest.approx(want, abs=1e-10)

    def test_distance_objectives_against_direct_formulas(self, gte_sample):
        p = ParamVector(beta=1.0, theta=1.3, lam=0.2, shape={})
        m = model_from_params("gte", p)
        xs = gte_sample
        n = xs.size
        i = np.arange(1, n + 1)
        F = m.cdf(xs)
        S = m.survival(xs)
        assert ols_objective(p, xs, "gte") == pytest.approx(
            np.sum((F - i / (n + 1)) ** 2), rel=1e-12
        )
        w = (n + 1) ** 2 * (n + 2) / (i * (n - i + 1))
        assert wls_objective(p, xs, "gte") == pytest.approx(
            np.sum(w * (F - i / (n + 1)) ** 2), rel=1e-12
        )
        assert cvm_objective(p, xs, "gte") == pytest.approx(
            1 / (12 * n) + np.sum((F - (2 * i - 1) / (2 * n)) ** 2), rel=1e-12
        )
        ad_want = -n - np.sum((2 * i - 1) * (np.log(F) + np.log(S[::-1]))) / n
        assert ad_objective(p, xs, "gte") == pytest.approx(ad_want, rel=1e-12)
        rtad_want = n / 2 - 2 * np.sum(F) - np.sum((2 * i - 1) * np.log(S[::-1])) / n
        assert rtad_objective(p, xs, "gte") == pytest.approx(rtad_want, rel=1e-12)

    def test_objectives_sorting_invariant(self, rng):
        m = make_model("gtw", beta=1.0, theta=1.0, lam=0.1, alpha=1.5)
        xs = m.sample(60, seed=5)
        p = ParamVector(beta=1.1, theta=0.9, lam=0.0, shape={"alpha": 1.4})
        for f in (ols_objective, wls_objective, cvm_objective, ad_objective):
            assert f(p, xs, "gtw") == pytest.approx(
                f(p, np.sort(xs)[::-1], "gtw"), rel=1e-12
            )


class TestDefaultInit:
    def test_baseline_values(self, family, rng):
        m = model_from_params(family, random_params(family, rng))
        xs = m.sample(80, seed=2)
        init = default_init(xs, family)
        assert init.theta == 1.0
        assert init.lam == 0.0
        assert init.beta > 0.0

    def test_gtp1_scale_below_min(self):
        m = make_model("gtp1", beta=3.0, theta=1.0, lam=0.0, alpha=2.0)
        xs = m.sample(80, seed=2)
        init = default_init(xs, "gtp1")
        assert init.shape["alpha"] < xs.min()


class TestFit:
    def test_ml_recovers_gte(self, gte_sample):
        res = fit(gte_sample, "gte", method="ml")
        assert res.converged
        assert res.estimates.beta == pytest.approx(1.2, abs=0.6)
        assert res.estimates.theta == pytest.approx(1.5, abs=0.9)
        assert res.method == "ml" and res.family == "gte"
        assert res.objective_value == pytest.approx(
            neg_log_likelihood(res.estimates, np.sort(gte_sample), "gte"), rel=1e-10
        )
        assert res.std_errors is not None and all(s > 0 for s in res.std_errors)

    @pytest.mark.parametrize("method", METHODS)
    def test_every_method_runs(self, method, gte_sample):
        res = fit(gte_sample[:120], "gte", method=method, n_starts=2)
        assert res.converged
        assert math.isfinite(res.objective_value)

    def test_unknown_method_rejected(self, gte_sample):
        with pytest.raises(ValueError):
            fit(gte_sample, "gte", method="mle")

    def test_deterministic(self, gte_sample):
        a = fit(gte_sample[:100], "gte", method="ols", seed=4, n_starts=3)
        b = fit(gte_sample[:100], "gte", method="ols", seed=4, n_starts=3)
        np.testing.assert_array_equal(
            a.estimates.as_array("gte"), b.estimates.as_array("gte")
        )

    def test_explicit_init_honored(self, gte_sample):
        init = ParamVector(beta=1.2, theta=1.5, lam=0.3, shape={})
        res = fit(gte_sample, "gte", method="ml", init=init, n_starts=1)
        assert res.converged

    def test_gtmw_cvm_on_gauge(self):
        # the optimizer drives log(gamma) below -745, where exp underflows to 0
        res = fit(load_values("gauge"), "gtmw", method="cvm", seed=0)
        assert isinstance(res, estimation.FitResult)
        assert res.estimates.shape["gamma"] > 0.0
        assert math.isfinite(res.objective_value)

    def test_scale_equivariance_gtw(self):
        m = make_model("gtw", beta=2.0, theta=1.0, lam=0.0, alpha=1.5)
        xs = np.sort(m.sample(300, seed=21))
        a = fit(xs, "gtw", method="ml", seed=0)
        c = 2.5
        b = fit(c * xs, "gtw", method="ml", seed=0)
        alpha_hat = b.estimates.shape["alpha"]
        assert alpha_hat == pytest.approx(a.estimates.shape["alpha"], abs=1e-3)
        assert b.estimates.theta == pytest.approx(a.estimates.theta, abs=1e-3)
        assert b.estimates.beta == pytest.approx(
            a.estimates.beta * c**-alpha_hat, rel=1e-2
        )


class TestStandardErrors:
    def test_exponential_fisher_information(self):
        # lam=0, theta=1 exponential: SE(beta) ~ beta/sqrt(n)
        m = make_model("gte", beta=2.0, theta=1.0, lam=0.0)
        xs = np.sort(m.sample(4000, seed=8))
        res = fit(xs, "gte", method="ml")
        assert res.std_errors is not None
        target = res.estimates.beta / math.sqrt(xs.size)
        # the free (theta, lambda) coordinates inflate SE(beta), but it must
        # stay the same order of magnitude as the one-parameter value
        assert target < res.std_errors[0] < 10 * target

    def test_non_pd_hessian_returns_none(self):
        # A 10-point sample cannot identify 3 parameters reliably.
        p = ParamVector(beta=1.0, theta=1.0, lam=0.999999999, shape={})
        xs = np.linspace(0.1, 1.0, 10)
        out = standard_errors_from_params(p, xs, "gte")
        assert out is None or all(math.isfinite(s) for s in out)

    def test_methods_other_than_ml_rejected(self, gte_sample):
        res = fit(gte_sample[:50], "gte", method="ols", n_starts=1)
        with pytest.raises(ValueError):
            estimation.standard_errors(res, gte_sample[:50], "gte")


class TestThetaBracket:
    def test_trivial_substitution(self):
        # sum log y = -n gives the bracket [1/2, 1]; pick x with y = e^{-1}
        x = -math.log(1.0 - math.exp(-1.0))
        xs = np.full(20, x)
        lo, hi = mle_theta_bracket(xs, "gte", {}, 1.0, -0.5)
        assert (lo, hi) == pytest.approx((0.5, 1.0), rel=1e-12)

    def test_lambda_domain_enforced(self):
        with pytest.raises(ValueError):
            mle_theta_bracket(np.array([1.0, 2.0]), "gte", {}, 1.0, 0.5)

    def test_sign_change_on_seeded_samples(self):
        rng = np.random.default_rng(12)
        for k in range(25):
            beta = float(rng.uniform(0.5, 2.0))
            theta = float(rng.uniform(0.5, 2.0))
            lam = float(rng.uniform(-0.9, -0.1))
            m = make_model("gte", beta=beta, theta=theta, lam=lam)
            xs = m.sample(200, seed=500 + k)
            lo, hi = mle_theta_bracket(xs, "gte", {}, beta, lam)
            s_lo = theta_score(xs, "gte", {}, beta, lam, lo)
            s_hi = theta_score(xs, "gte", {}, beta, lam, hi)
            assert s_lo * s_hi < 0

    def test_concavity_for_positive_lambda(self):
        m = make_model("gte", beta=1.0, theta=1.0, lam=0.6)
        xs = m.sample(150, seed=77)
        grid = np.linspace(0.05, 5.0, 60)
        ll = np.array(
            [
                -neg_log_likelihood(
                    ParamVector(beta=1.0, theta=float(t), lam=0.6, shape={}), xs, "gte"
                )
                for t in grid
            ]
        )
        d2 = ll[2:] - 2 * ll[1:-1] + ll[:-2]
        assert np.all(d2 <= 1e-8)
