import json
import math

import numpy as np
import pytest
import scipy.special as sp
import scipy.stats as st

from gtld import gof
from gtld.datasets import load_values
from gtld.estimation import FitError, cvm_objective, fit
from gtld.gof import (
    GofReport,
    ad_statistic,
    cvm_statistic,
    gof_report,
    ks_statistic,
    model_select,
)
from gtld.model import SupportError, make_model, model_from_params

from conftest import random_params


@pytest.fixture(scope="module")
def model_and_sample():
    m = make_model("gte", beta=1.5, theta=1.0, lam=0.0)
    return m, np.sort(m.sample(200, seed=13))


class TestKs:
    def test_matches_scipy(self, model_and_sample):
        m, xs = model_and_sample
        stat, p = ks_statistic(xs, m)
        ref = st.kstest(xs, lambda x: np.asarray(m.cdf(x)), mode="asymp")
        assert stat == pytest.approx(ref.statistic, abs=1e-12)
        assert p == pytest.approx(ref.pvalue, abs=1e-8)

    def test_bad_model_gives_small_p(self, model_and_sample):
        _, xs = model_and_sample
        wrong = make_model("gte", beta=6.0, theta=1.0, lam=0.0)
        _, p = ks_statistic(xs, wrong)
        assert p < 1e-6


class TestCvm:
    def test_matches_scipy(self, model_and_sample):
        m, xs = model_and_sample
        stat, p = cvm_statistic(xs, m)
        ref = st.cramervonmises(xs, lambda x: np.asarray(m.cdf(x)))
        assert stat == pytest.approx(ref.statistic, rel=1e-10)
        assert p == pytest.approx(ref.pvalue, abs=1e-3)

    def test_pvalue_monotone_in_statistic(self, model_and_sample):
        m, xs = model_and_sample
        ps = []
        for beta in (1.5, 2.2, 3.5):
            ps.append(cvm_statistic(xs, make_model("gte", beta=beta, theta=1.0, lam=0.0)))
        stats = [s for s, _ in ps]
        pvals = [p for _, p in ps]
        assert stats == sorted(stats)
        assert pvals == sorted(pvals, reverse=True)


class TestSpecialFunctions:
    """The NumPy-only p-value pieces against scipy.special as the oracle."""

    def test_kolmogorov_sf(self):
        ys = np.concatenate([np.linspace(0.01, 5.0, 5001), [0.82, np.nextafter(0.82, 1.0)]])
        got = np.array([gof._kolmogorov_sf(float(y)) for y in ys])
        np.testing.assert_allclose(got, sp.kolmogorov(ys), rtol=0, atol=1e-14)

    def test_kolmogorov_sf_edges(self):
        assert gof._kolmogorov_sf(0.0) == 1.0
        assert gof._kolmogorov_sf(1e-200) == 1.0
        assert gof._kolmogorov_sf(40.0) == 0.0
        assert math.isnan(gof._kolmogorov_sf(math.nan))

    def test_exp_k_quarter(self):
        a = np.geomspace(1e-3, 700.0, 2001)
        ref = np.exp(-a) * sp.kv(0.25, a)
        keep = ref >= 1e-290
        got = gof._exp_k_quarter(a)
        np.testing.assert_allclose(got[keep], ref[keep], rtol=1e-12, atol=0)

    @staticmethod
    def _scipy_cvm_limit_cdf(x):
        # the series with scipy's kv, as gof computed it before
        total = 0.0
        binom = 1.0
        for k in range(12):
            if k > 0:
                binom *= (-0.5 - k + 1) / k
            a = (4.0 * k + 1.0) ** 2 / (16.0 * x)
            if a <= 700.0:
                total += (
                    (-1.0) ** k * binom * math.sqrt(4.0 * k + 1.0)
                    * math.exp(-a) * float(sp.kv(0.25, a))
                )
        return min(max(total / (math.pi * math.sqrt(x)), 0.0), 1.0)

    def test_cvm_limit_cdf(self):
        for w2 in np.concatenate([np.geomspace(1e-3, 5.0, 600), np.linspace(0.01, 5.0, 600)]):
            w2 = float(w2)
            assert gof._cvm_limit_cdf(w2) == pytest.approx(
                self._scipy_cvm_limit_cdf(w2), rel=0, abs=1e-13
            )

    def test_cvm_limit_cdf_edges(self):
        assert gof._cvm_limit_cdf(0.0) == 0.0
        assert gof._cvm_limit_cdf(5e-324) == 0.0  # every term past the cutoff
        assert math.isnan(gof._cvm_limit_cdf(math.nan))
        assert math.isnan(gof._cvm_sf(math.nan))

    def test_cvm_sf_falls_all_the_way(self):
        # 1 - CDF stopped falling near W^2 = 6.3 and climbed to 3.8e-3 at 100
        w2 = np.linspace(0.01, 100.0, 20001)
        p = np.array([gof._cvm_sf(x) for x in w2.tolist()])
        assert np.all(np.diff(p) <= 0.0)
        assert np.all(p[w2 >= 7.0] < 1e-14)
        assert gof._cvm_sf(2000.0) == 0.0

    def test_cvm_sf_keeps_small_statistics(self):
        w2 = np.concatenate([np.geomspace(1e-3, 5.0, 600), np.linspace(0.01, 5.0, 600)])
        for x in w2.tolist():
            assert abs(gof._cvm_sf(x) - (1.0 - gof._cvm_limit_cdf(x))) <= 1e-15
            if x < 1.0:
                assert gof._cvm_sf(x) == 1.0 - gof._cvm_limit_cdf(x)

    @pytest.mark.parametrize(
        "w2, want",
        # Smirnov's series at 40 significant digits (mpmath)
        [
            (1.0, 0.002460452180133964),
            (5.0, 3.0539290331033876e-12),
            (20.0, 1.0972093165653867e-44),
            (100.0, 1.7349803174727528e-216),
        ],
    )
    def test_cvm_upper_tail(self, w2, want):
        assert gof._cvm_upper_tail(w2) == pytest.approx(want, rel=1e-13)


class TestAd:
    def test_statistic_formula(self, model_and_sample):
        m, xs = model_and_sample
        n = xs.size
        i = np.arange(1, n + 1)
        F = m.cdf(xs)
        S = 1 - F
        want = -n - np.sum((2 * i - 1) * (np.log(F) + np.log(S[::-1]))) / n
        stat, _ = ad_statistic(xs, m)
        assert stat == pytest.approx(want, rel=1e-10)

    def test_pvalue_sane(self, model_and_sample):
        m, xs = model_and_sample
        _, p_good = ad_statistic(xs, m)
        _, p_bad = ad_statistic(xs, make_model("gte", beta=5.0, theta=1.0, lam=0.0))
        assert 0.0 <= p_bad < 0.01 < p_good <= 1.0

    def test_known_critical_point(self):
        # On-null A2 values near 2.49 sit close to the 5% level of the
        # case-0 asymptotic distribution.
        m = make_model("gte", beta=1.0, theta=1.0, lam=0.0)
        # synthesize a sample whose AD stat is very small: the quantile grid
        xs = m.quantile((np.arange(1, 101) - 0.5) / 100)
        _, p = ad_statistic(np.sort(xs), m)
        assert p > 0.9


def test_w2_and_a2_have_the_bytes_of_their_formulas(family, rng):
    # W^2 and A^2 come from the fit kernels' cvm and ad objectives; written
    # out on the public cdf and survival they have the same bytes
    for _ in range(25):
        m = model_from_params(family, random_params(family, rng))
        xs = np.sort(m.sample(int(rng.integers(5, 300)), seed=int(rng.integers(2**31))))
        n = xs.size
        i = np.arange(1, n + 1)
        F = m.cdf(xs)
        w2 = 1.0 / (12.0 * n) + float(np.sum((F - (2.0 * i - 1.0) / (2.0 * n)) ** 2))
        Fc = np.maximum(F, 1e-300)
        Sc = np.maximum(m.survival(xs), 1e-300)
        a2 = -n - float(np.sum((2.0 * i - 1.0) * (np.log(Fc) + np.log(Sc[::-1])))) / n
        got_w2, got_a2 = cvm_statistic(xs, m)[0], ad_statistic(xs, m)[0]
        assert type(got_w2) is type(got_a2) is float
        assert np.float64(got_w2).tobytes() == np.float64(w2).tobytes(), m.params
        assert np.float64(got_a2).tobytes() == np.float64(a2).tobytes(), m.params


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("statistic", [ks_statistic, cvm_statistic, ad_statistic])
def test_non_finite_sample_refused(model_and_sample, statistic, bad):
    # a NaN would reach W^2 and A^2 as the kernels' non-finite sentinel
    m, xs = model_and_sample
    xs = xs.copy()
    xs[7] = bad
    with pytest.raises(ValueError, match="sample point at index 7 is not finite"):
        statistic(xs, m)
    with pytest.raises(ValueError, match="sample point at index 7 is not finite"):
        gof_report(xs, m, "gte")


@pytest.mark.parametrize("statistic", [ks_statistic, cvm_statistic, ad_statistic])
def test_sample_below_the_support_refused(statistic):
    m = make_model("gtp1", beta=1.0, theta=1.0, lam=0.0, alpha=2.0)
    with pytest.raises(SupportError):
        statistic(np.array([2.5, 1.5, 3.0]), m)


@pytest.mark.parametrize("statistic", [ks_statistic, cvm_statistic, ad_statistic])
def test_sample_at_the_support_low_end_refused_as_the_objectives_refuse_it(statistic):
    m = make_model("gtp1", beta=2.0, theta=1.5, lam=0.3, alpha=2.0)
    xs = [2.0, 2.5, 3.0, 4.0]
    message = r"index 0 is outside the support \(2.0, inf\)"
    with pytest.raises(SupportError, match=message):
        cvm_objective(m.params, xs, "gtp1")
    with pytest.raises(SupportError, match=message):
        statistic(np.array(xs), m)


class TestReport:
    def test_fields_and_json(self, model_and_sample):
        m, xs = model_and_sample
        rep = gof_report(xs, m, "gte")
        assert isinstance(rep, GofReport)
        assert rep.n == xs.size
        assert rep.aic == pytest.approx(rep.neg2_loglik + 2 * 3, rel=1e-12)
        blob = json.loads(rep.to_json())
        for key in ("neg2_loglik", "aic", "ks", "cvm", "ad", "n"):
            assert key in blob

    def test_aic_counts_the_models_parameters(self):
        # gte has 3 parameters, gtmw 5; a family that is not the model's is
        # refused, not counted
        xs = load_values("failure")
        m = model_from_params("gte", fit(xs, "gte").estimates)
        rep = gof_report(xs, m, "gte")
        assert rep.aic == pytest.approx(306.383, abs=5e-4)
        assert rep.aic == rep.neg2_loglik + 2.0 * 3
        for other in ("gtmw", "nope"):
            message = f"^family '{other}' is not the model's \\('gte'\\)$"
            with pytest.raises(ValueError, match=message):
                gof_report(xs, m, other)

    def test_statistics_invariant_under_monotone_map(self, model_and_sample):
        # KS/CvM/AD depend only on the fitted F(x_(i)) values; feeding the
        # model through an increasing reparametrization of x changes nothing.
        m, xs = model_and_sample
        stat_x, _ = ks_statistic(xs, m)
        # same values via the probability transform against the uniform
        u = np.asarray(m.cdf(xs))
        uniform = make_model("gte", beta=1.0, theta=1.0, lam=0.0)
        z = uniform.quantile(np.clip(u, 1e-12, 1 - 1e-12))
        stat_z, _ = ks_statistic(np.sort(z), uniform)
        assert stat_z == pytest.approx(stat_x, abs=1e-9)


class TestModelSelect:
    def test_ranking_and_isolation(self, model_and_sample):
        _, xs = model_and_sample
        entries = model_select(xs, ["gte", "gtw"])
        assert {e.family for e in entries} == {"gte", "gtw"}
        scored = [e for e in entries if e.report is not None]
        aics = [e.report.aic for e in scored]
        assert aics == sorted(aics)

    def test_failed_candidate_is_ranked_last(self, model_and_sample, monkeypatch):
        _, xs = model_and_sample
        real_fit = gof.fit

        def gtw_fails(sample, family, **kwargs):
            if family == "gtw":
                raise FitError("all 5 starts failed")
            return real_fit(sample, family, **kwargs)

        monkeypatch.setattr(gof, "fit", gtw_fails)
        entries = model_select(xs, ["gtw", "gte"])
        assert [e.family for e in entries] == ["gte", "gtw"]
        assert entries[1].report is None
        assert entries[1].error == "all 5 starts failed"

    def test_bug_in_fit_propagates(self, model_and_sample, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("unexpected keyword")

        monkeypatch.setattr(gof, "fit", broken)
        with pytest.raises(TypeError, match="unexpected keyword"):
            model_select(model_and_sample[1], ["gte"])

    def test_explicit_method_pairs(self, model_and_sample):
        _, xs = model_and_sample
        entries = model_select(xs[:80], [("gte", "ols")])
        assert entries[0].method == "ols"
        assert entries[0].report is not None
