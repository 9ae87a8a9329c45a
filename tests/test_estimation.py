import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from gtld import _kernels, estimation
from gtld._kernels import FAMILY_IDS, METHOD_IDS
from gtld.datasets import get_dataset, load_values
from gtld.estimation import (
    METHODS,
    FitError,
    TransformedParams,
    ad_objective,
    cvm_objective,
    default_init,
    fit,
    mle_theta_bracket,
    neg_log_likelihood,
    ols_objective,
    rtad_objective,
    standard_errors,
    standard_errors_from_params,
    theta_score,
    wls_objective,
)
from gtld.gof import gof_report
from gtld.model import (
    SUBFAMILY_IDS,
    SUBFAMILY_SHAPES,
    ParamVector,
    SupportError,
    kernel_shapes,
    make_model,
    model_from_params,
)

from conftest import random_params

# each method's public objective function
OBJECTIVE_FNS = {
    "ml": neg_log_likelihood, "ols": ols_objective, "wls": wls_objective,
    "cvm": cvm_objective, "ad": ad_objective, "rtad": rtad_objective,
}


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

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize(
        "family, xs, message",
        [
            ("gte", [0.5, math.inf, 2.0], "index 1 is not finite"),
            ("gte", [0.5, math.nan, 2.0], "index 1 is not finite"),
            ("gte", [0.5, 2.0, -1.0], "index 2 is outside the support"),
            ("gte", [0.0, 0.5, 2.0], "index 0 is outside the support"),
            ("gtp1", [2.5, 1.5, 3.0], r"index 1 is outside the support \(2.0, inf\)"),
        ],
    )
    def test_every_objective_refuses_what_ml_refuses(self, method, family, xs, message):
        # ad_objective on [0.5, inf, 2.0] once returned a finite 230.548
        shape = {"alpha": 2.0} if family == "gtp1" else {}
        p = ParamVector(beta=1.0, theta=1.0, lam=0.0, shape=shape)
        with pytest.raises(ValueError, match=message):
            OBJECTIVE_FNS[method](p, np.array(xs), family)

    def test_objective_functions_have_the_kernels_bytes(self, family, rng):
        p = random_params(family, rng)
        m = model_from_params(family, p)
        xs = m.sample(40, seed=4)
        for method, mid in METHOD_IDS.items():
            plan = _kernels.Plan(np.sort(xs), FAMILY_IDS[family], mid)
            want = _kernels.objective(mid, *m.kernel_args, plan)[0]
            assert OBJECTIVE_FNS[method](p, xs, family) == want

    def test_objectives_sorting_invariant(self, rng):
        m = make_model("gtw", beta=1.0, theta=1.0, lam=0.1, alpha=1.5)
        xs = m.sample(60, seed=5)
        p = ParamVector(beta=1.1, theta=0.9, lam=0.0, shape={"alpha": 1.4})
        for f in (ols_objective, wls_objective, cvm_objective, ad_objective):
            assert f(p, xs, "gtw") == pytest.approx(
                f(p, np.sort(xs)[::-1], "gtw"), rel=1e-12
            )


def _kernel_vec(family, vec):
    k = len(SUBFAMILY_SHAPES[family])
    return (FAMILY_IDS[family], *kernel_shapes(vec[:k]), *vec[k:])


def _central_differences(method, family, vec, xs):
    """Central differences of the objective, Richardson-extrapolated from steps
    h and h/2: a sample point close to gtp1's alpha bends the objective
    within a step of 1e-6."""
    mid = METHOD_IDS[method]
    plan = _kernels.Plan(xs, FAMILY_IDS[family], mid)

    def diff(j, h):
        up, down = vec.copy(), vec.copy()
        up[j] += h
        down[j] -= h
        return (
            _kernels.objective(mid, *_kernel_vec(family, up), plan)[0]
            - _kernels.objective(mid, *_kernel_vec(family, down), plan)[0]
        ) / (2.0 * h)

    out = np.empty_like(vec)
    for j in range(vec.size):
        h = 1e-6 * max(1.0, abs(vec[j]))
        out[j] = (4.0 * diff(j, h / 2.0) - diff(j, h)) / 3.0
    return out


def _assert_grad_matches(method, family, vec, xs):
    mid = METHOD_IDS[method]
    plan = _kernels.Plan(xs, FAMILY_IDS[family], mid)
    _, _, grad = _kernels.objective_grad(mid, *_kernel_vec(family, vec), plan)
    want = _central_differences(method, family, vec, xs)
    scale = 1.0 + float(np.max(np.abs(want)))
    np.testing.assert_allclose(grad, want, rtol=1e-4, atol=1e-6 * scale)


class TestObjectiveGrad:
    """The exact gradients of the six objectives."""

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("family", sorted(SUBFAMILY_IDS))
    @settings(max_examples=8, deadline=None)
    @given(
        shape=hs.tuples(hs.floats(0.4, 3.0), hs.floats(0.05, 1.5)),
        beta=hs.floats(0.3, 3.0),
        theta=hs.floats(0.3, 3.0),
        lam=hs.floats(-0.95, 0.95),
        seed=hs.integers(0, 2**32 - 1),
    )
    def test_matches_central_differences(
        self, family, method, shape, beta, theta, lam, seed
    ):
        names = SUBFAMILY_SHAPES[family]
        p = ParamVector(beta=beta, theta=theta, lam=lam, shape=dict(zip(names, shape)))
        xs = np.sort(model_from_params(family, p).sample(40, seed=seed))
        vec = p.as_array(family)
        if family == "gtp1":
            vec[0] *= 0.9  # keep the steps' alpha clear of min(xs)
        _assert_grad_matches(method, family, vec, xs)

    @pytest.mark.parametrize("method", METHODS)
    def test_two_shapes(self, method):
        p = ParamVector(beta=0.8, theta=1.7, lam=-0.4, shape={"alpha": 1.3, "gamma": 0.6})
        xs = np.sort(model_from_params("gtmw", p).sample(60, seed=4))
        _assert_grad_matches(method, "gtmw", p.as_array("gtmw"), xs)

    @pytest.mark.parametrize("method", ["ad", "rtad"])
    def test_clamped_terms(self, method):
        # F(1e-8) = 1e-8^40 and S(800) = e^-800 lie below the 1e-300 clamp
        xs = np.array([1e-8, 0.3, 0.7, 1.1, 2.0, 800.0])
        vec = np.array([1.0, 40.0, 0.2])
        mid = METHOD_IDS[method]
        plan = _kernels.Plan(xs, FAMILY_IDS["gte"], mid)
        clamps = _kernels.objective(mid, *_kernel_vec("gte", vec), plan)[1]
        assert clamps == 2
        _assert_grad_matches(method, "gte", vec, xs)

    def test_value_and_clamps_bit_for_bit(self, family, rng):
        p = random_params(family, rng)
        xs = np.sort(model_from_params(family, p).sample(80, seed=9))
        xs[-1] *= 1e3  # far into the tail: at the clamp for the light tails
        args = _kernel_vec(family, p.as_array(family))
        for mid in METHOD_IDS.values():
            plan = _kernels.Plan(xs, args[0], mid)
            value, clamps, grad = _kernels.objective_grad(mid, *args, plan)
            assert (value, clamps) == _kernels.objective(mid, *args, plan)
            assert grad.shape == (len(SUBFAMILY_SHAPES[family]) + 3,)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize(
        "alpha, beta",
        [
            (130.0, 1e8),  # G = exp(x^alpha) - 1 overflows, and e^-beta*G underflows
            (600.0, 0.5),  # x^alpha underflows to 0 below x = 1, so u = 0 there
            (1e3, 1.0),  # x^alpha itself overflows
        ],
    )
    def test_finite_where_value_finite_gtwe(self, method, alpha, beta):
        xs = np.array([0.2, 0.5, 0.9, 1.0, 1.2, 2.0, 3.0])
        mid, fam = METHOD_IDS[method], FAMILY_IDS["gtwe"]
        value, _, grad = _kernels.objective_grad(
            mid, fam, alpha, 0.0, beta, 0.5, 0.2, _kernels.Plan(xs, fam, mid)
        )
        if np.isfinite(value) and value != _kernels._BIG:
            assert np.all(np.isfinite(grad))
        else:
            assert np.all(grad == 0.0)


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

    def test_unknown_family_refused_as_fit_refuses_it(self):
        xs = load_values("failure")
        for entry in (default_init, fit):
            with pytest.raises(ValueError, match=r"^unknown sub-family 'nope'$"):
                entry(xs, "nope")


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

    @pytest.mark.parametrize("n_starts", [0, -3])
    def test_no_start_is_refused(self, gte_sample, n_starts):
        # no longer silently one start reported as n_starts=1
        with pytest.raises(ValueError, match=f"n_starts must be at least 1, got {n_starts}"):
            fit(gte_sample, "gte", method="ml", n_starts=n_starts)

    def test_deterministic(self, gte_sample):
        a = fit(gte_sample[:100], "gte", method="ols", seed=4, n_starts=3)
        b = fit(gte_sample[:100], "gte", method="ols", seed=4, n_starts=3)
        np.testing.assert_array_equal(
            a.estimates.as_array("gte"), b.estimates.as_array("gte")
        )

    @pytest.mark.parametrize(
        "shape, message",
        [
            ({}, r"gtw requires shape parameter\(s\) \['alpha'\]"),
            ({"alpha": 1.0, "gamma": 0.5}, r"gtw does not take shape parameter\(s\) \['gamma'\]"),
        ],
        ids=["missing", "extra"],
    )
    def test_init_whose_shapes_are_not_the_familys_refused(self, gte_sample, shape, message):
        # before, a missing shape raised a bare KeyError from as_array and an
        # extra one was dropped without a word
        init = ParamVector(beta=1.0, theta=1.0, lam=0.0, shape=shape)
        with pytest.raises(ValueError, match=message):
            fit(gte_sample, "gtw", init=init, n_starts=1)

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


class TestFitDiagnostics:
    TRUTH = ParamVector(beta=3.0, theta=0.5, lam=0.2, shape={"alpha": 2.5})

    def test_clean_truth_start_fit(self, monkeypatch):
        xs = model_from_params("gtwe", self.TRUTH).sample(200, seed=31)
        calls = []
        kernel = _kernels._objective  # the core that fit calls

        def counted(*args):
            calls.append(args[0])
            return kernel(*args)

        monkeypatch.setattr(_kernels, "_objective", counted)
        res = fit(xs, "gtwe", method="wls", init=self.TRUTH, n_starts=1)
        assert res.converged and not res.rescued
        # one objective and one gradient evaluation per BFGS call
        assert res.evaluations == 2 * len(calls) > 0
        assert res.gradient_fallbacks == 0

    def test_sentinel_is_not_convergence(self):
        # gtr's G = x^2/2 overflows at x = 1e200 whatever beta is, so log f
        # is -inf there for any parameters: every evaluation returns the
        # 1e10 sentinel, whose gradient is zero, so BFGS reports success at once
        res = fit(np.array([0.5, 1.0, 2.0, 3.0, 1e200]), "gtr", method="ml", n_starts=2)
        assert res.objective_value == _kernels._BIG
        assert not res.converged

    @pytest.mark.parametrize("method", ["ml", "ols"])
    @pytest.mark.parametrize("family", ["gte", "gtp1"])
    @pytest.mark.parametrize("bad", [-1.0, 0.0])
    def test_sample_outside_the_support_refused(self, method, family, bad):
        # every family's support lies in (0, inf); the objectives would take
        # such a point as their 1e10 sentinel
        xs = np.array([0.5, 1.0, bad, 2.0, 3.0])
        with pytest.raises(ValueError, match="sample point at index 2 is outside the support"):
            fit(xs, family, method=method, n_starts=1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_refused(self, bad):
        # a non-finite point would reach the objectives as their 1e10 sentinel
        xs = np.array([0.5, 1.0, 2.0, bad, 3.0])
        msg = "sample point at index 3 is not finite"
        with pytest.raises(ValueError, match=msg):
            fit(xs, "gte", method="ml", n_starts=1)
        with pytest.raises(ValueError, match=msg):
            neg_log_likelihood(ParamVector(beta=1.0, theta=1.0, lam=0.0), xs, "gte")

    def test_evaluations_sum_over_starts(self):
        xs = model_from_params("gtwe", self.TRUTH).sample(100, seed=32)
        one = fit(xs, "gtwe", method="cvm", init=self.TRUTH, n_starts=1)
        three = fit(xs, "gtwe", method="cvm", init=self.TRUTH, n_starts=3)
        assert three.evaluations > one.evaluations


def _bits(value):
    """The bytes of a float or float array, so that -0.0 != 0.0 and NaN == NaN."""
    return np.asarray(value, dtype=np.float64).tobytes()


class TestErrstate:
    """A fit holds one errstate around all its work, and every errstate gtld
    enters ignores underflow: no result depends on the caller's underflow
    setting, and the caller's errstate comes back unchanged."""

    TRUTH = ParamVector(beta=3.0, theta=0.5, lam=0.2, shape={"alpha": 2.5})
    # at x = 3, a = beta*G = 3*(e^(3^2.5) - 1) is about 1.8e7 and e^-a underflows
    XS = np.array([0.01, 0.2, 0.5, 0.9, 1.3, 2.0, 3.0])
    # a non-default errstate in every category
    CALLER = dict(divide="ignore", over="raise", under="raise", invalid="print")

    def test_fit_is_the_same_where_underflow_raises(self):
        # the gauge/gtwe ml fit's starts once each raised FloatingPointError
        # at e^-a in log u, so that all five failed
        xs = load_values("gauge")
        want = repr(fit(xs, "gtwe"))
        with np.errstate(under="raise"):
            assert repr(fit(xs, "gtwe")) == want

    def test_point_functions_are_the_same_where_underflow_raises(self):
        m = model_from_params("gtwe", self.TRUTH)
        fns = (m.cdf, m.survival, m.pdf, m.logpdf)
        want = [_bits(fn(self.XS)) for fn in fns] + [_bits(fn(3.0)) for fn in fns]
        with np.errstate(under="raise"):
            got = [_bits(fn(self.XS)) for fn in fns] + [_bits(fn(3.0)) for fn in fns]
        assert got == want

    @pytest.mark.parametrize("method", METHODS)
    def test_objectives_are_the_same_where_underflow_raises(self, method):
        mid = METHOD_IDS[method]
        plan = _kernels.Plan(self.XS, FAMILY_IDS["gtwe"], mid)
        args = (mid, FAMILY_IDS["gtwe"], 2.5, 0.0, 3.0, 0.5, 0.2, plan)

        def results():
            value, clamps = _kernels.objective(*args)
            value_g, clamps_g, grad = _kernels.objective_grad(*args)
            public = OBJECTIVE_FNS[method](self.TRUTH, self.XS, "gtwe")
            return [_bits(value), clamps, _bits(value_g), clamps_g, _bits(grad), _bits(public)]

        want = results()
        with np.errstate(under="raise"):
            assert results() == want

    def test_callers_errstate_comes_back(self):
        xs = load_values("gauge")
        bad = np.r_[xs[:5], -1.0]
        with np.errstate(**self.CALLER):
            caller = np.geterr()
            res = fit(xs, "gtw")
            assert np.geterr() == caller
            model = model_from_params("gtw", res.estimates)
            steps = [
                lambda: standard_errors(res, xs, "gtw"),
                lambda: gof_report(xs, model, "gtw"),
            ]
            for step in steps:
                step()
                assert np.geterr() == caller
            raising = [
                # the one start's first evaluation overflows in gtp1's penalty
                (FitError, lambda: fit(xs, "gtp1", n_starts=1, init=ParamVector(
                    beta=1.0, theta=1.0, lam=0.0, shape={"alpha": 1e200}))),
                (SupportError, lambda: fit(bad, "gtw")),
                (SupportError, lambda: standard_errors(res, bad, "gtw")),
                (SupportError, lambda: gof_report(bad, model, "gtw")),
            ]
            for error, step in raising:
                with pytest.raises(error):
                    step()
                assert np.geterr() == caller


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

    def test_hessian_quotient_past_the_float_range_gives_none(self):
        # the central-difference quotient overflowed at this fit's optimum
        truth = make_model(
            "gtw", beta=2.6508648573850326, theta=0.038591380519462405,
            lam=0.9040585374523695, alpha=1.4802846353468357,
        )
        xs = truth.sample(8, seed=6)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = fit(xs, "gtw", "ml", n_starts=2, seed=6)
            assert res.converged and res.std_errors is None
            assert standard_errors_from_params(res.estimates, xs, "gtw") is None

    def test_methods_other_than_ml_rejected(self, gte_sample):
        res = fit(gte_sample[:50], "gte", method="ols", n_starts=1)
        with pytest.raises(ValueError):
            estimation.standard_errors(res, gte_sample[:50], "gte")


@pytest.fixture(scope="module")
def failure_fit():
    xs = get_dataset("failure").as_array()
    return xs, fit(xs, "gtw", "ml", n_starts=1)


# the entry points that take a sample beside fit and the objective functions
SAMPLE_ENTRY_POINTS = {
    "standard_errors_from_params": lambda xs, res: standard_errors_from_params(
        res.estimates, xs, "gtw"
    ),
    "standard_errors": lambda xs, res: estimation.standard_errors(res, xs, "gtw"),
    "mle_theta_bracket": lambda xs, res: mle_theta_bracket(xs, "gtw", {"alpha": 1.0}, 1.0, -0.5),
    "theta_score": lambda xs, res: theta_score(xs, "gtw", {"alpha": 1.0}, 1.0, -0.5, 1.0),
}


@pytest.mark.parametrize(
    "bad, why",
    [(math.nan, "is not finite"), (-1.0, "is outside the support"),
     (math.inf, "is not finite"), (0.0, "is outside the support")],
)
@pytest.mark.parametrize("entry", SAMPLE_ENTRY_POINTS)
def test_entry_points_refuse_the_sample_fit_refuses(failure_fit, entry, bad, why):
    xs, res = failure_fit
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=f"^sample point at index 50 {why}"):
            SAMPLE_ENTRY_POINTS[entry](np.append(xs, bad), res)


class TestThetaBracket:
    def test_trivial_substitution(self):
        # sum log y = -n gives the bracket [1/2, 1]; pick x with y = e^{-1}
        x = -math.log(1.0 - math.exp(-1.0))
        xs = np.full(20, x)
        lo, hi = mle_theta_bracket(xs, "gte", {}, 1.0, -0.5)
        assert (lo, hi) == pytest.approx((0.5, 1.0), rel=1e-12)

    @pytest.mark.parametrize(
        "call",
        [
            lambda xs: mle_theta_bracket(xs, "gte", {}, 0.5, -0.5),
            lambda xs: theta_score(xs, "gte", {}, 0.5, -0.5, 1.0),
        ],
        ids=["mle_theta_bracket", "theta_score"],
    )
    def test_a_point_with_u_zero_is_refused(self, call):
        # beta * x rounds to 0 at x = 5e-324, so u = 1 - exp(-beta x) = 0
        # there; theta_score returned nan with two RuntimeWarnings
        xs = np.array([5e-324, 1.0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError):
                call(xs)

    def test_score_is_the_ml_gradient(self):
        # minus the theta component of the ml objective's gradient, and close
        # to the written-out score n/theta + sum log u - 2 lam sum(...)
        shape, beta, lam, theta = {"alpha": 1.7}, 1.3, -0.4, 0.9
        xs = make_model("gtw", beta=beta, theta=theta, lam=lam, **shape).sample(150, seed=3)
        u = -np.expm1(-beta * xs ** shape["alpha"])
        ut = u**theta
        written = (
            xs.size / theta
            + np.sum(np.log(u))
            - 2.0 * lam * np.sum(ut * np.log(u) / ((1.0 + lam) - 2.0 * lam * ut))
        )
        assert theta_score(xs, "gtw", shape, beta, lam, theta) == pytest.approx(
            written, rel=1e-12, abs=1e-10
        )

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
