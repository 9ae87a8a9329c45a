import concurrent.futures
import math
import re
import sys
import warnings

import numpy as np
import pytest
from scipy import integrate as sp_integrate
from scipy import special as sp
from scipy import stats as st

from gtld import _kernels, numerics, properties
from gtld.model import SUBFAMILY_SHAPES, SupportError, make_model, model_from_params

import golden_model
from conftest import random_params
from test_lockstep import Composition, outcome
from test_numerics import per_level_integrate


def _light_tail(p):
    """Push polynomial-tail parameter sets into finite-mean territory."""
    import dataclasses

    return dataclasses.replace(p, beta=max(p.beta, 3.5))


def exp_model(beta=2.0):
    """theta=1, lam=0 GTE is the plain exponential with rate beta."""
    return make_model("gte", beta=beta, theta=1.0, lam=0.0)


class TestMoments:
    def test_exponential_raw_moments(self):
        m = exp_model(2.0)
        for r in (1, 2, 3, 4):
            assert properties.raw_moment(m, r) == pytest.approx(
                math.gamma(r + 1) / 2.0**r, rel=1e-9
            )

    def test_order_validated(self):
        with pytest.raises(ValueError):
            properties.raw_moment(exp_model(), 0)

    def test_exponential_incomplete_moment(self):
        m = exp_model(2.0)
        want = sp_integrate.quad(lambda x: x * 2 * math.exp(-2 * x), 0, 0.5)[0]
        assert properties.incomplete_moment(m, 1, 0.5) == pytest.approx(want, rel=1e-9)
        assert properties.incomplete_moment(m, 1, 0.0) == 0.0

    @pytest.mark.parametrize("z, want", [(1e12, 1.7261636435818264), (1e20, 1.9774947418544749)])
    def test_incomplete_moment_far_in_a_heavy_tail(self, z, want):
        # gtl with tail index 2.06, E[X^2; X <= z] where S(z) = 1.1e-26 and
        # 3.4e-43: the levels above 0.75 run as survival levels down to
        # S(z); the references are 32-digit mpmath quadratures
        m = make_model(
            "gtl", beta=2.0646372911380526, theta=0.5672415025526805,
            lam=0.24594611451169524, alpha=0.4087338343126426,
        )
        assert properties.incomplete_moment(m, 2, z) == pytest.approx(want, rel=1e-9)

    def test_incomplete_below_support_rejected(self):
        m = make_model("gtp1", beta=3.0, theta=1.0, lam=0.0, alpha=2.0)
        with pytest.raises(ValueError):
            properties.incomplete_moment(m, 1, 1.0)

    @pytest.mark.parametrize("method", ["quadrature", "series"])
    @pytest.mark.parametrize("z", [math.inf, math.nan])
    def test_incomplete_rejects_non_finite_z(self, z, method):
        # an infinite z once reached the quadrature with no tail screen
        # (QuadratureError here, where raw_moment raises DivergenceError)
        m = make_model("gtw" if method == "series" else "gtl", beta=0.8, theta=1.0, lam=0.0, alpha=1.0)
        with pytest.raises(ValueError, match="raw_moment"):
            properties.incomplete_moment(m, 2, z, method=method)

    def test_residual_moment_rejects_nan_age(self):
        with pytest.raises(ValueError, match="age"):
            properties.residual_moment(exp_model(), 1, math.nan)

    def test_incomplete_converges_to_full(self, family, rng):
        m = model_from_params(family, _light_tail(random_params(family, rng)))
        full = properties.raw_moment(m, 1)
        z = m.quantile(1 - 1e-12)
        assert properties.incomplete_moment(m, 1, z) == pytest.approx(full, rel=1e-6)

    def test_heavy_tail_divergence_detected(self):
        # Pareto-type tail: E[X^2] infinite when the tail index is too small.
        m = make_model("gtp1", beta=1.5, theta=1.0, lam=0.0, alpha=1.0)
        with pytest.raises(properties.DivergenceError):
            properties.raw_moment(m, 2)

    def test_gtw_series_matches_quadrature(self, rng):
        for _ in range(8):
            p = random_params("gtw", rng)
            m = model_from_params("gtw", p)
            q = properties.raw_moment(m, 1, method="quadrature")
            s = properties.raw_moment(m, 1, method="series")
            assert s == pytest.approx(q, rel=1e-6)
            z = m.quantile(0.7)
            qi = properties.incomplete_moment(m, 1, z, method="quadrature")
            si = properties.incomplete_moment(m, 1, z, method="series")
            assert si == pytest.approx(qi, rel=1e-6)

    def test_series_wrong_family_rejected(self):
        with pytest.raises(ValueError):
            properties.raw_moment(exp_model(), 1, method="series")


class TestPwmAndMgf:
    def test_pwm_zeroth_is_one_over_s_plus_one(self):
        # E[F(X)^s] = 1/(s+1) for any continuous distribution.
        m = make_model("gtw", beta=1.2, theta=1.7, lam=-0.3, alpha=1.5)
        for s in (0, 1, 3):
            assert properties.pwm(m, 0, s) == pytest.approx(1 / (s + 1), rel=1e-8)

    def test_exponential_pwm(self):
        m = exp_model(2.0)
        want = sp_integrate.quad(
            lambda x: x * (1 - math.exp(-2 * x)) * 2 * math.exp(-2 * x), 0, 60
        )[0]
        assert properties.pwm(m, 1, 1) == pytest.approx(want, rel=1e-9)

    def test_exponential_mgf(self):
        m = exp_model(2.0)
        for t in (-1.0, 0.0, 0.5, 1.0):
            assert properties.mgf(m, t) == pytest.approx(2.0 / (2.0 - t), rel=1e-8)

    def test_mgf_divergence(self):
        with pytest.raises(properties.DivergenceError):
            properties.mgf(exp_model(2.0), 2.5)

    def test_mgf_first_derivative_is_mean(self, family, rng):
        m = model_from_params(family, _light_tail(random_params(family, rng)))
        h = 1e-5
        if family in ("gtb12", "gtl", "gtp1"):
            # a power-law tail: M(t) = inf for every t > 0, so take the
            # one-sided difference on t <= 0, with M(0) = 1
            with pytest.raises(properties.DivergenceError):
                properties.mgf(m, h)
            fd = (3.0 - 4.0 * properties.mgf(m, -h) + properties.mgf(m, -2 * h)) / (2 * h)
        else:
            fd = (properties.mgf(m, h) - properties.mgf(m, -h)) / (2 * h)
        assert fd == pytest.approx(properties.raw_moment(m, 1), rel=1e-4)


class TestStressStrength:
    def test_closed_form(self):
        assert properties.stress_strength(0.0, 0.0) == pytest.approx(0.5)
        assert properties.stress_strength(-1.0, 1.0) == pytest.approx(5 / 6)
        assert properties.stress_strength(0.3, -0.2) == pytest.approx((-0.2 - 0.3 + 3) / 6)

    def test_symmetry(self):
        r12 = properties.stress_strength(0.4, -0.7)
        r21 = properties.stress_strength(-0.7, 0.4)
        assert r12 + r21 == pytest.approx(1.0)


class TestOrderStatistics:
    def test_density_integrates_to_one(self):
        m = make_model("gtw", beta=2.0, theta=0.9, lam=0.4, alpha=1.8)
        for n, r in ((5, 1), (5, 5), (7, 3)):
            val = sp_integrate.quad(
                lambda x: properties.order_stat_pdf(m, n, r, x), 0, 30, limit=200
            )[0]
            assert val == pytest.approx(1.0, abs=1e-7)

    def test_n1_is_parent_density(self):
        m = exp_model(1.3)
        for x in (0.2, 1.0, 2.5):
            assert properties.order_stat_pdf(m, 1, 1, x) == pytest.approx(
                m.pdf(x), rel=1e-12
            )

    def test_min_of_exponentials_is_exponential(self):
        # min of n iid Exp(beta) is Exp(n*beta)
        m, n = exp_model(1.0), 4
        for x in (0.1, 0.5, 1.0):
            assert properties.order_stat_pdf(m, n, 1, x) == pytest.approx(
                n * math.exp(-n * x), rel=1e-10
            )

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            properties.order_stat_pdf(exp_model(), 3, 4, 1.0)

    GTW = dict(beta=1.0, theta=1.2, lam=0.3, alpha=1.5)

    def test_single_draw_is_the_density_itself(self, family, rng):
        m = model_from_params(family, random_params(family, rng))
        xs = m.quantile(np.linspace(0.01, 0.99, 25))
        assert properties.order_stat_pdf(m, 1, 1, xs).tobytes() == m.pdf(xs).tobytes()
        assert properties.order_stat_pdf(m, 1, 1, float(xs[3])) == m.pdf(float(xs[3]))

    @pytest.mark.parametrize("n", [2, 7, 60, 300])
    def test_min_and_max(self, family, rng, n):
        m = model_from_params(family, random_params(family, rng))
        xs = m.quantile(np.linspace(0.02, 0.98, 13))
        f, F, S = m.pdf(xs), m.cdf(xs), m.survival(xs)
        np.testing.assert_allclose(
            properties.order_stat_pdf(m, n, 1, xs), n * f * S ** (n - 1), rtol=1e-12
        )
        np.testing.assert_allclose(
            properties.order_stat_pdf(m, n, n, xs), n * f * F ** (n - 1), rtol=1e-12
        )

    @pytest.mark.parametrize("n, r", [(3, 2), (20, 7), (60, 30), (200, 199)])
    def test_density_integrates_to_one_by_quadrature(self, n, r):
        m = make_model("gtw", **self.GTW)
        val = numerics.integrate(
            lambda x: properties.order_stat_pdf(m, n, r, x), 0.0, math.inf
        )
        assert val == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n", [1500, 2000])
    @pytest.mark.parametrize(
        "family, params",
        [("gtw", GTW), ("gtl", dict(beta=0.8, theta=1.0, lam=0.0, alpha=1.0))],
    )
    def test_large_samples_at_the_median(self, family, params, n):
        # B(r, n-r+1) alone underflows to 0 here: the density once came out
        # NaN, with a RuntimeWarning; n f(x) times a binomial probability is
        # an independent route to it
        m = make_model(family, **params)
        med = m.quantile(0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = properties.order_stat_pdf(m, n, n // 2, med)
        want = n * m.pdf(med) * st.binom.pmf(n // 2 - 1, n - 1, m.cdf(med))
        assert math.isfinite(got)
        assert got == pytest.approx(want, rel=1e-9)


    def test_weights_below_the_float_range_where_underflow_raises(self, family):
        # n = 2000, r = 1000: the binomial weight underflows to 0 away from
        # the median, and once raised FloatingPointError where the caller
        # had underflow raise
        m = make_model(family, beta=1.5, theta=0.8, lam=0.3,
                       **{name: 2.0 for name in SUBFAMILY_SHAPES[family]})
        xs = m.quantile(np.array([0.01, 0.5, 0.99]))
        want = properties.order_stat_pdf(m, 2000, 1000, xs)
        assert want[0] == want[-1] == 0.0
        with np.errstate(under="raise"):
            assert properties.order_stat_pdf(m, 2000, 1000, xs).tobytes() == want.tobytes()


class TestEntropies:
    def test_exponential_renyi_closed_form(self):
        # I_rho = (1/(1-rho)) log(beta^{rho-1}/rho)
        for beta in (0.5, 1.0, 2.0):
            m = exp_model(beta)
            for rho in (2.0, 3.0, 5.0):
                want = (math.log(beta ** (rho - 1) / rho)) / (1 - rho)
                assert properties.renyi_entropy(m, rho) == pytest.approx(want, rel=1e-8)

    def test_renyi_rho_validation(self):
        with pytest.raises(ValueError):
            properties.renyi_entropy(exp_model(), 1.0)

    def test_exponential_q_entropy(self):
        # H_q = (1/(q-1)) log(1 - beta^{q-1}/q), defined while the integral < 1
        m = exp_model(1.0)
        for q in (2.0, 4.0):
            want = math.log(1 - 1 / q) / (q - 1)
            assert properties.q_entropy(m, q) == pytest.approx(want, rel=1e-8)

    def test_q_entropy_domain_error(self):
        # beta^{q-1}/q >= 1 puts the argument of the log at or below zero
        with pytest.raises(properties.EntropyDomainError):
            properties.q_entropy(exp_model(3.0), 2.0)

    def test_divergent_density_power(self):
        # theta small makes f^rho non-integrable at the support edge
        m = make_model("gtw", beta=1.0, theta=0.2, lam=0.0, alpha=1.0)
        with pytest.raises(properties.DivergenceError):
            properties.renyi_entropy(m, 4.0)

    def test_density_power_at_lam_minus_one(self):
        # at lam = -1, F = v^2 = u^0.8 (u = 1 - e^-x) and f ~ x^(2*theta - 1)
        # at the edge: integral(f^2) = 0.64 * B-type integral = 2/3 exactly,
        # though rho*(theta - 1) = -1.2, the local power with theta undoubled
        m = make_model("gte", beta=1.0, theta=0.4, lam=-1.0)
        assert properties.renyi_entropy(m, 2.0) == pytest.approx(math.log(1.5), rel=1e-12)

    @pytest.mark.usefixtures("no_quadrature")
    def test_edge_divergence_names_the_local_power(self):
        # theta doubled at lam = -1: f^3 ~ x^(3*(2*0.2 - 1)) = x^-1.8
        m = make_model("gte", beta=1.0, theta=0.2, lam=-1.0)
        with pytest.raises(
            properties.DivergenceError,
            match=r"^density-power integral rho=3.0: diverges at the lower support edge, "
            r"where f\^3 ~ \(x - 0\)\^-1.8$",
        ):
            properties.renyi_entropy(m, 3.0)

    def test_truncated_entropy_is_finite_where_full_diverges(self):
        m = make_model("gtw", beta=1.0, theta=0.2, lam=0.0, alpha=1.0)
        val = properties.renyi_entropy(m, 4.0, lower=0.01)
        assert math.isfinite(val)

    @pytest.mark.parametrize(
        "family, params, q",
        [
            # power-law tail: f(Q(u))^(q-1) is singular as u -> 1
            ("gtl", dict(beta=5.36897, theta=0.625279, lam=0.810812, alpha=0.924327), 0.464119),
            # Q(u) for u down to 1e-150 comes from the gtmw inverse
            (
                "gtmw",
                dict(beta=1.03279, theta=0.794056, lam=-0.270984, alpha=0.919501, gamma=0.15395),
                2.64403,
            ),
        ],
    )
    def test_q_entropy_with_unbounded_density_matches_oracle(self, family, params, q):
        m = make_model(family, **params)
        assert m.edge_order * m.params.theta < 1.0  # the u = F(x) route
        mid = m.quantile(0.75)
        f_q = lambda x: m.pdf(x) ** q  # noqa: E731
        val = (
            sp_integrate.quad(f_q, 0, mid, epsabs=1e-14, epsrel=1e-12, limit=500)[0]
            + sp_integrate.quad(f_q, mid, np.inf, epsabs=1e-14, epsrel=1e-12, limit=500)[0]
        )
        want = math.log1p(-val) / (q - 1.0)
        assert properties.q_entropy(m, q) == pytest.approx(want, rel=1e-9)

    # gtr parameters at which the rule, integrating in x above Q(0.75), met
    # its bound by coincidence: |T(1/8) - T(1/4)| = 2.8e-10, and T(1/16)
    # moved by 2.9e-7; the entropy came out 0.7709222863925855
    FALSE_CONVERGENCE = (
        dict(beta=0.9681764988469315, theta=1.2315253166071585, lam=0.5892629762645271),
        1.2165227430160896,
        0.7709207022028898,  # by SciPy's quad below
    )

    def test_false_convergence_reference(self):
        params, rho, want = self.FALSE_CONVERGENCE
        m = make_model("gtr", **params)
        f_rho = lambda x: m.pdf(x) ** rho  # noqa: E731
        val = sp_integrate.quad(f_rho, 0.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        assert math.log(val) / (1.0 - rho) == pytest.approx(want, rel=1e-12)

    def test_renyi_entropy_meets_its_tolerance_on_gtr(self):
        params, rho, want = self.FALSE_CONVERGENCE
        m = make_model("gtr", **params)
        assert properties.renyi_entropy(m, rho) == pytest.approx(want, rel=1e-8)


class TestResidualLife:
    def test_exponential_memoryless(self):
        m = exp_model(2.0)
        for t in (0.5, 1.0, 3.0):
            assert properties.residual_moment(m, 1, t) == pytest.approx(0.5, rel=1e-8)

    def test_residual_order_validated(self):
        with pytest.raises(ValueError):
            properties.residual_moment(exp_model(), 0, 1.0)

    def test_reversed_residual_oracle(self):
        m = exp_model(1.0)
        t = 2.0
        want = sp_integrate.quad(
            lambda x: (t - x) * m.pdf(x), 0, t
        )[0] / m.cdf(t)
        assert properties.reversed_residual_moment(m, 1, t) == pytest.approx(
            want, rel=1e-8
        )
        assert properties.reversed_residual_moment(m, 0, t) == pytest.approx(1.0)


@pytest.fixture
def no_quadrature(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("the quadrature ran")

    monkeypatch.setattr(numerics, "integrate_ranges", refused)


@pytest.mark.usefixtures("no_quadrature")
class TestSupportRefusal:
    """Arguments below the support are refused before any integrand call;
    gtp1 with alpha = 2 has the support (2, inf)."""

    MODEL = make_model("gtp1", beta=2.0, theta=1.5, lam=0.3, alpha=2.0)

    @pytest.mark.parametrize(
        "fn", [properties.residual_moment, properties.reversed_residual_moment]
    )
    def test_age_below_the_support(self, fn):
        with pytest.raises(SupportError, match="argument below the support infimum 2.0 of gtp1"):
            fn(self.MODEL, 1, 1.5)

    def test_incomplete_moment_below_the_support(self):
        with pytest.raises(ValueError, match="z below the support"):
            properties.incomplete_moment(self.MODEL, 1, 1.5)


@pytest.mark.usefixtures("no_quadrature")
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda m: properties.raw_moment(m, math.nan), "moment order r must be >= 1, got nan"),
        (lambda m: properties.incomplete_moment(m, math.nan, 1.0),
         "moment order r must be >= 1, got nan"),
        (lambda m: properties.incomplete_moment(m, 1, math.nan), "needs a finite z, got nan"),
        (lambda m: properties.pwm(m, math.nan, 1), r"pwm orders r, s must be nonnegative, got nan, 1"),
        (lambda m: properties.pwm(m, 1, math.nan), r"pwm orders r, s must be nonnegative, got 1, nan"),
        (lambda m: properties.mgf(m, math.nan), "mgf needs an argument t, got nan"),
        (lambda m: properties.renyi_entropy(m, 2.0, lower=math.nan),
         "the entropy integral's lower limit is nan"),
        (lambda m: properties.q_entropy(m, 2.0, lower=math.nan),
         "the entropy integral's lower limit is nan"),
        (lambda m: properties.residual_moment(m, math.nan, 1.0),
         "residual moment order n must be >= 1, got nan"),
        (lambda m: properties.reversed_residual_moment(m, math.nan, 1.0),
         "reversed residual moment order n must be >= 0, got nan"),
        (lambda m: properties.reversed_residual_moment(m, 1, math.nan),
         "reversed residual moment needs an age t, got nan"),
        (lambda m: properties.cigf(m, math.nan, 1.0), "cigf order m must be >= 0, got nan"),
        (lambda m: properties.cigf(m, 1.0, math.nan), "cigf order n must be >= 0, got nan"),
    ],
    ids=["raw_moment", "incomplete_moment-r", "incomplete_moment-z", "pwm-r", "pwm-s", "mgf",
         "renyi-lower", "q_entropy-lower", "residual-n", "reversed_residual-n",
         "reversed_residual-t", "cigf-m", "cigf-n"],
)
def test_nan_orders_and_arguments_refused(call, message):
    # NaN passed the checks written as r < 1, s < 0 or m < 0, and raw_moment,
    # mgf and cigf then raised QuadratureError on a non-finite integrand
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=message):
            call(exp_model())


def gtw_model():
    return make_model("gtw", beta=0.5, theta=1.2, lam=-0.3, alpha=1.5)


@pytest.mark.usefixtures("no_quadrature")
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda m: properties.raw_moment(m, math.inf), "moment order r must be finite, got inf"),
        (lambda m: properties.incomplete_moment(m, math.inf, 1.0),
         "moment order r must be finite, got inf"),
        (lambda m: properties.pwm(m, math.inf, 1), "pwm order r must be finite, got inf"),
        (lambda m: properties.pwm(m, 1, math.inf), "pwm order s must be finite, got inf"),
        (lambda m: properties.renyi_entropy(m, math.inf), "rho must be finite, got inf"),
        (lambda m: properties.renyi_entropy(m, 2.0, lower=math.inf),
         "the entropy integral's lower limit must be finite, got inf"),
        (lambda m: properties.renyi_entropy(m, 2.0, lower=-math.inf),
         "the entropy integral's lower limit must be finite, got -inf"),
        (lambda m: properties.q_entropy(m, math.inf), "q must be finite, got inf"),
        (lambda m: properties.q_entropy(m, 2.0, lower=math.inf),
         "the entropy integral's lower limit must be finite, got inf"),
        (lambda m: properties.residual_moment(m, math.inf, 1.0),
         "residual moment order n must be finite, got inf"),
        (lambda m: properties.residual_moment(m, 1, math.inf),
         "residual moment age t must be finite, got inf"),
        (lambda m: properties.residual_moment(m, 1, -math.inf),
         "residual moment age t must be finite, got -inf"),
        (lambda m: properties.reversed_residual_moment(m, math.inf, 1.0),
         "reversed residual moment order n must be finite, got inf"),
        (lambda m: properties.reversed_residual_moment(m, 1, math.inf),
         "reversed residual moment age t must be finite, got inf"),
        (lambda m: properties.reversed_residual_moment(m, 0, math.inf),
         "reversed residual moment age t must be finite, got inf"),
        (lambda m: properties.cigf(m, math.inf, 1.0), "cigf order m must be finite, got inf"),
        (lambda m: properties.cigf(m, 1.0, math.inf), "cigf order n must be finite, got inf"),
    ],
    ids=["raw_moment", "incomplete_moment-r", "pwm-r", "pwm-s", "renyi-rho", "renyi-lower",
         "renyi-lower-neg", "q_entropy-q", "q_entropy-lower", "residual-n", "residual-t",
         "residual-t-neg", "reversed_residual-n", "reversed_residual-t",
         "reversed_residual-t-order-0", "cigf-m", "cigf-n"],
)
def test_infinite_orders_and_arguments_refused(call, message):
    # before, on this gtw model: raw_moment(m, inf) and residual_moment(m,
    # inf, 1) raised QuadratureError, renyi_entropy(m, inf) and lower=inf a
    # DivergenceError, q_entropy(m, inf) returned -0.0 and
    # reversed_residual_moment(m, inf, 1) 7.8e-30
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(gtw_model())


def test_mgf_keeps_its_infinite_limits():
    # e^(tX) tends to 0 as t -> -inf, and is infinite for t = inf
    m = gtw_model()
    assert properties.mgf(m, -math.inf) == 0.0
    with pytest.raises(properties.DivergenceError, match="mgf t=inf"):
        properties.mgf(m, math.inf)


class TestQuantilePastTheFloatRange:
    """A moment, PWM, residual moment or cigf that meets a Q past the float
    range at a level below 0.75 (for the residual moment, at a survival
    level above S(t)/2) is refused with OverflowError, naming the property,
    at the first integrand call; in gtw with alpha = 0.00145, Q(0.75) is
    inf."""

    MODEL = make_model("gtw", beta=0.1, theta=1.0, lam=0.0, alpha=0.00145)

    @pytest.mark.parametrize(
        "call, what",
        [
            (lambda m: properties.raw_moment(m, 1), "raw moment r=1"),
            (lambda m: properties.pwm(m, 1, 1), "pwm r=1, s=1"),
            (lambda m: properties.cigf(m, 1, 1), "cigf m=1, n=1"),
            (lambda m: properties.residual_moment(m, 1, 1.0), "residual moment n=1"),
        ],
        ids=["raw_moment", "pwm", "cigf", "residual_moment"],
    )
    def test_overflow_names_the_property(self, call, what, monkeypatch):
        calls = _count_integrand_calls(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(OverflowError, match=f"^{what}: Q lies past the float range"):
                call(self.MODEL)
        assert len(calls) == 1

    def test_pwm_of_order_zero_needs_no_finite_quantile(self):
        # E[F(X)^s] = 1/(s + 1) whatever Q is
        assert properties.pwm(self.MODEL, 0, 2) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_mgf_where_the_integrand_is_a_near_step(self):
        # e^(tQ) exists here (it is 0 where Q = inf) but falls from 1 to 0
        # over p in (0.0950, 0.0956); the rule cannot meet its bound on such
        # a step, and says so rather than return a wrong number
        with pytest.raises(numerics.QuadratureError, match="did not converge"):
            properties.mgf(self.MODEL, -0.5)


class TestTailScreen:
    """Existence in the tail is decided from the family table's growth of G,
    before any integrand call; each case lies near the boundary of
    existence, and SciPy is the oracle."""

    # gtw with alpha < 1: e^(tx) f(x) grows without bound for every t > 0
    GTW = make_model(
        "gtw", alpha=0.9418254532598117, beta=4.959486579459924,
        theta=0.3911300067797513, lam=-0.7196020817578723,
    )
    # gtb12 with lam within 6e-13 of 1: S ~ (1 - lam)*theta*(1 + x^alpha)^-beta
    # beyond x ~ 1e20, tail index alpha*beta = 0.639
    NEAR_LAM_ONE = make_model("gtb12", alpha=0.4332, beta=1.4754, theta=4.5517, lam=1 - 5.9e-13)

    @pytest.mark.usefixtures("no_quadrature")
    def test_mgf_at_infinity_diverges(self, family):
        # e^(t*x) is inf on the whole support however fast G grows: gtr,
        # gtmw, gtwe and gtw with alpha > 1 once reached the quadrature
        # and raised QuadratureError there
        shape = {name: 2.0 for name in SUBFAMILY_SHAPES[family]}
        m = make_model(family, beta=1.0, theta=1.0, lam=0.0, **shape)
        with pytest.raises(properties.DivergenceError, match=r"^mgf t=inf: e\^\(t\*x\) is infinite"):
            properties.mgf(m, math.inf)

    @pytest.mark.usefixtures("no_quadrature")
    def test_mgf_diverges_where_g_grows_slower_than_x(self):
        a, b, t = 0.9418254532598117, 4.959486579459924, 0.7523198882690547
        # f >= (1 - |lam|)*theta*w with w the Weibull density of u, theta < 1,
        # and t*x + log w(x) passes 1e14 by x = 1e16, growing
        log_w = st.weibull_min.logpdf([1e16, 1e17], a, scale=b ** (-1.0 / a))
        assert (t * np.array([1e16, 1e17]) + log_w > 1e14).all()
        with pytest.raises(properties.DivergenceError, match=f"^mgf t={t}: diverges in the tail"):
            properties.mgf(self.GTW, t)

    @pytest.mark.usefixtures("no_quadrature")
    def test_tail_power_rounding_to_one_is_a_quadrature_error(self):
        # cigf(0, n) = 1/n here; at n = 1e-17 the survival levels' power
        # a = 1 - n rounds to 1, and k = 1/(1 - a) raised a bare
        # ZeroDivisionError
        m = make_model("gte", beta=1, theta=1, lam=0)
        with pytest.raises(numerics.QuadratureError, match=r"^cigf m=0.0, n=1e-17: .* a = 1.0 "):
            properties.cigf(m, 0.0, 1e-17)

    @pytest.mark.usefixtures("no_quadrature")
    @pytest.mark.parametrize(
        "call, what",
        [
            (lambda m: properties.raw_moment(m, 1), "raw moment r=1"),
            (lambda m: properties.pwm(m, 1, 1), "pwm r=1, s=1"),
            (lambda m: properties.renyi_entropy(m, 0.5), "density-power integral rho=0.5"),
            (lambda m: properties.cigf(m, 1, 1), "cigf m=1, n=1"),
        ],
        ids=["raw_moment", "pwm", "renyi_entropy", "cigf"],
    )
    def test_divergence_where_lam_is_near_one(self, call, what):
        p = self.NEAR_LAM_ONE.params
        a, b = p.shape["alpha"], p.beta
        # S >= (1 - lam)*theta*s/2 with s the Burr XII survival function, so
        # E[X] >= x*S(2x), a bound that grows like x^(1 - alpha*beta)
        x = np.array([1e100, 1e200, 1e300])
        log_bound = (
            np.log(x) + math.log((1.0 - p.lam) * p.theta / 2.0)
            + st.burr12.logsf(2.0 * x, a, b)
        )
        assert log_bound[0] > 50.0 and (np.diff(log_bound) > 50.0).all()
        with pytest.raises(properties.DivergenceError, match=f"^{what}: diverges in the tail"):
            call(self.NEAR_LAM_ONE)

    def test_second_moment_where_the_tail_index_is_below_three(self):
        # gtb12, tail index alpha*beta = 2.98: E[X^2] = integral of 2x S(x),
        # by SciPy in log x
        a, b, th, lam = (
            0.24445052081096572, 12.185228065940908, 0.22718437672759553, 0.057178526520043294
        )

        def integrand(y):
            one_minus_v = -math.expm1(th * math.log1p(-st.burr12.sf(math.exp(y), a, b)))
            return 2.0 * math.exp(2.0 * y) * one_minus_v * (1.0 - lam * (1.0 - one_minus_v))

        want = sum(
            sp_integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, limit=500)[0]
            for lo, hi in ((-50.0, 0.0), (0.0, 300.0))
        )
        m = make_model("gtb12", alpha=a, beta=b, theta=th, lam=lam)
        assert properties.raw_moment(m, 2) == pytest.approx(want, rel=1e-6)

    def test_mgf_where_g_grows_faster_than_x(self):
        # gtr: e^(tx) f(x) peaks near x = t/beta = 26 at about e^(t^2/(2 beta))
        b, th, lam = 0.06623472052505183, 0.43968682060008235, 0.9066501152914042
        t = 1.750302189470701
        scale = 1.0 / math.sqrt(b)

        def integrand(x):
            log_u = st.rayleigh.logcdf(x, scale=scale)
            v = math.exp(th * log_u)
            log_f = (
                math.log((1.0 + lam) - 2.0 * lam * v) + math.log(th) + (th - 1.0) * log_u
                + st.rayleigh.logpdf(x, scale=scale)
            )
            return math.exp(t * x + log_f)

        want = sum(
            sp_integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, limit=500)[0]
            for lo, hi in ((0.0, t / b), (t / b, np.inf))
        )
        m = make_model("gtr", beta=b, theta=th, lam=lam)
        assert properties.mgf(m, t) == pytest.approx(want, rel=1e-6)


# the gtb12 MGF below: -t times the integral of e^(tx) F(x) over x, by a
# 40-digit mpmath quadrature
GTB12_MGF = 2.242622724280570809e-10


class TestQuadratureFaults:
    # gtp1 with theta < 1 near its low end alpha: 1.3e-4 of the mass lies
    # between alpha and the next double above it, and a quadrature in x
    # over (alpha, Q(0.75)) missed its bound (see CHANGES.md)
    GTP1 = dict(
        alpha=0.7008003746224082, beta=8.44463274677869,
        theta=0.23688411746283924, lam=-0.5984752694001021,
    )
    MEAN = 0.7458078708428644  # by SciPy below; a 30-digit quadrature agrees

    @staticmethod
    def _gtp1_mean(alpha, beta, theta, lam):
        # E[X] = alpha + integral of S over (alpha, inf), in y = log(x/alpha),
        # where (x/alpha)^-beta = e^(-beta*y) is the Pareto survival function
        def integrand(y):
            one_minus_v = -math.expm1(theta * math.log(-math.expm1(-beta * y)))
            return alpha * math.exp(y) * one_minus_v * (1.0 - lam * (1.0 - one_minus_v))

        # the integrand falls like e^((1 - beta)*y): by y = 50 it is below 1e-150
        tail = sp_integrate.quad(integrand, 0.0, 50.0, epsabs=0.0, epsrel=1e-13, limit=500)[0]
        return alpha + tail

    def test_gtp1_mean_reference(self):
        assert self._gtp1_mean(**self.GTP1) == pytest.approx(self.MEAN, rel=1e-12)

    def test_gtp1_mean_near_the_low_end(self):
        m = make_model("gtp1", **self.GTP1)
        assert properties.raw_moment(m, 1) == pytest.approx(self.MEAN, rel=1e-8)

    def test_gtb12_mgf_where_the_mass_lies_far_below_q75(self):
        # Q(0.5) = 5.3e78 and Q(0.75) = 1.9e107: integrated in x, split at
        # Q(0.75), the MGF came out 0.0 with no error; the reference is a
        # 40-digit mpmath quadrature over the levels
        m = make_model(
            "gtb12", beta=0.05105576804358169, theta=6.95057116733524,
            lam=0.24099823442560298, alpha=0.23728572867645847,
        )
        assert properties.mgf(m, -0.4605611843168358) == pytest.approx(GTB12_MGF, rel=1e-8)

    def test_gtp1_mgf_at_minus_one(self):
        # integrated in x, this came out 0.0699385177130888 with no error;
        # the reference is a 30-digit mpmath quadrature
        m = make_model(
            "gtp1", alpha=2.4875061977714163, beta=3.313652297271072,
            theta=0.3130678511947198, lam=0.41499113467435467,
        )
        assert properties.mgf(m, -1.0) == pytest.approx(0.069940157460629601, rel=1e-12)

    @pytest.mark.parametrize("t", [20.0, 25.0, 30.0, 100.0])
    def test_exponential_residual_moment_far_in_the_tail(self, t):
        # E[(X - t)^2 | X > t] = 2 at every t for the unit exponential; taken
        # in x to an absolute bound and divided by S(t), it came out
        # 1.99999999, 1.9527, 1.7020 and 3.0121
        assert properties.residual_moment(exp_model(1.0), 2, t) == pytest.approx(2.0, rel=1e-12)


class TestCigf:
    def test_exponential_beta_function(self):
        # With u = F: integral F^m S^n dx = B(m+1, n)/beta for n >= 1.
        for beta in (1.0, 2.0):
            m = exp_model(beta)
            for mm, nn in ((1, 1), (2, 1), (1.5, 2.0)):
                want = sp.beta(mm + 1, nn) / beta
                assert properties.cigf(m, mm, nn) == pytest.approx(want, rel=1e-7)

    def test_survival_only_marginal(self):
        # integral of S^n alone is the mean for n=1
        m = exp_model(2.0)
        assert properties.cigf(m, 0, 1) == pytest.approx(0.5, rel=1e-8)

    def test_cdf_only_marginal_diverges(self):
        with pytest.raises(properties.DivergenceError):
            properties.cigf(exp_model(), 1, 0)


# the gtw model of benchmarks/bench_kernels.py
BENCH_MODEL = make_model("gtw", beta=0.5, theta=1.2, lam=-0.3, alpha=1.5)


def _catalog(m, props=properties):
    """Every quadrature property at fixed arguments: value, or the error's type."""
    med = m.quantile(0.5)
    calls = [
        (props.raw_moment, (1,)),
        (props.raw_moment, (2,)),
        (props.incomplete_moment, (2, med)),
        (props.pwm, (1, 1)),
        (props.mgf, (-0.5,)),
        (props.renyi_entropy, (0.5,)),
        (props.renyi_entropy, (2.0,)),
        (props.q_entropy, (0.5,)),
        (props.q_entropy, (2.0,)),
        (props.residual_moment, (1, med)),
        (props.reversed_residual_moment, (1, med)),
        (props.cigf, (1, 1)),
    ]
    out = []
    for fn, args in calls:
        try:
            out.append(np.float64(fn(m, *args)).tobytes())
        except ArithmeticError as exc:
            out.append(type(exc))
    return out


def _count_integrand_calls(monkeypatch):
    """Count every integrand call the quadrature driver makes from now on."""
    drive = numerics.integrate_ranges
    calls = []

    def counting(f, *rest, **kwargs):
        def counted(*parts):
            calls.append(len(parts))
            return f(*parts)

        return drive(counted, *rest, **kwargs)

    monkeypatch.setattr(numerics, "integrate_ranges", counting)
    return calls


class TestQuadratureRule:
    def test_catalog_matches_per_level_rule(self, family):
        # the lock-step catalog against the former composition of
        # separate calls of the one-call-per-level rule
        m = model_from_params(
            family, _light_tail(random_params(family, np.random.default_rng(17)))
        )
        assert _catalog(m) == _catalog(m, Composition(per_level_integrate))

    @pytest.mark.parametrize(
        "fn, args",
        [
            (properties.raw_moment, (2,)),
            (properties.renyi_entropy, (0.5,)),
            (properties.cigf, (1, 1)),
            (properties.mgf, (-0.5,)),
            (properties.q_entropy, (2,)),
        ],
        ids=["raw_moment", "renyi", "cigf", "mgf", "q_entropy"],
    )
    def test_integrand_calls(self, fn, args, monkeypatch):
        # the level range and the survival-level range both converge within
        # the first call's levels
        calls = _count_integrand_calls(monkeypatch)
        fn(BENCH_MODEL, *args)
        assert calls == [2]

    @pytest.mark.parametrize(
        "params",
        [
            dict(alpha=2.6695, beta=1.0909, theta=1.7512, lam=-0.6366),
            dict(alpha=1.5, beta=1.0, theta=1.2, lam=0.3),
        ],
    )
    def test_first_call_serves_both_ranges(self, params, monkeypatch):
        m = make_model("gtw", **params)
        seen = _count_integrand_calls(monkeypatch)
        properties.raw_moment(m, 1)
        assert seen == [2]  # the nodes of each range, both within h = 1/16

    def test_predicted_divergence_makes_no_integrand_call(self, monkeypatch):
        m = make_model("gtl", beta=0.8, theta=1.0, lam=0.0, alpha=1.0)
        seen = _count_integrand_calls(monkeypatch)
        with pytest.raises(properties.DivergenceError, match="tail"):
            properties.raw_moment(m, 2)
        assert seen == []


# -- the quantile memo ---------------------------------------------------------


LOG_F_CALLERS = ("renyi_entropy", "q_entropy", "cigf")


class _Memo:
    """The quantile memo's entry count, and a way to empty it."""

    clear = staticmethod(properties._memo_entry.cache_clear)

    def __len__(self):
        return properties._memo_entry.cache_info().currsize


@pytest.fixture
def memo():
    """The quantile memo, empty at the start and at the end of the test."""
    _Memo.clear()
    yield _Memo()
    _Memo.clear()


def _record_models(family):
    """The property record's models of ``family``: its three fixed parameter
    sets and its two seeded ones."""
    sets = [*zip(golden_model.SETS, golden_model.SHAPES[family]),
            *golden_model._seeded_sets(family)]
    return [make_model(family, beta=b, theta=t, lam=lam, **dict(shape))
            for (b, t, lam), shape in sets]


def _outcomes(m, calls, memo=None):
    """Each call's outcome on m, in order; on an emptied memo each, if given."""
    out = {}
    for label, name, args, kwargs in calls:
        if memo is not None:
            memo.clear()
        out[label] = outcome(getattr(properties, name), m, *args, **kwargs)
    return out


class TestQuantileMemo:
    def test_same_bytes_in_either_order(self, family, memo):
        for m in _record_models(family):
            calls = golden_model.property_calls(m)
            fresh = _outcomes(m, calls, memo)
            log_f_first = sorted(calls, key=lambda call: call[1] not in LOG_F_CALLERS)
            q_first = sorted(calls, key=lambda call: call[1] in LOG_F_CALLERS)
            assert log_f_first[0][1] in LOG_F_CALLERS and q_first[0][1] not in LOG_F_CALLERS
            for order in (log_f_first, q_first):
                memo.clear()
                assert _outcomes(m, order) == fresh, (m, order[0][0])

    @pytest.mark.parametrize(
        "first, second, shared",
        [
            (dict(beta=1.3), dict(beta=math.nextafter(1.3, 2.0)), False),
            (dict(beta=1.3, lam=0.0), dict(beta=1.3, lam=-0.0), False),
            (dict(beta=1.3, lam=-0.0), dict(beta=1.3, lam=0.0), False),
            (dict(beta=2), dict(beta=2.0), False),
            (dict(beta=2.0), dict(beta=2), False),
            # the model holds its shapes as floats
            (dict(beta=1.3, alpha=2), dict(beta=1.3, alpha=2.0), True),
        ],
        ids=["beta-ulp", "lam-0-then-minus-0", "lam-minus-0-then-0", "int-beta",
             "float-beta", "int-alpha"],
    )
    def test_twin_gets_its_own_bytes(self, first, second, shared, memo):
        def model(p):
            return make_model("gtw", **{"theta": 1.4, "lam": 0.3, "alpha": 1.7, **p})

        calls = golden_model.property_calls(model(second))
        fresh = _outcomes(model(second), calls, memo)
        memo.clear()
        _outcomes(model(first), calls)
        entries = len(memo)
        assert _outcomes(model(second), calls) == fresh
        # the key takes the kernel arguments by type and exact bits
        assert len(memo) == (entries if shared else 2 * entries) < properties._QUANTILE_MEMO

    def test_repeated_call_solves_no_quantile(self, memo, monkeypatch):
        core, inverse = _kernels._quantile_core, _kernels._g_inverse
        seen = []
        solves = []

        def counting(*args):
            seen.append(len(args) > 8 and args[8] is True)  # whether log f was asked for
            return core(*args)

        def solving(*args):
            solves.append(args[0])
            return inverse(*args)

        monkeypatch.setattr(_kernels, "_quantile_core", counting)
        monkeypatch.setattr(_kernels, "_g_inverse", solving)
        properties.raw_moment(BENCH_MODEL, 1)
        assert seen == [False]  # a miss computes Q alone
        assert len(solves) == 1
        properties.pwm(BENCH_MODEL, 1, 1)
        properties.mgf(BENCH_MODEL, -0.5)
        assert seen == [False]
        properties.renyi_entropy(BENCH_MODEL, 0.5)
        assert seen == [False, True]  # which upgrades the entry
        assert len(solves) == 1  # on the Q it holds, with no second solve
        properties.q_entropy(BENCH_MODEL, 2.0)
        properties.cigf(BENCH_MODEL, 1, 1)
        properties.raw_moment(BENCH_MODEL, 1)
        assert seen == [False, True]
        assert len(solves) == 1

    @pytest.mark.parametrize("log_f", [False, True])
    @pytest.mark.parametrize("warm", [False, True], ids=["miss", "hit"])
    def test_handed_arrays_are_read_only(self, log_f, warm, memo):
        def writes_q(p, lv, q, lf):
            q[0] = 1.0

        def writes_log_f(p, lv, q, lf):
            lf[0] = 0.0

        if warm:
            properties.renyi_entropy(BENCH_MODEL, 0.5)
        for log_h in (writes_q, writes_log_f) if log_f else (writes_q,):
            with pytest.raises(ValueError, match="read-only"):
                properties._over_levels(BENCH_MODEL, log_h, 0.0, log_f=log_f)

    def test_parts_of_a_finished_call_are_not_hits(self, memo):
        # incomplete moments up to ever new levels: each maps new nodes,
        # while the node maps of the calls before leave numerics' cache;
        # an array that took over a freed part's id must not hit
        m = make_model("gtw", beta=1.3, theta=1.4, lam=0.3, alpha=1.7)
        calls = [(f"z={z}", "incomplete_moment", (1, z), {}) for z in np.linspace(0.3, 1.2, 48)]
        fresh = _outcomes(m, calls, memo)
        memo.clear()
        assert _outcomes(m, calls) == fresh

    def test_bounded(self, memo):
        for i in range(properties._QUANTILE_MEMO + 8):
            properties.raw_moment(make_model("gte", beta=1.0 + i / 64, theta=1.3, lam=0.2), 1)
            assert len(memo) <= properties._QUANTILE_MEMO
        assert len(memo) == properties._QUANTILE_MEMO

    def test_threads_get_their_own_bytes(self, memo):
        # more threads than cores, switching often, on four models that
        # share the memo: each call still gets its model's own bytes
        models = [make_model("gtmw", beta=0.5 + i / 8, theta=1.2, lam=-0.3, alpha=1.5,
                             gamma=0.3) for i in range(4)]
        calls = golden_model.property_calls(models[0])
        fresh = [_outcomes(m, calls, memo) for m in models]
        memo.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(_outcomes, m, calls) for m in models * 4]
                got = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == fresh * 4
        assert len(memo) <= properties._QUANTILE_MEMO
