"""Lock-step quadrature against the property composition it replaced.

A split property integral used to run ``numerics.integrate`` on each half
in turn, applying the degraded acceptance to each half.  ``Composition``
keeps that code as the oracle, behind the same analytic tail screen,
``properties._screen_tail``: every property must give its value's bytes,
or raise the same exception type with the same message, estimate and
error bound.
"""

import math

import numpy as np
import pytest

from gtld import numerics, properties
from gtld.model import make_model, model_from_params
from gtld.numerics import QuadratureError, QuadratureSpec

from conftest import random_params

_ACCEPT_REL = 1e-6
DivergenceError = properties.DivergenceError


class Composition:
    """The property integrals as they were composed before the lock-step
    driver; ``rule`` is the one-range quadrature, ``numerics.integrate``
    or an oracle of it."""

    def __init__(self, rule=None):
        self.rule = rule or numerics.integrate

    def _integrate(self, f, lo, hi, spec=None):
        try:
            return self.rule(f, lo, hi, spec)
        except QuadratureError as exc:
            est, err = exc.estimate, exc.error_bound
            if est is not None and err is not None and err <= _ACCEPT_REL * max(
                1.0, abs(est)
            ):
                return est
            raise

    def _integrate_support(self, model, f, lower=None, spec=None):
        lo = model.support_low if lower is None else lower
        mid = model.quantile(0.75)
        if mid <= lo:
            mid = 2.0 * lo + 1.0
        return self._integrate(f, lo, mid, spec) + self._integrate(f, mid, math.inf, spec)

    def raw_moment(self, model, r):
        def integrand(x):
            return x**r * model.pdf(x)

        properties._screen_tail(model, f"raw moment r={r}", r - 1, 1)
        return self._integrate_support(model, integrand)

    def incomplete_moment(self, model, r, z):
        return self._integrate(lambda x: x**r * model.pdf(x), model.support_low, z)

    def pwm(self, model, r, s):
        def integrand(x):
            return x**r * model.cdf(x) ** s * model.pdf(x)

        properties._screen_tail(model, f"pwm r={r}, s={s}", r - 1, 1)
        return self._integrate_support(model, integrand)

    def mgf(self, model, t):
        def integrand(x):
            return np.exp(t * x + model.logpdf(x))

        properties._screen_tail(model, f"mgf t={t}", -1, 1, t)
        return self._integrate_support(model, integrand)

    def _density_power_integral(self, model, rho, lower):
        low = model.support_low
        theta = model.params.theta
        k = model.edge_order
        truncated = lower is not None and lower > low

        def integrand(x):
            return np.exp(rho * model.logpdf(x))

        properties._screen_tail(model, f"density-power integral rho={rho}", -rho, rho)
        if not truncated:
            edge_exp = rho * (k * theta - 1.0)
            if edge_exp <= -1.0:
                raise DivergenceError(
                    f"integral of f^{rho:g} diverges at the lower support edge "
                    f"(local power {edge_exp:.3f} <= -1)"
                )
            if k * theta < 1.0:

                def sub_integrand(w):
                    return np.exp((rho - 1.0) * model.logpdf(model.quantile(w)))

                mid = model.quantile(0.75)
                return self._integrate(sub_integrand, 0.0, 0.75) + self._integrate(
                    integrand, mid, math.inf
                )
            return self._integrate_support(model, integrand)
        return self._integrate_support(model, integrand, lower=lower)

    def renyi_entropy(self, model, rho, lower=None):
        val = self._density_power_integral(model, rho, lower)
        if val <= 0:
            raise DivergenceError("density-power integral evaluated to a non-positive value")
        return math.log(val) / (1.0 - rho)

    def q_entropy(self, model, q, lower=None):
        val = self._density_power_integral(model, q, lower)
        if val >= 1.0:
            raise properties.EntropyDomainError(
                f"integral of f^{q:g} is {val:.6g} >= 1; q-entropy is undefined"
            )
        return math.log1p(-val) / (q - 1.0)

    def residual_moment(self, model, n, t):
        s = model.survival(t)

        def integrand(x):
            return (x - t) ** n * model.pdf(x)

        properties._screen_tail(model, f"residual moment n={n}", n - 1, 1)
        return self._integrate_support(model, integrand, lower=t) / s

    def reversed_residual_moment(self, model, n, t):
        val = self._integrate(lambda x: (t - x) ** n * model.pdf(x), model.support_low, t)
        return val / model.cdf(t)

    def cigf(self, model, m, n):
        def integrand(x):
            return model.cdf(x) ** m * model.survival(x) ** n

        properties._screen_tail(model, f"cigf m={m}, n={n}", 0, n)
        return self._integrate_support(
            model, integrand, spec=QuadratureSpec(abs_tol=1e-12, rel_tol=1e-10)
        )


ORACLE = Composition()


def outcome(fn, *args, **kwargs):
    """The value's bytes, or the error's type, message, estimate and bound."""
    try:
        return np.float64(fn(*args, **kwargs)).tobytes()
    except Exception as exc:
        est, err = getattr(exc, "estimate", None), getattr(exc, "error_bound", None)
        as_bytes = [None if v is None else np.float64(v).tobytes() for v in (est, err)]
        return type(exc), str(exc), *as_bytes


def calls(m):
    """(name, args, kwargs) for every split property and its single-range
    neighbours: orders, MGF arguments of both signs, entropies over the
    full and a truncated range, ages below and above the split point."""
    q10, med, q90 = (m.quantile(p) for p in (0.1, 0.5, 0.9))
    out = [("raw_moment", (r,), {}) for r in (1, 2, 3)]
    out += [("pwm", rs, {}) for rs in ((0, 2), (1, 1), (2, 1))]
    out += [("mgf", (t,), {}) for t in (-1.0, -0.2, 0.05, 0.5)]
    for rho in (0.4, 0.8, 1.5, 3.0):
        out += [
            ("renyi_entropy", (rho,), {}),
            ("renyi_entropy", (rho,), {"lower": q10}),
            ("renyi_entropy", (rho,), {"lower": q90}),  # above the split point
            ("q_entropy", (rho,), {}),
        ]
    out += [("residual_moment", (n, t), {}) for n in (1, 2) for t in (q10, med, q90)]
    out += [("cigf", mn, {}) for mn in ((1, 1), (0, 2), (0.5, 0.7))]
    out += [
        ("incomplete_moment", (2, med), {}),
        ("reversed_residual_moment", (1, med), {}),
    ]
    return out


def assert_matches_oracle(m):
    for name, args, kwargs in calls(m):
        got = outcome(getattr(properties, name), m, *args, **kwargs)
        want = outcome(getattr(ORACLE, name), m, *args, **kwargs)
        assert got == want, (name, args, kwargs, m.params)


# seeded draws whose quadrature ends in each kind of QuadratureError: a
# non-finite integrand, an unmet bound the acceptance rejects, and one it
# accepts
DEGRADED = [("gtp1", 4, "renyi_entropy"), ("gtl", 17, "renyi_entropy"), ("gtp1", 4, "raw_moment")]

# chosen parameter sets: k*theta < 1, where the density is unbounded at the
# edge and the entropies take the u = F(x) branch or diverge there; heavy
# tails, where moments of order 2 and 3 diverge; gtwe's overflowing
# density; and the two gtw cases of the call-count test
CHOSEN = {
    "gtw-u": ("gtw", dict(beta=1.3, theta=0.4, lam=0.2, alpha=1.5)),
    "gte-u": ("gte", dict(beta=0.7, theta=0.55, lam=-0.6)),
    "gtr-u": ("gtr", dict(beta=2.0, theta=0.3, lam=0.9)),
    "gtmw-u": ("gtmw", dict(beta=1.0, theta=0.7, lam=-0.95, alpha=0.9, gamma=0.4)),
    "gtl-heavy": ("gtl", dict(beta=0.8, theta=1.0, lam=0.0, alpha=1.0)),
    "gtp1-heavy": ("gtp1", dict(beta=1.1, theta=2.0, lam=0.5, alpha=0.7)),
    "gtb12-heavy": ("gtb12", dict(beta=1.2, theta=0.8, lam=-0.4, alpha=1.0)),
    "gtwe-overflow": ("gtwe", dict(beta=1.2511, theta=0.72527, lam=0.060553, alpha=1.51371)),
    "gtw-1/32": ("gtw", dict(beta=1.0, theta=1.2, lam=0.3, alpha=1.5)),
    "gtw-1/16": ("gtw", dict(beta=1.0909, theta=1.7512, lam=-0.6366, alpha=2.6695)),
}


def seeded_model(family, seed):
    return model_from_params(family, random_params(family, np.random.default_rng([seed, 11])))


def chosen_model(case):
    family, params = CHOSEN[case]
    return make_model(family, **params)


class TestSameBitsAsSeparateCalls:
    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_parameters(self, family, seed):
        assert_matches_oracle(seeded_model(family, seed))

    def test_rejected_bound(self):
        # the one DEGRADED draw that the seeds above leave out
        assert_matches_oracle(seeded_model("gtl", 17))

    @pytest.mark.parametrize("case", CHOSEN)
    def test_chosen_parameters(self, case):
        assert_matches_oracle(chosen_model(case))

    def test_cases_reach_every_branch(self, monkeypatch):
        # the u = F(x) split, an edge divergence, a tail divergence, and
        # each kind of QuadratureError a half can end in
        kinds = set()
        accept = properties._accept

        def recording(outcome):
            if isinstance(outcome, QuadratureError):
                try:
                    value = accept(outcome)
                except QuadratureError:
                    kinds.add("non-finite" if outcome.estimate is None else "rejected")
                    raise
                kinds.add("accepted")
                return value
            return outcome

        monkeypatch.setattr(properties, "_accept", recording)
        for family, seed, name in DEGRADED:
            m = seeded_model(family, seed)
            for call, args, kwargs in calls(m):
                if call == name:
                    outcome(getattr(properties, call), m, *args, **kwargs)
        assert kinds == {"non-finite", "rejected", "accepted"}

        u_branch = chosen_model("gtw-u")
        assert u_branch.edge_order * u_branch.params.theta < 1.0
        assert isinstance(outcome(properties.renyi_entropy, u_branch, 0.8), bytes)
        assert "lower support edge" in outcome(properties.renyi_entropy, u_branch, 3.0)[1]
        heavy = chosen_model("gtl-heavy")
        assert "tail" in outcome(properties.raw_moment, heavy, 2)[1]

    def test_lower_half_error_is_raised_first(self):
        # the lower half misses its bound (1/x at 0), the upper one meets a
        # NaN at x = 2, its first node; the lower half's error is raised, as
        # when the halves ran one after the other
        def f(x):
            return np.where(x < 1.0, 1.0 / x, np.where(x == 2.0, np.nan, np.exp(-x)))

        ranges = [(0.0, 1.0), (1.0, math.inf)]
        got = outcome(properties._integrate, properties._on_parts(f), ranges, None)
        want = outcome(lambda: ORACLE._integrate(f, 0.0, 1.0) + ORACLE._integrate(f, 1.0, math.inf))
        assert got == want
        assert got[0] is QuadratureError and "did not converge" in got[1]

    def test_tail_verdict_comes_before_the_edge_verdict(self):
        # f^3 diverges at the edge here (k*theta = 0.6), and no rho makes
        # f^rho diverge at both ends (the edge needs rho > 1, the tail
        # rho < 1); so the tail's screen is made to fail, and its verdict
        # must still be the one raised, by the property and by the oracle
        m = chosen_model("gtw-u")
        assert "lower support edge" in outcome(properties.renyi_entropy, m, 3.0)[1]

        def failing(model, what, e, n, t=0.0):
            raise DivergenceError(f"{what}: tail")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(properties, "_screen_tail", failing)
            got = outcome(properties.renyi_entropy, m, 3.0)
            assert got == outcome(ORACLE.renyi_entropy, m, 3.0)
        assert got[1] == "density-power integral rho=3.0: tail"


def _separately(f, ranges, spec=None):
    """Each range through ``numerics.integrate``: value bits, or the error."""
    out = []
    for lower, upper in ranges:
        try:
            out.append(np.float64(numerics.integrate(f, lower, upper, spec)).tobytes())
        except QuadratureError as exc:
            out.append((str(exc), exc.estimate, exc.error_bound))
    return out


def _together(f, ranges, spec=None):
    out = numerics.integrate_ranges(lambda *parts: f(np.concatenate(parts)), ranges, spec)
    return [
        (str(o), o.estimate, o.error_bound) if isinstance(o, QuadratureError)
        else np.float64(o).tobytes()
        for o in out
    ]


class TestDriver:
    RANGES = [(0.0, 1.5), (1.5, math.inf), (2.0, 2.0), (0.3, 0.3 + 1e-7), (0.0, 1e-3)]

    @pytest.mark.parametrize(
        "f",
        [
            lambda x: np.exp(-x),
            lambda x: x**-0.5 * np.exp(-x),
            lambda x: 1.0 / (1.0 + x) ** 1.5,  # slow tail: more levels
            lambda x: 1.0 / x,  # diverges at 0: an unmet bound
            lambda x: np.where(x == 0.75, np.nan, x),  # NaN at an inner node
        ],
        ids=["exp", "endpoint", "slow-tail", "divergent", "nan"],
    )
    def test_ranges_match_separate_integrals(self, f):
        assert _together(f, self.RANGES) == _separately(f, self.RANGES)
        spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12)
        assert _together(f, self.RANGES, spec) == _separately(f, self.RANGES, spec)

    def test_parts_layout(self):
        seen = []

        def f(*parts):
            seen.append([p.copy() for p in parts])
            return np.exp(-np.concatenate(parts))

        numerics.integrate_ranges(f, [(0.0, 1.0), (1.0, math.inf)])
        assert len(seen) >= 2 and all(len(parts) == 2 for parts in seen)
        # (0, 1) converges within the first call; the tail takes more
        assert seen[0][0].size > 0
        assert all(parts[0].size == 0 for parts in seen[1:])
        assert all(parts[1].size > 0 for parts in seen)

    def test_first_block_error_ends_the_range_after_one_call(self):
        # the range's first block holds a NaN at an inner node: the range
        # ends in a QuadratureError naming it, and no further call is made
        calls = []

        def f(*parts):
            calls.append(1)
            x = np.concatenate(parts)
            return np.where(x == 0.5, np.nan, x)

        (out,) = numerics.integrate_ranges(f, [(0.0, 1.0)])
        assert isinstance(out, QuadratureError) and "x = 0.5" in str(out)
        assert calls == [1]

    def test_scalar_values_broadcast(self):
        out = numerics.integrate_ranges(lambda *parts: 2.0, [(0.0, 1.0), (1.0, 4.0)])
        assert out == [numerics.integrate(lambda x: 2.0, 0.0, 1.0), 6.0]

    def test_no_ranges_make_no_call(self):
        calls = []
        assert numerics.integrate_ranges(lambda *parts: calls.append(parts), []) == []
        assert calls == []

    def test_bad_range_rejected_before_any_call(self):
        def f(*parts):
            raise AssertionError("called")

        for bad in ((1.0, 0.0), (-math.inf, 0.0), (math.nan, 1.0)):
            with pytest.raises(ValueError, match="finite lower <= upper"):
                numerics.integrate_ranges(f, [(0.0, 1.0), bad])
