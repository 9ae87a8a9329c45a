"""Lock-step quadrature against the same integrals taken one range at a time.

A property integral runs over two ranges of levels, the level p and the
survival level v, in lock step: one call of its integrand serves the
nodes of both.  ``Composition`` runs every property with the driver
replaced by one that integrates each range on its own, through
``numerics.integrate`` or an oracle of it, handing the integrand the
nodes of that range alone: every property must give the lock step's
value to the byte, or raise the same exception type with the same
message, estimate and error bound.
"""

import math

import numpy as np
import pytest

from gtld import numerics, properties
from gtld.model import make_model, model_from_params
from gtld.numerics import QuadratureError, QuadratureSpec

from conftest import random_params

DivergenceError = properties.DivergenceError
_EMPTY = np.empty(0)
_DRIVE = numerics.integrate_ranges  # the lock-step driver, before any patch


def _integrate(f, lower, upper, spec=None):
    """``numerics.integrate``, on the lock-step driver as it is unpatched."""
    (out,) = _DRIVE(f, [(lower, upper)], spec)
    if isinstance(out, QuadratureError):
        raise out
    return out


class Composition:
    """The property functions with each range of levels integrated by its
    own call of ``rule``, the one-range quadrature (``numerics.integrate``
    or an oracle of it), in range order."""

    def __init__(self, rule=None):
        self.rule = rule or _integrate

    def _one_at_a_time(self, f, ranges, spec=None):
        out = []
        for i, (lower, upper) in enumerate(ranges):
            def alone(x, i=i):
                return f(*[x if j == i else _EMPTY for j in range(len(ranges))])

            try:
                out.append(self.rule(alone, lower, upper, spec))
            except QuadratureError as exc:
                out.append(exc)
        return out

    def __getattr__(self, name):
        fn = getattr(properties, name)

        def composed(*args, **kwargs):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(numerics, "integrate_ranges", self._one_at_a_time)
                return fn(*args, **kwargs)

        return composed


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
    """(name, args, kwargs) for every quadrature property: orders, MGF
    arguments of both signs, entropies over the full range and truncated
    below and above Q(0.75), where the level ranges meet, and ages below
    and above it."""
    q10, med, q90 = (m.quantile(p) for p in (0.1, 0.5, 0.9))
    out = [("raw_moment", (r,), {}) for r in (1, 2, 3)]
    out += [("pwm", rs, {}) for rs in ((0, 2), (1, 1), (2, 1))]
    out += [("mgf", (t,), {}) for t in (-1.0, -0.2, 0.05, 0.5)]
    for rho in (0.4, 0.8, 1.5, 3.0):
        out += [
            ("renyi_entropy", (rho,), {}),
            ("renyi_entropy", (rho,), {"lower": q10}),
            ("renyi_entropy", (rho,), {"lower": q90}),  # above Q(0.75)
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
DEGRADED = [
    ("gtb12", 46, "raw_moment"), ("gtw", 32, "renyi_entropy"), ("gte", 311, "renyi_entropy"),
]

# chosen parameter sets: k*theta < 1 (-u), where the density is unbounded
# at the edge and the entropies of high order diverge there; heavy tails,
# where moments of order 2 and 3 diverge; the gtwe set at which the density
# in x overflowed; and the two gtw cases of the call-count test
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

    @pytest.mark.parametrize("family, seed", [(f, s) for f, s, _ in DEGRADED])
    def test_degraded_draws(self, family, seed):
        assert_matches_oracle(seeded_model(family, seed))

    @pytest.mark.parametrize("case", CHOSEN)
    def test_chosen_parameters(self, case):
        assert_matches_oracle(chosen_model(case))

    def test_cases_reach_every_branch(self, monkeypatch):
        # an unbounded density at the edge, an edge divergence, a tail
        # divergence, and each kind of QuadratureError a range can end in
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

        unbounded = chosen_model("gtw-u")
        assert unbounded.edge_order * unbounded.params.theta < 1.0
        assert isinstance(outcome(properties.renyi_entropy, unbounded, 0.8), bytes)
        assert "lower support edge" in outcome(properties.renyi_entropy, unbounded, 3.0)[1]
        heavy = chosen_model("gtl-heavy")
        assert "tail" in outcome(properties.raw_moment, heavy, 2)[1]

    def test_first_range_error_is_raised_first(self):
        # the first range misses its bound (1/x at 0), the second meets a
        # NaN at x = 2, its first node; the first range's error is raised,
        # as when the ranges ran one after the other
        def f(x):
            return np.where(x < 1.0, 1.0 / x, np.where(x == 2.0, np.nan, np.exp(-x)))

        ranges = [(0.0, 1.0), (1.0, math.inf)]
        got = outcome(properties._integrate, lambda *parts: f(np.concatenate(parts)), ranges)
        assert got == outcome(_integrate, f, 0.0, 1.0)
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
