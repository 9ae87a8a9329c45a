import math

import numpy as np
import pytest
import scipy.special as sp

from gtld import numerics
from gtld.numerics import (
    NumericsError,
    QuadratureError,
    QuadratureSpec,
    SeriesError,
    SeriesSpec,
    gamma_fn,
    integrate,
    lower_incomplete_gamma,
    sum_series,
)


class TestGamma:
    def test_matches_math_gamma(self):
        for s in (0.5, 1.0, 2.5, 7.0):
            assert gamma_fn(s) == pytest.approx(math.gamma(s), rel=1e-14)

    def test_pole_raises(self):
        with pytest.raises(NumericsError):
            gamma_fn(0.0)
        with pytest.raises(NumericsError):
            gamma_fn(-2.0)

    def test_incomplete_pieces_sum_to_gamma(self):
        for s in (0.3, 1.0, 4.2):
            for z in (0.1, 1.0, 10.0):
                upper = float(sp.gammaincc(s, z)) * math.gamma(s)
                total = lower_incomplete_gamma(s, z) + upper
                assert total == pytest.approx(math.gamma(s), rel=1e-12)

    def test_lower_incomplete_at_zero(self):
        assert lower_incomplete_gamma(2.0, 0.0) == 0.0

    def test_lower_incomplete_matches_scipy(self):
        # both branches (series below x = s + 1, continued fraction above)
        # against scipy.special as the oracle
        s = np.geomspace(0.05, 60.0, 40)[:, None]
        x = np.concatenate([[0.0], np.geomspace(1e-6, 500.0, 60), np.linspace(0.5, 70.0, 40)])
        ref = sp.gammainc(s, x) * sp.gamma(s)
        got = np.array([[lower_incomplete_gamma(float(si), float(xj)) for xj in x] for si in s[:, 0]])
        keep = ref >= 1e-290
        np.testing.assert_allclose(got[keep], ref[keep], rtol=1e-12, atol=0)

    def test_lower_incomplete_far_tail_is_gamma(self):
        assert lower_incomplete_gamma(0.5, 1e9) == math.gamma(0.5)

    def test_lower_incomplete_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            lower_incomplete_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            lower_incomplete_gamma(1.0, -1.0)


class TestIntegrate:
    def test_finite_interval(self):
        val = integrate(lambda x: x * x, 0.0, 1.0)
        assert val == pytest.approx(1 / 3, abs=1e-12)

    def test_semi_infinite(self):
        val = integrate(lambda x: np.exp(-x), 0.0, math.inf)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_gaussian_tail(self):
        val = integrate(lambda x: np.exp(-x * x / 2), 0.0, math.inf)
        assert val == pytest.approx(math.sqrt(math.pi / 2), rel=1e-8)

    def test_spec_tolerances_respected(self):
        spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-10)
        val = integrate(lambda x: np.sin(x), 0.0, math.pi, spec=spec)
        assert val == pytest.approx(2.0, abs=1e-10)

    def test_hard_integrand_raises_with_estimate(self):
        # A divergent integral must raise, carrying the last estimate and its bound.
        with pytest.raises(QuadratureError) as err:
            integrate(lambda x: 1.0 / x, 0.0, 1.0)
        assert hasattr(err.value, "estimate")
        assert hasattr(err.value, "error_bound")

    def test_endpoint_singularity(self):
        val = integrate(lambda x: x**-0.5, 0.0, 1.0)
        assert val == pytest.approx(2.0, abs=1e-10)

    def test_heavy_tail(self):
        val = integrate(lambda x: x**2 * (1.0 + x) ** -4.5, 0.0, math.inf)
        assert val == pytest.approx(16 / 105, rel=1e-8)

    def test_nan_at_interior_node_raises(self):
        # x = 0.5 (t = 1/2) is the level-0 node s = 0 of every rule on (0, 1)
        with pytest.raises(QuadratureError, match=r"x = 0\.5 \(level h = 1\.0\)"):
            integrate(lambda x: np.where(x == 0.5, np.nan, x), 0.0, 1.0)

    def test_bad_limits_rejected(self):
        for lower, upper in ((1.0, 0.0), (-math.inf, 0.0)):
            with pytest.raises(ValueError):
                integrate(np.exp, lower, upper)
        assert integrate(np.exp, 1.0, 1.0) == 0.0

    @pytest.mark.parametrize("lower, upper", [(1.0, 2.0), (0.0, 1.0), (1.0, math.inf)])
    def test_no_node_at_an_endpoint(self, lower, upper):
        seen = []

        def f(x):
            seen.append(np.array(x))
            return np.exp(-x)

        integrate(f, lower, upper)
        xs = np.concatenate(seen)
        assert xs.min() > lower
        assert xs.max() < upper


def per_level_integrate(f, lower, upper, spec=None):
    """The rule as it was with one integrand call per level: the oracle.

    ``integrate`` evaluates levels 0-4 in one call; every value, estimate
    and error bound it returns must equal this loop's to the last bit.
    """
    spec = spec or QuadratureSpec()
    if not lower <= upper or math.isinf(lower):
        raise ValueError(f"integrate needs finite lower <= upper, got ({lower}, {upper})")
    if lower == upper:
        return 0.0
    fold = math.isinf(upper)
    width = upper - lower
    outer_lo = outer_hi = None
    for k, (h, t, omt, w) in enumerate(numerics._TABLES):
        if fold:
            x = lower + t / omt
            jac = w / (omt * omt)
            keep = x > lower
        else:
            x = np.where(t < 0.5, lower + width * t, upper - width * omt)
            jac = width * w
            keep = (x > lower) & (x < upper)
        if not keep.all():
            x, jac, t, omt = x[keep], jac[keep], t[keep], omt[keep]
        with np.errstate(all="ignore"):
            terms = np.asarray(f(x), dtype=float) * jac
        bad = ~np.isfinite(terms)
        if bad.any():
            if (np.minimum(t, omt)[bad] >= numerics._T_EDGE).any():
                raise QuadratureError(
                    "integrand not finite inside the range", estimate=None, error_bound=None
                )
            terms[bad] = 0.0
        if terms.size:
            if outer_lo is None or t[0] <= outer_lo[0]:
                outer_lo = (t[0], float(terms[0]))
            if outer_hi is None or omt[-1] <= outer_hi[0]:
                outer_hi = (omt[-1], float(terms[-1]))
        level = h * float(terms.sum())
        if k == 0:
            total = level
            continue
        prev, total = total, 0.5 * total + level
        outer = h * (abs(outer_lo[1]) + abs(outer_hi[1])) if outer_lo else 0.0
        err = abs(total - prev) + outer
        if err <= max(spec.abs_tol, spec.rel_tol * abs(total)):
            return total
    raise QuadratureError(
        f"quadrature did not converge (estimate {total!r}, error bound {err!r})",
        estimate=total,
        error_bound=err,
    )


def _outcome(rule, f, lower, upper, spec=None):
    """The value's bits, or the error's type, estimate and bound."""
    try:
        return np.float64(rule(f, lower, upper, spec)).tobytes()
    except QuadratureError as exc:
        bound = np.float64(exc.error_bound).tobytes()
        return type(exc), np.float64(exc.estimate).tobytes(), bound


# the node at s = 1/16, which only level 4 adds, on (0, 1) and on (0, inf)
_T4, _OMT4 = (float(a[a.size // 2]) for a in numerics._TABLES[4][1:3])
_LEVEL4_NODE = 1.0 - _OMT4
_LEVEL4_FOLDED = _T4 / _OMT4


def _nan_at_level4(g, node=_LEVEL4_NODE):
    return lambda x: np.where(x == node, np.nan, g(x))


class TestIntegrateMatchesPerLevelRule:
    """``integrate`` against the one-call-per-level oracle, compared bit for bit."""

    @pytest.mark.parametrize(
        "f, lower, upper, spec",
        [
            (lambda x: x * x, 0.0, 1.0, None),
            (lambda x: np.exp(-x), 0.0, math.inf, None),
            (lambda x: np.exp(-x * x / 2), 0.0, math.inf, None),
            (np.sin, 0.0, math.pi, QuadratureSpec(abs_tol=1e-12, rel_tol=1e-10)),
            (np.exp, 1.0, 2.0, None),
            (lambda x: x**-1.5 * np.exp(-1.0 / x), 1.0, math.inf, None),
            # narrow and far-out ranges, where nodes rounding onto an endpoint are dropped
            (lambda x: np.sqrt(x - 1.0), 1.0, 1.0 + 1e-6, None),
            (lambda x: np.exp(1e8 - x), 1e8, math.inf, None),
            (lambda x: x**-0.5, 0.0, 1.0, None),
            (lambda x: x**2 * (1.0 + x) ** -4.5, 0.0, math.inf, None),
            (lambda x: 2.0, 0.0, 3.0, None),
            (lambda x: 1.0 / x, 0.0, 1.0, None),
            (_nan_at_level4(lambda x: x * x), 0.0, 1.0, None),
        ],
        ids=[
            "square", "exp-tail", "gaussian-tail", "sin-spec", "finite", "folded",
            "narrow", "far-fold", "endpoint-singularity", "heavy-tail", "scalar",
            "divergent", "nan-unused-level",
        ],
    )
    def test_same_bits(self, f, lower, upper, spec):
        assert _outcome(integrate, f, lower, upper, spec) == _outcome(
            per_level_integrate, f, lower, upper, spec
        )

    def test_narrow_range_drops_nodes(self):
        sizes = []

        def f(x):
            sizes.append(x.size)
            return np.sqrt(x - 1.0)

        integrate(f, 1.0, 1.0 + 1e-6)
        assert 0 < sizes[0] < numerics._BLOCKS[0][0].size

    def test_divergent_error_matches(self):
        with pytest.raises(QuadratureError) as new:
            integrate(lambda x: 1.0 / x, 0.0, 1.0)
        with pytest.raises(QuadratureError) as old:
            per_level_integrate(lambda x: 1.0 / x, 0.0, 1.0)
        assert new.value.estimate == old.value.estimate
        assert new.value.error_bound == old.value.error_bound
        assert str(new.value) == str(old.value)

    def test_nan_in_a_level_never_consumed_is_ignored(self):
        seen = []
        f = _nan_at_level4(lambda x: x * x)

        def logged(x):
            seen.append(x.copy())
            return f(x)

        assert per_level_integrate(lambda x: x * x, 0.0, 1.0) == integrate(logged, 0.0, 1.0)
        assert len(seen) == 1 and _LEVEL4_NODE in seen[0]

    def test_nan_in_a_consumed_level_raises(self):
        # exp(-x) on (0, inf) needs level 5, so a NaN at level 4 is used
        f = _nan_at_level4(lambda x: np.exp(-x), node=_LEVEL4_FOLDED)
        with pytest.raises(QuadratureError):
            per_level_integrate(f, 0.0, math.inf)
        with pytest.raises(QuadratureError, match=r"x = .* \(level h = 0\.0625\)"):
            integrate(f, 0.0, math.inf)


def _seen_and_outcome(f, lower, upper):
    """The bytes of every node ``f`` was handed, and the outcome's bits."""
    seen = []

    def logged(x):
        seen.append(x.tobytes())
        return f(x)

    return seen, _outcome(integrate, logged, lower, upper)


def _evict():
    """Integrate over more new ranges than the node-map cache holds."""
    for k in range(numerics._NODE_MAPS + 1):
        integrate(np.exp, 0.0, 2.0 + k)
        assert numerics._node_map.cache_info().currsize <= numerics._NODE_MAPS


class TestNodeMapCache:
    """Node maps are memoized per (lower, upper, block): the bits of an
    integral do not depend on whether its maps were cached, and the maps
    are read-only."""

    @pytest.mark.parametrize(
        "f, lower, upper",
        [
            (lambda x: np.sqrt(x - 1.0), 1.0, 1.0 + 1e-6),  # drops nodes
            (lambda x: np.exp(1e8 - x), 1e8, math.inf),  # folded, drops nodes
            (lambda x: x**-0.5, 0.0, 1.0),
            (lambda x: x**-0.5, -0.0, 1.0),
            (lambda x: np.exp(-x), 0.0, math.inf),
            (lambda x: np.exp(-x), -0.0, math.inf),
        ],
        ids=["narrow", "far-fold", "zero", "negative-zero", "fold-zero", "fold-negative-zero"],
    )
    def test_same_bits_on_miss_hit_and_after_eviction(self, f, lower, upper):
        numerics._node_map.cache_clear()
        miss = _seen_and_outcome(f, lower, upper)
        hits = numerics._node_map.cache_info().hits
        assert _seen_and_outcome(f, lower, upper) == miss
        assert numerics._node_map.cache_info().hits > hits
        _evict()
        assert _seen_and_outcome(f, lower, upper) == miss
        assert miss[1] == _outcome(per_level_integrate, f, lower, upper)

    @pytest.mark.parametrize("upper", [1.0, math.inf])
    def test_zero_and_negative_zero_share_a_map(self, upper):
        # 0.0 == -0.0, so one cache entry serves both: each must give the
        # bits it gives on its own map
        f = lambda x: np.exp(-x) * x**-0.5  # noqa: E731
        numerics._node_map.cache_clear()
        alone = _seen_and_outcome(f, -0.0, upper)
        numerics._node_map.cache_clear()
        _seen_and_outcome(f, 0.0, upper)
        assert _seen_and_outcome(f, -0.0, upper) == alone

    def test_an_integrand_that_writes_into_its_nodes_is_refused(self):
        f = lambda x: x * x  # noqa: E731
        before = _seen_and_outcome(f, 0.0, 1.0)

        def writes(x):
            x[:] = 0.5
            return x

        def writes_second(p, v):
            v *= 2.0
            return np.concatenate([p, v])

        with pytest.raises(ValueError, match="read-only"):
            integrate(writes, 0.0, 1.0)
        with pytest.raises(ValueError, match="read-only"):
            numerics.integrate_ranges(writes_second, [(0.0, 1.0), (1.0, math.inf)])
        assert _seen_and_outcome(f, 0.0, 1.0) == before
        assert numerics.integrate_ranges(
            lambda p, v: np.concatenate([p, np.exp(-v)]), [(0.0, 1.0), (1.0, math.inf)]
        ) == [integrate(lambda x: x, 0.0, 1.0), integrate(lambda x: np.exp(-x), 1.0, math.inf)]

    def test_cache_never_holds_more_than_its_size(self):
        numerics._node_map.cache_clear()
        for k in range(3 * numerics._NODE_MAPS):
            integrate(lambda x: np.exp(-x), float(k), math.inf)
            integrate(lambda x: np.exp(-x), 0.0, 1.0 + k)
            assert numerics._node_map.cache_info().currsize <= numerics._NODE_MAPS
        assert numerics._node_map.cache_info().maxsize == numerics._NODE_MAPS


class TestSumSeries:
    def test_geometric(self):
        val = sum_series(lambda k: 0.5**k)
        assert val == pytest.approx(2.0, abs=1e-10)

    def test_alternating(self):
        # sum (-1)^k / k! = 1/e
        val = sum_series(lambda k: (-1) ** k / math.gamma(k + 1))
        assert val == pytest.approx(math.exp(-1), abs=1e-10)

    def test_divergent_raises(self):
        spec = SeriesSpec(tail_tol=1e-12, max_terms=500)
        with pytest.raises(SeriesError):
            sum_series(lambda k: 1.0 / (k + 1), spec=spec)
