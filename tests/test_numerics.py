import math

import pytest
import scipy.special as sp

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


class TestIntegrate:
    def test_finite_interval(self):
        val = integrate(lambda x: x * x, 0.0, 1.0)
        assert val == pytest.approx(1 / 3, abs=1e-12)

    def test_semi_infinite(self):
        val = integrate(lambda x: math.exp(-x), 0.0, math.inf)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_gaussian_tail(self):
        val = integrate(lambda x: math.exp(-x * x / 2), 0.0, math.inf)
        assert val == pytest.approx(math.sqrt(math.pi / 2), rel=1e-8)

    def test_spec_tolerances_respected(self):
        spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-10)
        val = integrate(lambda x: math.sin(x), 0.0, math.pi, spec=spec)
        assert val == pytest.approx(2.0, abs=1e-10)

    def test_hard_integrand_raises_with_estimate(self):
        # A divergent integral must raise, carrying whatever estimate quad got.
        with pytest.raises(QuadratureError) as err:
            integrate(lambda x: 1.0 / x, 0.0, 1.0)
        assert hasattr(err.value, "estimate")
        assert hasattr(err.value, "error_bound")


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
