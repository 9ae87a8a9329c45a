"""Closed-form checks of the benchmark's independent reference.

Run with: python3 -m pytest perfbench/test_reference.py -q
"""

import math

import numpy as np
import pytest
from scipy import special

import reference as ref

FAMILIES = tuple(ref.SHAPES)


def params(fam, rng):
    p = {"beta": rng.uniform(0.5, 2.0), "theta": rng.uniform(0.6, 2.5), "lam": rng.uniform(-0.9, 0.9)}
    for name in ref.SHAPES[fam]:
        p[name] = rng.uniform(0.1, 1.0) if name == "gamma" else rng.uniform(0.8, 2.5)
    if fam in ref.HEAVY_TAILED:
        p["beta"] = rng.uniform(3.0, 5.0)
    return p


def exponential(beta):
    return {"beta": beta, "theta": 1.0, "lam": 0.0}


@pytest.mark.parametrize("beta", [0.5, 1.3, 2.0])
def test_exponential_closed_forms(beta):
    p = exponential(beta)
    x = np.array([0.1, 1.0, 3.0])
    assert np.allclose(ref.cdf("gte", p, x), -np.expm1(-beta * x), rtol=1e-14)
    assert np.allclose(ref.pdf("gte", p, x), beta * np.exp(-beta * x), rtol=1e-14)
    for r in (1, 2, 3):
        assert math.isclose(ref.raw_moment("gte", p, r), math.factorial(r) / beta**r, rel_tol=1e-9)
    for rho in (0.5, 2.0, 3.0):
        want = math.log(rho) / (rho - 1.0) - math.log(beta)
        assert math.isclose(ref.renyi_entropy("gte", p, rho), want, rel_tol=1e-9, abs_tol=1e-12)
    for t in (-1.0, 0.3 * beta, 0.7 * beta):
        assert math.isclose(ref.mgf("gte", p, t), beta / (beta - t), rel_tol=1e-9)
    q = 2.5
    if beta ** (q - 1.0) / q < 1.0:
        want = math.log1p(-(beta ** (q - 1.0)) / q) / (q - 1.0)
        assert math.isclose(ref.q_entropy("gte", p, q), want, rel_tol=1e-9)
    # memoryless: the mean residual life is 1/beta at every age
    assert math.isclose(ref.mean_residual_life("gte", p, 0.7), 1.0 / beta, rel_tol=1e-9)
    t = 1.1
    mean_below = 1.0 / beta - t * math.exp(-beta * t) / -math.expm1(-beta * t)
    assert math.isclose(ref.mean_waiting_time("gte", p, t), t - mean_below, rel_tol=1e-9)
    assert math.isclose(ref.cigf_11("gte", p), 1.0 / (2.0 * beta), rel_tol=1e-9)
    assert math.isclose(ref.pwm_11("gte", p), 3.0 / (4.0 * beta), rel_tol=1e-9)
    assert math.isclose(ref.incomplete_moment("gte", p, 1, 1e6), 1.0 / beta, rel_tol=1e-9)


def test_untransmuted_means():
    """theta = 1, lam = 0 gives textbook baselines with known means."""
    a, b = 1.7, 3.2
    cases = {
        "gtw": (b ** (-1.0 / a) * math.gamma(1.0 + 1.0 / a), {"alpha": a}),  # Weibull
        "gtr": (math.sqrt(math.pi / (2.0 * b)), {}),  # Rayleigh
        "gtl": (a / (b - 1.0), {"alpha": a}),  # Lomax
        "gtp1": (a * b / (b - 1.0), {"alpha": a}),  # Pareto I
        "gtb12": (b * special.beta(b - 1.0 / a, 1.0 + 1.0 / a), {"alpha": a}),  # Burr XII
    }
    for fam, (want, shape) in cases.items():
        p = dict(exponential(b), **shape)
        assert math.isclose(ref.raw_moment(fam, p, 1), want, rel_tol=1e-8), fam


@pytest.mark.parametrize("fam", FAMILIES)
def test_quantile_pdf_and_moments_agree(fam):
    rng = np.random.default_rng(sorted(FAMILIES).index(fam))
    p = params(fam, rng)
    for q in (1e-4, 0.1, 0.5, 0.9, 0.999):
        assert math.isclose(float(ref.cdf(fam, p, ref.quantile(fam, p, q))), q, rel_tol=1e-9)
    x = np.array([ref.quantile(fam, p, q) for q in (0.2, 0.5, 0.8)])
    assert np.allclose(ref.cdf(fam, p, x) + ref.sf(fam, p, x), 1.0, rtol=1e-14)
    h = 1e-6 * x
    slope = (ref.cdf(fam, p, x + h) - ref.cdf(fam, p, x - h)) / (2.0 * h)
    assert np.allclose(ref.pdf(fam, p, x), slope, rtol=1e-6)
    assert math.isclose(ref.integral(fam, p, lambda t: ref.pdf(fam, p, t)), 1.0, rel_tol=1e-9)
    # E[X] two ways: from the density and from the survival function
    low = ref.support_low(fam, p)
    via_pdf = ref.integral(fam, p, lambda t: t * ref.pdf(fam, p, t))
    assert math.isclose(ref.raw_moment(fam, p, 1), via_pdf, rel_tol=1e-8)
    assert ref.raw_moment(fam, p, 1) > low


def test_objectives_at_plotting_positions():
    p = {"alpha": 2.5, "beta": 3.0, "theta": 0.5, "lam": 0.2}
    n = 40
    i = np.arange(1, n + 1)
    at = np.array([ref.quantile("gtwe", p, q) for q in i / (n + 1.0)])
    assert ref.objective("ols", "gtwe", p, at) < 1e-24
    assert ref.objective("wls", "gtwe", p, at) < 1e-20
    mid = np.array([ref.quantile("gtwe", p, q) for q in (2 * i - 1) / (2.0 * n)])
    assert math.isclose(ref.objective("cvm", "gtwe", p, mid), 1.0 / (12.0 * n), rel_tol=1e-9)


def test_ad_splits_into_its_two_tails():
    rng = np.random.default_rng(3)
    p = {"alpha": 1.4, "beta": 0.8, "theta": 1.3, "lam": -0.4}
    x = np.sort(np.array([ref.quantile("gtw", p, q) for q in rng.uniform(0.01, 0.99, 60)]))
    n = x.size
    i = np.arange(1, n + 1)
    F = ref.cdf("gtw", p, x)
    left = -1.5 * n + 2.0 * F.sum() - np.sum((2 * i - 1) * np.log(F)) / n
    total = ref.objective("ad", "gtw", p, x)
    assert math.isclose(total, ref.objective("rtad", "gtw", p, x) + left, rel_tol=1e-10)
    assert math.isclose(ref.objective("ml", "gtw", p, x), -np.sum(np.log(ref.pdf("gtw", p, x))), rel_tol=1e-12)
