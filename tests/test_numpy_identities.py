"""NumPy identities that bit-for-bit results rest on.

The ml gradient writes the per-point rows it sums (the log f terms, the
d log G' / d psi, a, log u and d log f / d lam) into one C-contiguous
(rows, n) block and reduces them with a single ``sum(axis=1)``.  That gives
the bytes of the separate 1-D sums only while NumPy reduces each row of
such a block with the same pairwise summation as a 1-D sum.  A NumPy
upgrade that breaks this, or the equality of ``np.dot`` and ``@`` on
vectors, fails here instead of silently moving the study tables.

The property integrals evaluate the kernels' quantile core once on the
concatenated nodes of their two ranges of levels, p and the log survival
level.  That gives each range the bytes of separate calls only while the
core is elementwise to the bit: no element's value may depend on the
array's length or on where the element sits in it (SIMD loops and their
remainder handling included).  The same is asked of the model's pdf,
logpdf, cdf and survival.  And ``quantile`` and ``sample`` are the core
on their levels, which must give their bytes.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from gtld import _kernels, numerics
from gtld.model import SUBFAMILY_IDS, model_from_params

from conftest import random_params


def _values(rng, shape, spread):
    """Signed values over 2 * spread decades, so that any change in the
    order of summation changes the rounded result."""
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-spread, spread, shape)


@settings(max_examples=150, deadline=None)
@given(
    n=hs.integers(1, 5000),
    rows=hs.integers(1, 9),
    seed=hs.integers(0, 2**32 - 1),
    spread=hs.floats(0.0, 30.0),
)
def test_block_row_sums_equal_1d_sums(n, rows, seed, spread):
    rng = np.random.default_rng(seed)
    block = _values(rng, (rows, n), spread)
    block[rng.integers(rows)] = -0.0  # a zero row keeps its sign
    assert block.flags.c_contiguous
    sums = block.sum(axis=1)
    for i in range(rows):
        assert sums[i].tobytes() == block[i].sum().tobytes(), (n, rows, i)


@settings(max_examples=150, deadline=None)
@given(n=hs.integers(2, 5000), seed=hs.integers(0, 2**32 - 1), spread=hs.floats(0.0, 30.0))
def test_dot_equals_matmul_on_vectors(n, seed, spread):
    # from n = 2: at n = 1 np.dot returns the lone product, sign of a zero
    # included, where @ adds it to +0.0 (np.dot([-0.0], [1.0]) is -0.0,
    # [-0.0] @ [1.0] is 0.0), so the kernel keeps @ for its 1-D products
    rng = np.random.default_rng(seed)
    a, b = _values(rng, n, spread), _values(rng, n, spread)
    assert np.dot(a, b).tobytes() == (a @ b).tobytes(), n


def _level_parts(m):
    """The parts one driver call hands a property's integrand: the first
    block of nodes of the level range and of the survival-level range, the
    latter as the log levels the core takes."""
    seen = []

    def record(*parts):
        seen.append([p.copy() for p in parts])
        return 0.0

    numerics.integrate_ranges(record, [(0.0, 0.75), (0.0, 0.25)])
    p, v = seen[0]
    return p, np.log(v)


def _same_bytes_on_concatenation(m, parts):
    functions = {
        "pdf": m.pdf,
        "logpdf": m.logpdf,
        "cdf": m.cdf,
        "survival": m.survival,
    }
    stops = np.cumsum([p.size for p in parts]).tolist()
    whole = np.concatenate(parts)
    with np.errstate(all="ignore"):
        for name, fn in functions.items():
            joint = np.asarray(fn(whole))
            for part, stop in zip(parts, stops):
                piece = joint[stop - part.size : stop]
                assert piece.tobytes() == np.asarray(fn(part)).tobytes(), (name, part.size)


@pytest.mark.parametrize("family", sorted(SUBFAMILY_IDS))
def test_quantile_core_on_the_quadrature_parts(family):
    # Q and log f at the levels and the log survival levels together, and
    # at each alone
    m = model_from_params(family, random_params(family, np.random.default_rng(5)))
    p, lv = _level_parts(m)
    empty = np.empty(0)
    with np.errstate(all="ignore"):
        joint = _kernels._quantile_core(*m.kernel_args, p, lv, True)
        alone = [_kernels._quantile_core(*m.kernel_args, p, empty, True),
                 _kernels._quantile_core(*m.kernel_args, empty, lv, True)]
    for j, name in enumerate(("Q", "log f")):
        assert joint[j].tobytes() == np.concatenate([a[j] for a in alone]).tobytes(), name


@pytest.mark.parametrize("family", sorted(SUBFAMILY_IDS))
@settings(max_examples=25, deadline=None)
@given(
    sizes=hs.lists(hs.integers(1, 700), min_size=2, max_size=4),
    seed=hs.integers(0, 2**32 - 1),
)
def test_distribution_functions_on_concatenations(family, sizes, seed):
    # points from the support edge to far in the tail: quantiles spread
    # over (0, 1), stretched by up to 8 from the support's lower end
    rng = np.random.default_rng(seed)
    m = model_from_params(family, random_params(family, rng))
    low = m.support_low
    parts = []
    for n in sizes:
        q = m.quantile(rng.uniform(1e-12, 1.0 - 1e-9, n))
        parts.append(low + (q - low) * rng.uniform(0.1, 8.0, n))
    _same_bytes_on_concatenation(m, parts)


def _random_models(family, count=40):
    rng = np.random.default_rng([sorted(SUBFAMILY_IDS).index(family), 40])
    return [model_from_params(family, random_params(family, rng)) for _ in range(count)]


@pytest.mark.parametrize("family", sorted(SUBFAMILY_IDS))
def test_quantile_core_gives_quantile_and_sample_bytes(family):
    # the core at the levels alone, at quadrature nodes, at a scalar
    # quantile's one-element array and at sample's uniform draws
    for m in _random_models(family):
        p = _level_parts(m)[0]
        with np.errstate(all="ignore"):
            core = _kernels._quantile_core(*m.kernel_args, p)
            at_mid = _kernels._quantile_core(*m.kernel_args, np.array([0.75]))
            draws = _kernels._quantile_core(
                *m.kernel_args, np.maximum(np.random.default_rng(3).random(7), 1e-300)
            )
        assert core.tobytes() == m.quantile(p).tobytes(), m.params
        assert at_mid.tobytes() == np.float64(m.quantile(0.75)).tobytes(), m.params
        if np.isfinite(draws).all():
            assert draws.tobytes() == m.sample(7, seed=3).tobytes(), m.params
