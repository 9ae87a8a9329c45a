"""NumPy identities that bit-for-bit results rest on.

The ml gradient writes the per-point rows it sums (the log f terms, the
d log G' / d psi, a, log u and d log f / d lam) into one C-contiguous
(rows, n) block and reduces them with a single ``np.add.reduce`` over
axis 1.  That gives the bytes of the separate 1-D sums only while NumPy
reduces each row of such a block with the same pairwise summation as a
1-D sum.  A NumPy upgrade that breaks this, or the equality of ``np.dot``
and ``@`` on vectors, fails here instead of silently moving the study
tables.

A plan's evaluations write every per-point array into the plan's own
buffers (``out=``): rows of one C-contiguous block, two-row slices of it,
a bool block, and small outputs for ``np.add.reduce`` and ``np.matmul``.
That keeps their bytes only while a ufunc, the reduction and the matrix
product give the same bytes into such an ``out`` as into the fresh array
they would make: no loop may depend on where in memory its operands sit.

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


def _specials(rng, shape):
    """Values over 2 * 30 decades of both signs, with zeros of both signs,
    infinities, NaN and subnormals among them."""
    x = _values(rng, shape, 30.0)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e-310, 1.0, 709.8, 745.2])
    at = rng.random(shape) < 0.2
    x[at] = rng.choice(special, int(at.sum()))
    return x


_UNARY = (np.exp, np.log, np.log1p, np.expm1, np.negative, np.square, np.isinf)
_BINARY = (np.add, np.subtract, np.multiply, np.divide, np.maximum, np.fmax, np.less,
           np.greater, np.greater_equal, np.equal)


@settings(max_examples=60, deadline=None)
@given(n=hs.integers(1, 3000), rows=hs.integers(2, 9), seed=hs.integers(0, 2**32 - 1))
def test_ufuncs_into_block_rows_equal_fresh_arrays(n, rows, seed):
    # each ufunc the kernels call, into a row and into a two-row slice of a
    # C-contiguous block at every offset, against its fresh result; its
    # inputs rows of blocks, a reversed row, a 0-d array or a float
    rng = np.random.default_rng(seed)
    x, y = _specials(rng, (rows, n)), _specials(rng, (rows, n))
    at = int(rng.integers(rows - 1))
    block = np.empty((rows, n))
    mask = np.empty((rows, n), dtype=bool)
    zero_d = np.array(rng.choice([0.0, 1.0, 0.6931471805599453, 1e-300, -2.5]))
    with np.errstate(all="ignore"):
        for f in _UNARY:
            out = mask if f is np.isinf else block
            for arg, into in ((x[at], out[at]), (x[at][::-1], out[at]),
                              (x[at:at + 2], out[at:at + 2])):
                assert f(arg, out=into).tobytes() == f(arg).tobytes(), (f, n, at)
        for f in _BINARY:
            out = mask if f in (np.less, np.greater, np.greater_equal, np.equal) else block
            for args in ((x[at], y[at]), (zero_d, x[at]), (x[at], zero_d), (1.5, x[at]),
                         (x[at:at + 2], y[at:at + 2]), (x[at:at + 2], zero_d)):
                into = out[at:at + 2] if max(map(np.ndim, args)) == 2 else out[at]
                assert f(*args, out=into).tobytes() == f(*args).tobytes(), (f, n, at)


@settings(max_examples=100, deadline=None)
@given(
    n=hs.integers(1, 5000),
    rows=hs.integers(1, 9),
    seed=hs.integers(0, 2**32 - 1),
    spread=hs.floats(0.0, 30.0),
)
def test_reduce_and_matmul_into_buffers_equal_fresh_arrays(n, rows, seed, spread):
    # ml's row sums, np.add.reduce into a plan's sums; a row's 1-D sum
    # against that of a fresh copy; and chain @ v into a plan's output, the
    # chain rows of a larger block and v a row of it
    rng = np.random.default_rng(seed)
    block = _values(rng, (rows + 3, n), spread)
    summed = block[:rows]
    sums = np.empty(rows + 2)[1:rows + 1]
    assert np.add.reduce(summed, axis=1, out=sums).tobytes() == summed.sum(axis=1).tobytes()
    assert block[1].sum().tobytes() == block[1].copy().sum().tobytes()
    chain, v = block[1:rows + 1], block[rows + 2]
    out = np.empty(rows + 1)[1:]
    assert np.matmul(chain, v, out=out).tobytes() == (chain @ v).tobytes(), (n, rows)
    assert np.matmul(chain.copy(), v.copy()).tobytes() == (chain @ v).tobytes(), (n, rows)


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
