"""NumPy identities that the objective kernel's bit-for-bit results rest on.

The ml gradient writes the per-point rows it sums (the log f terms, the
d log G' / d psi, a, log u and d log f / d lam) into one C-contiguous
(rows, n) block and reduces them with a single ``sum(axis=1)``.  That gives
the bytes of the separate 1-D sums only while NumPy reduces each row of
such a block with the same pairwise summation as a 1-D sum.  A NumPy
upgrade that breaks this, or the equality of ``np.dot`` and ``@`` on
vectors, fails here instead of silently moving the study tables.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as hs


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
