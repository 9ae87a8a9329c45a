"""Shortcuts inside the BFGS port that must decide exactly as SciPy's code.

``tests/test_optim.py`` checks whole runs against SciPy; these cases reach
the corners a run seldom does: a step test on underflowing, overflowing
and NaN vectors, and the memo's notion of "the same point".
"""

import itertools

import numpy as np

from gtld import _optim

ALPHAS = [0.0, 5e-324, 1e-300, 1e-200, 1e-100, 1e-10, 1.0, 1e100, np.inf, np.nan, -1.0]
STEPS = [
    [0.0, 0.0, 0.0, 0.0],
    [0.0, -0.0, 0.0, 0.0],
    [1e-170, -1e-170, 0.0, 1e-170],  # every square underflows to 0
    [1e-160, 0.0, 0.0, 0.0],  # the square is subnormal
    [1e-150, 3e-151, 0.0, 0.0],
    [1e-140, 0.0, 0.0, 0.0],
    [0.3, -1.2, 2.0, 0.01],
    [1e200, 1.0, 0.0, 0.0],  # the square overflows
    [np.inf, 1.0, 0.0, 0.0],
    [np.nan, 1.0, 0.0, 0.0],
    [1.0, np.nan, 0.0, 0.0],
]
POINTS = [
    [0.5, -1.0, 2.0, 0.0],
    [1e200, 1e200, 0.0, 0.0],  # |x| overflows: 0 * inf is NaN
    [np.inf, 0.0, 0.0, 0.0],
    [0.0, np.nan, 0.0, 0.0],
]


def test_step_test_decides_as_the_two_norms_do():
    with np.errstate(all="ignore"):
        for alpha, pk, xk in itertools.product(ALPHAS, STEPS, POINTS):
            pk, xk = np.array(pk), np.array(xk)
            want = bool(alpha * _optim._vecnorm(pk) <= 0 * (0 + _optim._vecnorm(xk)))
            for a in (alpha, np.float64(alpha)):
                assert _optim._step_rounds_to_zero(a, pk, xk) is want, (alpha, pk, xk)


def test_memo_evaluates_once_per_distinct_point():
    calls = []

    def fun_and_grad(x):
        calls.append(x.copy())
        f = float(np.sum(x))
        x[0] = 99.0  # the memo hands out a copy: its own point is unchanged
        return f, np.ones_like(x)

    x0 = np.array([1.0, 0.0])
    memo = _optim._Memo(fun_and_grad, x0)
    assert len(calls) == 1
    memo(np.array([1.0, 0.0]))
    memo(np.array([1.0, -0.0]))  # -0.0 == 0.0, as np.array_equal has it
    assert len(calls) == 1
    memo(np.array([1.0, 1e-300]))
    assert len(calls) == 2
    nan = np.array([np.nan, 0.0])
    memo(nan)
    memo(nan)  # a NaN point is never the same point
    assert len(calls) == 4
    f, g = memo(np.array([1.0, 1e-300]))
    assert len(calls) == 5 and f == 1.0
    np.testing.assert_array_equal(g, [1.0, 1.0])
