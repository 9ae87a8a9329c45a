"""Shortcuts inside the BFGS port that must decide exactly as SciPy's code.

``tests/test_optim.py`` checks whole runs against SciPy; these cases reach
the corners a run seldom does: a step test on underflowing, overflowing
and NaN vectors, the gradient's inf-norm and Nelder-Mead's stop test on
floats, the BFGS driver's notion of "the same point", and the cores run
without the drivers.
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


def test_memo_evaluates_once_per_distinct_point(monkeypatch):
    calls = []

    def fun_and_grad(xl):
        calls.append(xl)
        return sum(xl), np.ones(len(xl))

    def scripted(x0):
        """Asks the driver for points as a core does, and checks its calls."""
        yield x0.tolist()
        assert len(calls) == 1
        yield [1.0, 0.0]
        yield [1.0, -0.0]  # -0.0 == 0.0, as np.array_equal has it
        assert len(calls) == 1
        yield [1.0, 1e-300]
        assert len(calls) == 2
        nan = np.array([np.nan, 0.0])
        yield nan.tolist()
        yield nan.tolist()  # a NaN point is never the same point
        assert len(calls) == 4
        f, g = yield [1.0, 1e-300]
        assert len(calls) == 5 and f == 1.0
        np.testing.assert_array_equal(g, [1.0, 1.0])
        return "done"

    monkeypatch.setattr(_optim, "bfgs_steps", scripted)
    assert _optim.bfgs(fun_and_grad, np.array([1.0, 0.0])) == "done"
    assert len(calls) == 5


def _by_hand(steps, evaluate):
    """A core run without ``_drive``: each request answered in turn."""
    point = next(steps)
    while True:
        try:
            point = steps.send(evaluate(point))
        except StopIteration as done:
            return done.value


def _result_bits(res):
    return (
        res.x.tobytes(), np.float64(res.fun).tobytes(),
        None if res.jac is None else res.jac.tobytes(), res.nit, res.status,
    )


def test_cores_driven_by_hand_give_the_drivers_results():
    def rosen(x):
        return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)

    def rosen_and_grad(x):
        g = [-400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]), 200.0 * (x[1] - x[0] ** 2)]
        return rosen(x), np.array(g)

    for x0 in ([-1.2, 1.0], [0.0, 0.0], [2.0, -1.5]):
        x0 = np.array(x0)
        bfgs = _optim.bfgs(rosen_and_grad, x0)
        assert bfgs.success and bfgs.nit > 10
        # every request evaluated, a repeated point too
        by_hand = _by_hand(_optim.bfgs_steps(x0), rosen_and_grad)
        assert _result_bits(by_hand) == _result_bits(bfgs)

        nm = _optim.nelder_mead(rosen, x0)
        by_hand = _by_hand(_optim.nelder_mead_steps(x0), lambda x: rosen(x.tolist()))
        assert _result_bits(by_hand) == _result_bits(nm)


VECTORS = STEPS + POINTS + [
    [-0.0, 0.0, -0.0, 0.0],
    [-np.inf, 1.0, 0.0, 0.0],
    [np.inf, -np.inf, 1.0, 0.0],
    [1.0, 2.0, np.nan, np.inf],
    [5e-324, -1e-320, 0.0, 0.0],
]


def test_max_abs_is_numpys_inf_norm():
    for v in VECTORS:
        got, want = _optim._max_abs(v), np.abs(np.array(v)).max()
        assert got == want or (np.isnan(got) and np.isnan(want)), v


def test_nelder_mead_stop_test_decides_as_the_maxima_do():
    rng = np.random.default_rng(5)
    specials = [np.nan, np.inf, -np.inf, -0.0]
    # differences exactly at the tolerances stop it
    assert _optim._nm_converged(np.array([[0.0], [1e-8]]), np.array([0.0, 1e-10]))
    assert not _optim._nm_converged(np.array([[0.0], [1.0000000000000002e-08]]), np.zeros(2))
    for _ in range(2000):
        n = int(rng.integers(1, 6))
        scale = 10.0 ** rng.integers(-12, 0, size=2)
        sim = rng.standard_normal((n + 1, n)) * scale[0] + rng.standard_normal(n)
        fsim = rng.standard_normal(n + 1) * scale[1]
        if rng.random() < 0.3:
            sim.flat[rng.integers(sim.size)] = rng.choice(specials)
        if rng.random() < 0.3:
            fsim[rng.integers(n + 1)] = rng.choice(specials)
        with np.errstate(invalid="ignore"):
            want = bool(
                np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= _optim._NM_XATOL
                and np.max(np.abs(fsim[0] - fsim[1:])) <= _optim._NM_FATOL
            )
        assert _optim._nm_converged(sim, fsim) is want, (sim, fsim)
