"""gtld._optim against scipy.optimize.minimize, compared bit for bit.

Each BFGS and Nelder-Mead call that ``fit`` makes is run twice, once by
SciPy and once by the port, on the same objective from the same start:
the port hands the objective each point as a list of floats, and SciPy's
side hands it the list of SciPy's array.  The results and the sequence of
points each one evaluates must be equal to the last bit.
"""

import numpy as np
import pytest
from scipy import optimize

from gtld import _optim
from gtld.datasets import load_values
from gtld.estimation import METHODS, fit
from gtld.model import ParamVector
from gtld.simulation import SimConfig, run_simulation

TRUTH = ParamVector(beta=3.0, theta=0.5, lam=0.2, shape={"alpha": 2.5})


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


def _logged(fn, points):
    def wrapped(x):
        points.append(_bits(x))
        return fn(x)

    return wrapped


def _both(scipy_call, port_call):
    """Both results, or the same exception type from both."""
    outcomes = []
    for call in (scipy_call, port_call):
        try:
            outcomes.append((call(), None))
        except (FloatingPointError, OverflowError) as exc:
            outcomes.append((None, exc))
    (ref, ref_exc), (port, port_exc) = outcomes
    assert type(ref_exc) is type(port_exc)
    if port_exc is not None:
        raise port_exc
    return ref, port


class Oracle:
    """Stands in for ``_optim.bfgs`` and ``_optim.nelder_mead`` inside ``fit``.

    Runs SciPy and the port on each problem, checks that they agree and
    returns the port's result, so the fit goes on as it would.
    """

    def __init__(self, monkeypatch):
        self.bfgs_calls = 0
        self.nm_calls = 0
        self.fallbacks = 0
        port_bfgs, port_nm = _optim.bfgs, _optim.nelder_mead
        wolfe2 = _optim._line_search_wolfe2

        def bfgs(fun_and_grad, x0):
            seen_ref, seen_port = [], []
            ref, port = _both(
                lambda: optimize.minimize(
                    _logged(lambda x: fun_and_grad(x.tolist()), seen_ref), x0, jac=True,
                    method="BFGS",
                    options={"gtol": 1e-6, "maxiter": 500},
                ),
                lambda: port_bfgs(_logged(fun_and_grad, seen_port), x0),
            )
            assert seen_port == seen_ref
            assert _bits(port.x) == _bits(ref.x)
            assert _bits(port.fun) == _bits(ref.fun)
            assert _bits(port.jac) == _bits(ref.jac)
            assert (port.nit, port.status, port.success) == (ref.nit, ref.status, ref.success)
            self.bfgs_calls += 1
            return port

        def nelder_mead(fun, x0):
            seen_ref, seen_port = [], []
            ref, port = _both(
                lambda: optimize.minimize(
                    _logged(lambda x: fun(x.tolist()), seen_ref), x0, method="Nelder-Mead",
                    options={"maxiter": 400, "fatol": 1e-10, "xatol": 1e-8},
                ),
                lambda: port_nm(_logged(fun, seen_port), x0),
            )
            assert seen_port == seen_ref
            assert _bits(port.x) == _bits(ref.x)
            assert _bits(port.fun) == _bits(ref.fun)
            assert (port.nit, port.status, port.success) == (ref.nit, ref.status, ref.success)
            self.nm_calls += 1
            return port

        def counted_wolfe2(*args):
            self.fallbacks += 1
            return wolfe2(*args)

        monkeypatch.setattr(_optim, "bfgs", bfgs)
        monkeypatch.setattr(_optim, "nelder_mead", nelder_mead)
        monkeypatch.setattr(_optim, "_line_search_wolfe2", counted_wolfe2)


def test_gtwe_study_blocks(monkeypatch):
    """The benchmark's Monte Carlo study: six methods, truth start, one start
    per fit; its fits take the fallback line search and reach the rescue."""
    oracle = Oracle(monkeypatch)
    for master_seed in range(20240811, 20240817):
        run_simulation(
            SimConfig(
                truth=TRUTH,
                family="gtwe",
                sample_sizes=(50, 400),
                replications=2,
                methods=METHODS,
                master_seed=master_seed,
                n_starts=1,
                start="truth",
            )
        )
    assert oracle.bfgs_calls >= 144
    assert oracle.fallbacks > 0
    assert oracle.nm_calls > 0


@pytest.mark.parametrize("method", METHODS)
def test_gtmw_real_data(monkeypatch, method):
    """A two-shape family from the heuristic start and jittered restarts."""
    oracle = Oracle(monkeypatch)
    for data in ("gauge", "failure"):
        fit(load_values(data), "gtmw", method=method, n_starts=3)
    assert oracle.bfgs_calls >= 6


def test_result_fields():
    # both optimizers hand the objective its point as a list of floats
    def f(xl):
        assert type(xl) is list and all(type(v) is float for v in xl)
        return sum(v * v for v in xl)

    res = _optim.bfgs(lambda xl: (f(xl), 2.0 * np.array(xl)), np.array([1.0, -2.0]))
    assert res.success and res.status == 0 and res.nit > 0
    assert np.all(np.abs(res.x) < 1e-6) and res.jac is not None
    nm = _optim.nelder_mead(f, np.array([1.0, -2.0]))
    assert nm.success and nm.jac is None and nm.fun < 1e-10
