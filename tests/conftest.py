"""Shared fixtures and parameter-set generators for the test suite."""

import numpy as np
import pytest

from gtld import _kernels
from gtld.model import SUBFAMILY_IDS, SUBFAMILY_SHAPES, ParamVector


def random_params(family: str, rng: np.random.Generator) -> ParamVector:
    """Draw a valid, numerically comfortable parameter set for a sub-family."""
    shape = {}
    for name in SUBFAMILY_SHAPES[family]:
        if family == "gtmw" and name == "gamma":
            shape[name] = float(rng.uniform(0.05, 1.5))
        else:
            shape[name] = float(rng.uniform(0.4, 3.0))
    return ParamVector(
        beta=float(rng.uniform(0.3, 3.0)),
        theta=float(rng.uniform(0.3, 3.0)),
        lam=float(rng.uniform(-0.95, 0.95)),
        shape=shape,
    )


def g_of(model, x):
    """G(x) of the model's sub-family: the kernels' ``_g_parts`` with
    beta = 1, through their one way in for points."""
    return _kernels._at_points(x, lambda xv: _kernels._g_parts(*model.kernel_args[:3], 1.0, xv)[0])


def g_prime(model, x):
    """G'(x), as exp of the kernels' log G'."""
    return _kernels._at_points(
        x, lambda xv: np.exp(_kernels._g_parts(*model.kernel_args[:3], 1.0, xv, lgp=True)[1])
    )


def g_inverse(model, y):
    """x with G(x) = y, from the kernels' ``_g_inverse``; inf past the float range."""
    with np.errstate(all="ignore"):
        return _kernels._g_inverse(*model.kernel_args[:3], np.asarray(y, dtype=float))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture(params=sorted(SUBFAMILY_IDS))
def family(request):
    return request.param
