"""Backend selection for the hot numerical kernels.

The compiled extension is preferred; the numpy reference implementation is
used when the extension is missing or when ``GTLD_PURE_PYTHON`` is set in
the environment.  Both expose the same four callables; the objectives'
exact gradients (``objective_grad``) come from the numpy module on either
backend.
"""

import os

from . import _ref

if os.environ.get("GTLD_PURE_PYTHON"):
    _backend = _ref
else:
    try:
        from . import _core as _backend
    except ImportError:
        _backend = _ref

BACKEND = _backend.NAME

cdf_arr = _backend.cdf_arr
sf_arr = _backend.sf_arr
logpdf_arr = _backend.logpdf_arr
objective = _backend.objective
objective_grad = _ref.objective_grad

FAMILY_IDS = {
    "gte": 0,
    "gtr": 1,
    "gtw": 2,
    "gtmw": 3,
    "gtwe": 4,
    "gtb12": 5,
    "gtl": 6,
    "gtp1": 7,
}

METHOD_IDS = {"ml": 0, "ols": 1, "wls": 2, "cvm": 3, "ad": 4, "rtad": 5}
