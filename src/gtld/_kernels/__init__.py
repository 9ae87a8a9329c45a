"""The hot numerical kernels, in NumPy (``_ref``).

Per-point cdf, sf and log-density, the six fit objectives
(``objective``) and their exact gradients (``objective_grad``), and the
per-fit ``Plan`` those two take in place of a bare sample.  ``BACKEND``
names the implementation: ``"python"``.
"""

from . import _ref

BACKEND = _ref.NAME

Plan = _ref.Plan
cdf_arr = _ref.cdf_arr
sf_arr = _ref.sf_arr
logpdf_arr = _ref.logpdf_arr
objective = _ref.objective
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
