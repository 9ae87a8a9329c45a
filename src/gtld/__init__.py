"""Generalized transmuted lifetime distributions.

A lifetime family with CDF (1+lam)*u^theta - lam*u^(2*theta),
u = 1 - exp(-beta*G(x)), where the increasing transform G selects one of
eight sub-families.  The full catalog of distributional properties, six
estimation methods, a Monte Carlo comparison harness, and goodness-of-fit
model selection.
"""

from ._kernels import BACKEND
from .model import GtldModel, ParamVector, QuantileMeasures, make_model, model_from_params, param_names
from .transforms import InnerTransform, SUBFAMILY_IDS, closed_form_cdf, make_transform
from .estimation import (
    FitResult,
    METHODS,
    TransformedParams,
    fit,
    mle_theta_bracket,
    neg_log_likelihood,
    standard_errors,
)
from .gof import GofReport, ad_statistic, cvm_statistic, gof_report, ks_statistic, model_select
from .simulation import SimConfig, SimResult, emit_table, run_simulation
from .datasets import DATASETS, get_dataset, load_values

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "DATASETS",
    "FitResult",
    "GofReport",
    "GtldModel",
    "InnerTransform",
    "METHODS",
    "ParamVector",
    "QuantileMeasures",
    "SimConfig",
    "SimResult",
    "SUBFAMILY_IDS",
    "TransformedParams",
    "ad_statistic",
    "closed_form_cdf",
    "cvm_statistic",
    "emit_table",
    "fit",
    "get_dataset",
    "gof_report",
    "ks_statistic",
    "load_values",
    "make_model",
    "make_transform",
    "mle_theta_bracket",
    "model_from_params",
    "model_select",
    "neg_log_likelihood",
    "param_names",
    "run_simulation",
    "standard_errors",
    "__version__",
]
