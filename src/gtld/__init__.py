"""Generalized transmuted lifetime distributions.

A lifetime family with CDF (1+lam)*u^theta - lam*u^(2*theta),
u = 1 - exp(-beta*G(x)), where the increasing transform G selects one of
eight sub-families.  The full catalog of distributional properties, six
estimation methods, a Monte Carlo comparison harness, and goodness-of-fit
model selection.

``import gtld`` loads none of its submodules: each public name, and each
submodule in ``_SUBMODULES``, imports its module on first use (PEP 562),
so a process pays only for the modules it touches.
"""

import importlib

__version__ = "0.1.0"

# each public name and the submodule that defines it
_HOMES = {
    "BACKEND": "_kernels",
    "SUBFAMILY_IDS": "model",
    "SUBFAMILY_SHAPES": "model",
    "GtldModel": "model",
    "ParamVector": "model",
    "QuantileMeasures": "model",
    "make_model": "model",
    "model_from_params": "model",
    "param_names": "model",
    "FitResult": "estimation",
    "METHODS": "estimation",
    "TransformedParams": "estimation",
    "fit": "estimation",
    "mle_theta_bracket": "estimation",
    "neg_log_likelihood": "estimation",
    "standard_errors": "estimation",
    "GofReport": "gof",
    "ad_statistic": "gof",
    "cvm_statistic": "gof",
    "gof_report": "gof",
    "ks_statistic": "gof",
    "model_select": "gof",
    "SimConfig": "simulation",
    "SimResult": "simulation",
    "emit_table": "simulation",
    "run_simulation": "simulation",
    "DATASETS": "datasets",
    "get_dataset": "datasets",
    "load_values": "datasets",
}

# the submodules that resolve as attributes of the package, as the public
# names do
_SUBMODULES = ("_kernels", "_optim", "model", "estimation", "gof", "simulation", "datasets")

__all__ = [*_HOMES, "__version__"]


def __getattr__(name):
    if name in _SUBMODULES:
        # importing a submodule also binds it on the package
        return importlib.import_module(f"{__name__}.{name}")
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *_HOMES, *_SUBMODULES})
