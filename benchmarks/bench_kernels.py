"""Compare the compiled and pure-python kernel backends.

Times the six fitting objectives and the array cdf/logpdf evaluations on a
synthetic sample, which is exactly the workload the simulation harness
hammers (thousands of quasi-Newton objective evaluations), and the
objectives' value-and-gradient kernel, which is the NumPy one on either
backend.  It also times three property integrals on gtw (ms per call) and
counts the integrand calls that their quadrature makes: each integral's
first call covers the tanh-sinh levels h = 1 ... 1/16, and each finer level
it needs is one call more.

Usage: python benchmarks/bench_kernels.py [sample_size] [repeats]
"""

from __future__ import annotations

import sys
import timeit

import numpy as np

from gtld import make_model, numerics, properties
from gtld._kernels import _ref

try:
    from gtld._kernels import _core
except ImportError:
    _core = None

N = int(sys.argv[1]) if len(sys.argv) > 1 else 200
REPEATS = int(sys.argv[2]) if len(sys.argv) > 2 else 2000

rng = np.random.default_rng(7)
xs = np.sort(rng.weibull(1.4, size=N) + 0.05)
ARGS = (4, 2.5, 0.0, 3.0, 0.5, 0.2, xs)  # gtwe at the study's truth
METHODS = ("ml", "ols", "wls", "cvm", "ad", "rtad")
PROP_MODEL = make_model("gtw", beta=0.5, theta=1.2, lam=-0.3, alpha=1.5)
PROP_CALLS = (
    ("raw_moment(2)", properties.raw_moment, (2,)),
    ("renyi(0.5)", properties.renyi_entropy, (0.5,)),
    ("cigf(1, 1)", properties.cigf, (1, 1)),
)


def bench(label, fn, *args):
    t = timeit.timeit(lambda: fn(*args), number=REPEATS) / REPEATS
    print(f"  {label:<12} {t * 1e6:9.2f} us/call")
    return t


def run(backend, name):
    print(f"{name} backend (n={N}, {REPEATS} calls):")
    out = {}
    out["cdf"] = bench("cdf_arr", backend.cdf_arr, *ARGS)
    out["logpdf"] = bench("logpdf_arr", backend.logpdf_arr, *ARGS)
    for mid, mname in enumerate(METHODS):
        out[mname] = bench(mname, backend.objective, mid, *ARGS)
    return out


def integrand_calls(fn, *args):
    """Integrand calls made through ``numerics.integrate`` by one call of fn."""
    integrate = numerics.integrate
    calls = 0

    def counting(f, *rest, **kwargs):
        def counted(x):
            nonlocal calls
            calls += 1
            return f(x)

        return integrate(counted, *rest, **kwargs)

    numerics.integrate = counting
    try:
        fn(*args)
    finally:
        numerics.integrate = integrate
    return calls


ref_times = run(_ref, "python")
print(f"value and gradient, either backend (n={N}, {REPEATS} calls):")
for mid, mname in enumerate(METHODS):
    bench(f"{mname}+grad", _ref.objective_grad, mid, *ARGS)

prop_repeats = max(1, REPEATS // 10)
print(f"properties on gtw, integrals by quadrature ({prop_repeats} calls):")
for label, fn, args in PROP_CALLS:
    t = timeit.timeit(lambda: fn(PROP_MODEL, *args), number=prop_repeats) / prop_repeats
    calls = integrand_calls(fn, PROP_MODEL, *args)
    print(f"  {label:<14} {t * 1e3:9.3f} ms/call {calls:6d} integrand calls")
if _core is None:
    print("compiled backend not built; nothing to compare")
else:
    core_times = run(_core, "compiled")
    print("speedup (python / compiled):")
    for key in ref_times:
        print(f"  {key:<12} {ref_times[key] / core_times[key]:6.2f}x")
