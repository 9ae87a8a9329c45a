"""Time the kernels (layer 1) and the fits built on them (layer 2).

Layer 1: the six fitting objectives and the array cdf/logpdf evaluations
(the kernels' cores through ``_at_points``, their one way in for points)
on a synthetic sample, which is exactly the workload the simulation harness
hammers (thousands of quasi-Newton objective evaluations), and the
objectives' value-and-gradient kernel; the objectives take the per-fit
``Plan`` that ``fit`` builds once.  The value-and-gradient kernel is also
timed for every family and method at n = 50 and 400 (us per call), so that
a family the Monte Carlo study does not fit (the real-data fits use gtw,
gte and gtl) cannot slow down unseen.  It also times three property integrals
on gtw and on gtmw (ms per call), and counts the integrand calls that their
quadrature makes, through ``numerics.integrate_ranges``, which every
quadrature runs on: the first call covers the tanh-sinh levels h = 1 ...
1/16 of both ranges of levels, p below 0.75 and the survival level below
0.25, and each round of finer levels that a range still needs is one call
more.  gtmw is the one family whose G^-1, which every integrand call
evaluates, is iterative (Newton's method).  Whether a property exists is
decided from the family table before that, with no integrand call.  Each
property row also gives the us per call spent outside the integrand, in
the screens, the driver and the rule: the call is timed once more with
its integrands handing back their recorded values, as the fit rows replay
the kernel; the script exits non-zero if a property makes no integrand
call, or if the replay does not serve every recorded one.

Layer 2: truth-start, one-start gtwe fits at the Monte Carlo study's truth,
n = 50 and 400, for each method: ms per fit, kernel evaluations per fit
(value and value-and-gradient calls), and the us per evaluation spent
outside the kernel, in ``fit``'s wrappers and the optimizer: the fits are
timed once more with the kernel handing back its recorded results.  The
kernel is ``_kernels._objective``, the core that ``fit`` calls under its
one errstate; the script exits non-zero if the fits make no call to it, or
if the replayed fits do not make the recorded calls, as when ``fit`` has
moved to another entry and the replay would time whole fits.

Every row is the best of ``BATCHES`` batches, and the batches of a
table's rows run in turn, so that a slow spell of a shared host reaches
every row alike and one slow batch does not set a row: a layer-1 or
property row's batch is ``repeats / BATCHES`` calls (at least one), a fit
row's one pass over its samples.

Usage: python benchmarks/bench_kernels.py [sample_size] [repeats]
"""

from __future__ import annotations

import contextlib
import sys
import timeit

import numpy as np

from gtld import ParamVector, _kernels, estimation, make_model, numerics, properties

N = int(sys.argv[1]) if len(sys.argv) > 1 else 200
REPEATS = int(sys.argv[2]) if len(sys.argv) > 2 else 2000

rng = np.random.default_rng(7)
xs = np.sort(rng.weibull(1.4, size=N) + 0.05)
ARGS = (4, 2.5, 0.0, 3.0, 0.5, 0.2)  # gtwe at the study's truth
METHODS = estimation.METHODS
# (family id, s1, s2, beta, theta, lam) per family, for the all-family
# gradient table; gtp1's alpha lies below the smallest sample point
FAMILY_ARGS = {
    "gte": (0, 0.0, 0.0, 1.5, 0.8, 0.2),
    "gtr": (1, 0.0, 0.0, 1.5, 0.8, 0.2),
    "gtw": (2, 1.5, 0.0, 1.5, 0.8, 0.2),
    "gtmw": (3, 1.2, 0.3, 1.5, 0.8, 0.2),
    "gtwe": ARGS,
    "gtb12": (5, 2.0, 0.0, 1.5, 0.8, 0.2),
    "gtl": (6, 1.5, 0.0, 1.5, 0.8, 0.2),
    "gtp1": (7, 0.04, 0.0, 1.5, 0.8, 0.2),
}
GRAD_SIZES = (50, 400)
PROP_MODELS = {
    "gtw": make_model("gtw", beta=0.5, theta=1.2, lam=-0.3, alpha=1.5),
    "gtmw": make_model("gtmw", beta=0.5, theta=1.2, lam=-0.3, alpha=1.5, gamma=0.3),
}
PROP_CALLS = (
    ("raw_moment(2)", properties.raw_moment, (2,)),
    ("renyi(0.5)", properties.renyi_entropy, (0.5,)),
    ("cigf(1, 1)", properties.cigf, (1, 1)),
)
TRUTH = ParamVector(beta=3.0, theta=0.5, lam=0.2, shape={"alpha": 2.5})
FIT_SIZES = (50, 400)
FIT_SAMPLES = 6  # samples per size, seeds 0..5
BATCHES = 5  # every row is the best of this many batches
BATCH = max(1, REPEATS // BATCHES)  # calls per layer-1 batch


def replaying_integrands(fn, *args):
    """Run ``fn(*args)`` once, recording every value that its integrands
    return to the quadrature driver (``numerics.integrate`` runs on the
    driver too), and return (the integrand calls, a function that runs it
    again with the integrands handing those values back in order): that
    run costs only what lies outside the integrand.  Exits if ``fn`` makes
    no integrand call, or the replay does not serve every recorded one."""
    drive = numerics.integrate_ranges
    values = []

    def with_integrand(wrap):
        def driving(f, *rest, **kwargs):
            return drive(wrap(f), *rest, **kwargs)

        numerics.integrate_ranges = driving
        try:
            fn(*args)
        finally:
            numerics.integrate_ranges = drive

    def recording(f):
        def recorded(*parts):
            values.append(f(*parts))
            return values[-1]

        return recorded

    with_integrand(recording)
    if not values:
        sys.exit(f"bench_kernels: {fn.__name__} made no integrand call")

    def replayed():
        it = iter(values)
        with_integrand(lambda f: lambda *parts: next(it))
        if any(True for _ in it):
            sys.exit(f"bench_kernels: the replay of {fn.__name__} left integrand values unserved")

    return len(values), replayed


def replaying_kernels(fits):
    """Run ``fits`` once, recording every result of the kernel core that
    ``fit`` calls, and return a context in which the core hands those
    results back in order: fits run there cost only what lies outside the
    kernel.  Exits if the fits call the core not at all, or not as often
    as they did when recorded."""
    results = []
    core = _kernels._objective

    def recording(*args):
        results.append(core(*args))
        return results[-1]

    _kernels._objective = recording
    try:
        fits()
    finally:
        _kernels._objective = core
    if not results:
        sys.exit("bench_kernels: the fits made no call to _kernels._objective")

    @contextlib.contextmanager
    def replaying():
        it = iter(results)
        calls = 0

        def replay(*args):
            nonlocal calls
            calls += 1
            return next(it)

        _kernels._objective = replay
        try:
            yield len(results)
        finally:
            _kernels._objective = core
        if calls != len(results):
            sys.exit(f"bench_kernels: the replay served {calls} of {len(results)} kernel calls")

    return replaying


def best_times(fns, number=1):
    """Seconds per call of each fn: the best of ``BATCHES`` batches of
    ``number`` calls, the fns' batches run in turn so that a drift in host
    speed reaches all of them alike."""
    best = [float("inf")] * len(fns)
    for _ in range(BATCHES):
        for j, fn in enumerate(fns):
            best[j] = min(best[j], timeit.timeit(fn, number=number) / number)
    return best


def print_rows(rows):
    """Time the (label, fn) rows together and print us per call."""
    for (label, _), t in zip(rows, best_times([fn for _, fn in rows], BATCH)):
        print(f"  {label:<12} {t * 1e6:9.2f} us/call")


def fit_layer(method, n):
    """(ms per fit, kernel evaluations per fit, us per evaluation outside
    the kernel) for the truth-start gtwe fits of one method and size."""
    model = make_model("gtwe", beta=3.0, theta=0.5, lam=0.2, alpha=2.5)
    samples = [model.sample(n, seed) for seed in range(FIT_SAMPLES)]

    def fits():
        for sample in samples:
            estimation.fit(sample, "gtwe", method=method, init=TRUTH, n_starts=1)

    replaying = replaying_kernels(fits)
    evals = 0

    def fits_outside_kernel():
        nonlocal evals
        with replaying() as evals:
            fits()

    t_fit, t_outside = best_times([fits, fits_outside_kernel])
    return t_fit / FIT_SAMPLES * 1e3, evals / FIT_SAMPLES, t_outside / evals * 1e6


def plan_call(kernel, mid, args, sample):
    plan = _kernels.Plan(sample, args[0], mid)
    return lambda: kernel(mid, *args, plan)


batches = f"best of {BATCHES} batches of {BATCH} calls"
print(f"kernels (n={N}, {batches}):")
print_rows(
    [("cdf", lambda: _kernels._at_points(xs, _kernels._cdf_core, *ARGS)),
     ("logpdf", lambda: _kernels._at_points(xs, _kernels._logpdf_core, *ARGS))]
    + [(m, plan_call(_kernels.objective, mid, ARGS, xs)) for mid, m in enumerate(METHODS)]
)
print(f"value and gradient (n={N}, {batches}):")
print_rows(
    [(f"{m}+grad", plan_call(_kernels.objective_grad, mid, ARGS, xs))
     for mid, m in enumerate(METHODS)]
)

print(f"value and gradient, every family ({batches}, us/call):")
print(f"  {'family':<6} {'n':>4}" + "".join(f"{m:>8}" for m in METHODS))
cells = []
for n in GRAD_SIZES:
    # the synthetic sample's law at size n, its own seed
    xs_n = np.sort(np.random.default_rng(n).weibull(1.4, size=n) + 0.05)
    for fname, args in FAMILY_ARGS.items():
        for mid in range(len(METHODS)):
            plan = _kernels.Plan(xs_n, args[0], mid)
            assert _kernels.objective(mid, *args, plan)[0] != _kernels._BIG, (fname, mid)
            cells.append(plan_call(_kernels.objective_grad, mid, args, xs_n))
times = iter(best_times(cells, BATCH))
for n in GRAD_SIZES:
    for fname in FAMILY_ARGS:
        row = [next(times) * 1e6 for _ in METHODS]
        print(f"  {fname:<6} {n:>4}" + "".join(f"{t:8.1f}" for t in row))

prop_batch = max(1, REPEATS // 10 // BATCHES)
print(f"properties, integrals by quadrature (best of {BATCHES} batches of {prop_batch} calls):")
prop_rows = []  # (family, label, integrand calls, call, replayed call)
for fam, m in PROP_MODELS.items():
    for label, fn, args in PROP_CALLS:
        calls, replayed = replaying_integrands(fn, m, *args)
        prop_rows.append((fam, label, calls, lambda fn=fn, m=m, args=args: fn(m, *args), replayed))
prop_times = best_times([row[3] for row in prop_rows] + [row[4] for row in prop_rows], prop_batch)
print(f"  {'family':<6} {'property':<14} {'ms/call':>8} {'integrand calls':>16} "
      f"{'us/call outside the integrand':>30}")
for (fam, label, calls, _, _), t, t_outside in zip(
    prop_rows, prop_times, prop_times[len(prop_rows):]
):
    print(f"  {fam:<6} {label:<14} {t * 1e3:8.3f} {calls:16d} {t_outside * 1e6:30.1f}")

print(
    f"fits: gtwe at the study truth, truth start, one start "
    f"({FIT_SAMPLES} samples per size, best of {BATCHES}):"
)
print(f"  {'method':<6} {'n':>4} {'ms/fit':>8} {'evals/fit':>10} {'us/eval outside kernel':>23}")
for n in FIT_SIZES:
    for mname in METHODS:
        ms, evals, outside = fit_layer(mname, n)
        print(f"  {mname:<6} {n:>4} {ms:8.2f} {evals:10.1f} {outside:23.1f}")
