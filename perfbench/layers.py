"""Per-layer metrics derived from a traced run's spans.

Each metric belongs to the workload that exercises its layer (its *home*):
kernels/estimation/simulation on ``mc_study``, properties/numerics on
``property_catalog``, gof/cli/process on ``real_data_cli``.  A traced run
of any workload also traces one round of the other two, so every metric is
measured in every traced run.

Times are means over every traced round of the home workload.  Counts come
from round 0 only, whose inputs depend on the seed alone, so a count
repeats exactly between runs with the same seed.
"""

from __future__ import annotations

import statistics

from tracer import METHOD_NAMES, PROPERTY_FNS

SIZES = (50, 400)
CLI_COMMANDS = ("fit", "props", "curves")
LAYERS = ("kernels", "estimation", "simulation", "model", "properties", "numerics", "gof", "cli", "process")

UNITS = {}
for _m in METHOD_NAMES:
    for _n in SIZES:
        UNITS[f"kernels.objective_us.{_m}.n{_n}"] = "us"
UNITS.update({"kernels.objective_calls": "count", "kernels.busy_share": "ratio"})
for _m in METHOD_NAMES:
    UNITS[f"estimation.fit_ms.{_m}"] = "ms"
    UNITS[f"estimation.objective_evals_per_fit.{_m}"] = "count"
UNITS.update({
    "estimation.minimize_calls_per_fit": "count",
    "estimation.nm_rescues": "count",
    "estimation.se_ms": "ms",
    "simulation.harness_overhead_share": "ratio",
    "simulation.failed_fits": "count",
    "model.sample_ms": "ms",
})
for _f in PROPERTY_FNS + ("quantile_measures",):
    UNITS[f"properties.ms.{_f}"] = "ms"
for _f in PROPERTY_FNS:
    UNITS[f"properties.integrand_evals.{_f}"] = "count"
UNITS.update({
    "numerics.integrate_calls": "count",
    "numerics.quadrature_errors": "count",
    "model.pdf_calls": "count",
    "model.pdf_us": "us",
    "model.quantile_us": "us",
    "gof.report_ms": "ms",
})
for _c in CLI_COMMANDS:
    UNITS[f"cli.main_ms.{_c}"] = "ms"
UNITS.update({"process.import_s": "s", "process.import_scipy_optimize_s": "s"})
for _l in LAYERS:
    UNITS[f"self_share.{_l}"] = "ratio"
UNITS["trace.overhead_share"] = "ratio"


class _Stats:
    """Count and total duration per span name over some index ranges."""

    def __init__(self, tracer, durs, ranges):
        self.count, self.total, self.index = {}, {}, []
        for lo, hi in ranges:
            for i in range(lo, hi):
                name = tracer.names[i]
                self.count[name] = self.count.get(name, 0) + 1
                self.total[name] = self.total.get(name, 0.0) + durs[i]
                self.index.append(i)

    def n(self, prefix):
        return sum(c for name, c in self.count.items() if name.startswith(prefix))

    def t(self, prefix):
        return sum(t for name, t in self.total.items() if name.startswith(prefix))

    def mean(self, name, scale):
        c = self.count.get(name, 0)
        return self.total[name] / c * scale if c else 0.0


def _ratio(a, b):
    return a / b if b else 0.0


def _mc(all_, win, ops):
    out = {"kernels.objective_calls": win.n("kernels.objective.")}
    for m in METHOD_NAMES:
        for n in SIZES:
            name = f"kernels.objective.{m}.n{n}"
            out[f"kernels.objective_us.{m}.n{n}"] = all_.mean(name, 1e6)
        out[f"estimation.fit_ms.{m}"] = all_.mean(f"estimation.fit.{m}", 1e3)
        out[f"estimation.objective_evals_per_fit.{m}"] = _ratio(
            win.n(f"kernels.objective.{m}."), win.n(f"estimation.fit.{m}")
        )
    fit_time = all_.t("estimation.fit.")
    run_time = all_.t("simulation.run_simulation")
    out.update({
        "kernels.busy_share": _ratio(all_.t("kernels.objective."), fit_time),
        "estimation.minimize_calls_per_fit": _ratio(win.n("estimation.minimize."), win.n("estimation.fit.")),
        "estimation.nm_rescues": win.n("estimation.minimize.Nelder-Mead"),
        "estimation.se_ms": all_.mean("estimation.standard_errors", 1e3),
        "simulation.harness_overhead_share": _ratio(run_time - fit_time, run_time),
        # fits the harness counts as failed: raised, or returned unconverged
        "simulation.failed_fits": sum(1 for op in ops if op["round"] == 0 and not op["ok"]),
        "model.sample_ms": all_.mean("model.sample", 1e3),
    })
    return out


def _props(tracer, all_, win):
    out = {}
    for f in PROPERTY_FNS + ("quantile_measures",):
        out[f"properties.ms.{f}"] = all_.mean(f"properties.{f}", 1e3)
    evals = {}
    for i in win.index:
        if i in tracer.integrand_evals:
            evals[tracer.names[i]] = evals.get(tracer.names[i], 0) + tracer.integrand_evals[i]
    for f in PROPERTY_FNS:
        name = f"properties.{f}"
        out[f"properties.integrand_evals.{f}"] = _ratio(evals.get(name, 0), win.count.get(name, 0))
    out.update({
        "numerics.integrate_calls": win.n("numerics.integrate"),
        "numerics.quadrature_errors": sum(1 for i in win.index if i in tracer.quadrature_errors),
        "model.pdf_calls": win.n("model.pdf"),
        "model.pdf_us": all_.mean("model.pdf", 1e6),
        "model.quantile_us": all_.mean("model.quantile", 1e6),
    })
    return out


def _cli(all_, import_times):
    out = {"gof.report_ms": all_.mean("gof.report", 1e3)}
    for c in CLI_COMMANDS:
        out[f"cli.main_ms.{c}"] = all_.mean(f"cli.main.{c}", 1e3)
    out["process.import_s"] = statistics.median(t[0] for t in import_times)
    out["process.import_scipy_optimize_s"] = statistics.median(t[1] for t in import_times)
    return out


def layer_metrics(tracer, regions, ops, import_times, main, busy):
    """Every per-layer metric.

    ``regions[w]`` lists ``(round, lo, hi)`` span-index ranges of workload
    ``w``; ``ops[w]`` its operation records; ``main`` the workload the run
    is about and ``busy`` its traced operation time, the base of the
    ``self_share`` metrics.
    """
    durs, own = tracer.self_times()

    def stats(w, first_only=False):
        return _Stats(tracer, durs, [(lo, hi) for k, lo, hi in regions[w] if k == 0 or not first_only])

    out = {}
    out.update(_mc(stats("mc_study"), stats("mc_study", True), ops["mc_study"]))
    out.update(_props(tracer, stats("property_catalog"), stats("property_catalog", True)))
    out.update(_cli(stats("real_data_cli"), import_times))
    self_time = dict.fromkeys(LAYERS, 0.0)
    for i in stats(main).index:
        layer = tracer.names[i].split(".", 1)[0]
        self_time[layer] += own[i]
    for layer, t in self_time.items():
        out[f"self_share.{layer}"] = _ratio(t, busy)
    return out
