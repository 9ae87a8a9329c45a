"""Spans around gtld's layer entry points, recorded from outside the package.

``Tracer.install`` replaces the public callables each layer exposes (the
module attributes the other layers look up at call time) with wrappers that
record one span per call: name, start, end and the index of the enclosing
span.  Nothing inside ``src/`` changes.  Spans stay in memory until
``write`` dumps them as CSV.

Span names are ``<layer>.<what>[.<detail>]``, the layer being the gtld
module: kernels, estimation, simulation, model, properties, numerics, gof,
cli.  ``process`` spans are the benchmark's own, around a CLI subprocess.
"""

from __future__ import annotations

import time
import types
from array import array

METHOD_NAMES = ("ml", "ols", "wls", "cvm", "ad", "rtad")
PROPERTY_FNS = (
    "raw_moment",
    "incomplete_moment",
    "pwm",
    "mgf",
    "renyi_entropy",
    "q_entropy",
    "residual_moment",
    "reversed_residual_moment",
    "cigf",
)


class Tracer:
    def __init__(self):
        self.names = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.integrand_evals = {}  # properties span index -> integrand calls
        self.quadrature_errors = set()  # numerics span indices that raised
        self._stack = []
        self._evals = 0

    def __len__(self):
        return len(self.names)

    # -- recording -------------------------------------------------------

    def begin(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self.starts.append(time.perf_counter())
        self._stack.append(idx)
        return idx

    def end(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name=None, namer=None):
        """``fn`` recorded as one span per call, named ``name`` or ``namer(args, kwargs)``."""

        def traced(*args, **kwargs):
            idx = self.begin(name if namer is None else namer(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        traced.__wrapped__ = fn
        return traced

    def adopt(self, rows, parent):
        """Append spans recorded by another process under span ``parent``."""
        base = len(self.names)
        for name, start, end, par in rows:
            self.names.append(name)
            self.starts.append(start)
            self.ends.append(end)
            self.parents.append(parent if par < 0 else base + par)

    # -- installation ----------------------------------------------------

    def install(self):
        import scipy.optimize

        import gtld._kernels
        import gtld.cli
        import gtld.estimation
        import gtld.gof
        import gtld.numerics
        import gtld.properties
        import gtld.simulation
        from gtld.model import GtldModel

        obj_names = {}

        def objective_name(args, kwargs):
            key = (args[0], len(args[7]))
            name = obj_names.get(key)
            if name is None:
                name = obj_names[key] = f"kernels.objective.{METHOD_NAMES[key[0]]}.n{key[1]}"
            return name

        gtld._kernels.objective = self.wrap(gtld._kernels.objective, namer=objective_name)

        def fit_name(args, kwargs):
            return "estimation.fit." + kwargs.get("method", args[2] if len(args) > 2 else "ml")

        # each importer holds its own reference to fit (possibly the
        # benchmark's per-fit timer around it): trace whatever it calls
        for module in (gtld.estimation, gtld.simulation, gtld.cli, gtld.gof):
            module.fit = self.wrap(module.fit, namer=fit_name)
        minimize = self.wrap(
            scipy.optimize.minimize,
            namer=lambda a, k: "estimation.minimize." + k.get("method", "BFGS"),
        )
        gtld.estimation.optimize = types.SimpleNamespace(minimize=minimize)
        gtld.estimation.standard_errors_from_params = self.wrap(
            gtld.estimation.standard_errors_from_params, "estimation.standard_errors"
        )
        gtld.simulation.run_simulation = self.wrap(
            gtld.simulation.run_simulation, "simulation.run_simulation"
        )
        for method in ("pdf", "quantile", "sample"):
            setattr(GtldModel, method, self.wrap(getattr(GtldModel, method), f"model.{method}"))
        GtldModel.quantile_measures = self.wrap(
            GtldModel.quantile_measures, "properties.quantile_measures"
        )
        for fn in PROPERTY_FNS:
            setattr(gtld.properties, fn, self._counting(getattr(gtld.properties, fn), fn))
        gtld.numerics.integrate = self._integrate(gtld.numerics)
        report = self.wrap(gtld.gof.gof_report, "gof.report")
        gtld.gof.gof_report = report
        gtld.cli.gof_report = report

    def _counting(self, fn, name):
        """A properties function whose span also counts integrand calls."""
        span = f"properties.{name}"

        def traced(*args, **kwargs):
            idx = self.begin(span)
            before = self._evals
            try:
                return fn(*args, **kwargs)
            finally:
                self.integrand_evals[idx] = self._evals - before
                self.end(idx)

        traced.__wrapped__ = fn
        return traced

    def _integrate(self, numerics):
        integrate = numerics.integrate

        def traced(f, *args, **kwargs):
            def counted(x):
                self._evals += 1
                return f(x)

            idx = self.begin("numerics.integrate")
            try:
                return integrate(counted, *args, **kwargs)
            except numerics.QuadratureError:
                self.quadrature_errors.add(idx)
                raise
            finally:
                self.end(idx)

        traced.__wrapped__ = integrate
        return traced

    # -- output ------------------------------------------------------------

    def rows(self):
        return zip(self.names, self.starts, self.ends, self.parents)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent\n")
            for name, start, end, parent in self.rows():
                fh.write(f"{name},{start!r},{end!r},{parent}\n")

    @staticmethod
    def read(path):
        with open(path, encoding="utf-8") as fh:
            next(fh)
            out = []
            for line in fh:
                name, start, end, parent = line.rstrip("\n").split(",")
                out.append((name, float(start), float(end), int(parent)))
        return out

    def self_times(self):
        """Each span's duration minus the durations of its direct children."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        own = list(dur)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= dur[i]
        return dur, own
