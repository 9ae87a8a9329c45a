"""The golden records of the model layer, the property catalog, the fits
and the CLI reports, ``tests/golden/model.json``,
``tests/golden/properties.json``, ``tests/golden/fits.json`` and
``tests/golden/cli.json``.

The model record: eight families, three fixed parameter sets each (one
set passes its shape as an int, one gtmw set passes gamma before alpha):
the model's support, ``cdf``, ``survival``, ``logpdf`` and ``pdf`` at five
points from the support's low end on, ``quantile`` at five levels and
``sample(5, seed=1)``; and ``default_init`` of every family on the gauge
data.

The property record: the quadrature properties of ``gtld.properties``
(moments, incomplete moments, PWMs, the MGF, Renyi and q-entropies over
the full and a truncated range, residual and reversed residual moments,
``cigf``) at fixed arguments, on the model record's 24 models and on two
seeded parameter sets per family; each call's value, or else the type of
the error it raises.  Ages and truncation points are the model's own
quantiles, recorded with the call.

The fits record: the 96 real-data fits (the gauge and failure data, eight
families, six methods, ``seed=0, n_starts=3``), each fit's estimates,
objective, ``converged``, iterations, evaluations, ``rescued``,
``gradient_fallbacks``, ``clamp_count`` and standard errors, and the
``gof_report`` of its fitted model, or else the type of the error the fit
or the report raises; and the Monte Carlo study of six blocks (the gtwe
truth of the paper's table 3, master seeds 20240811 to 20240816, n = 50
and 400, two replications, six methods, the truth start and one start),
each cell's ``abs_bias``, ``mse`` and ``failure_count``.

The CLI record: for the gauge and failure data and each of the eight
families, the reports of ``gtld --precision 17`` ``fit`` (the defaults:
ML, seed 0, five starts), ``props`` on the fitted parameters as the fit
report prints them (``--quantiles`` and the quadrature catalog, ages and
bounds at the data's median) and ``curves`` over the data's range; each
report's exit code and its JSON or CSV, or else its error line.  At 17 significant digits a
printed float is the float itself, so the record stores its ``float.hex``.

Every float is stored as ``float.hex``, so the records keep their bits.
``tests/test_golden.py`` compares fresh records with the stored ones at a
relative tolerance of 1e-12.  Run as a script to compare bytes or to
write the records anew::

    PYTHONPATH=src python tests/golden_model.py --exact
    PYTHONPATH=src python tests/golden_model.py --write
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys

import numpy as np

from gtld import METHODS, ParamVector, SimConfig, fit, load_values, make_model, properties
from gtld.estimation import FitError, default_init
from gtld.gof import gof_report
from gtld.model import model_from_params, param_names
from gtld.simulation import run_simulation
from gtld.numerics import NumericsError
from gtld import cli

HERE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
PATH = os.path.join(HERE, "model.json")
PROPERTIES_PATH = os.path.join(HERE, "properties.json")
FITS_PATH = os.path.join(HERE, "fits.json")
CLI_PATH = os.path.join(HERE, "cli.json")

OFFSETS = (0.0, 0.05, 0.5, 1.5, 4.0)  # the points, above the support's low end
LEVELS = (1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-6)
# (beta, theta, lam) of the three sets; the shapes are given per family,
# as (name, value) pairs in the order they are passed
SETS = ((1.5, 0.8, 1.0), (0.5, 2.5, -0.7), (2.0, 0.5, -1.0))
SHAPES = {
    "gte": ((), (), ()),
    "gtr": ((), (), ()),
    "gtw": ((("alpha", 1.5),), (("alpha", 3),), (("alpha", 0.7),)),
    "gtmw": (
        (("alpha", 1.2), ("gamma", 0.3)),
        (("alpha", 2), ("gamma", 1)),
        (("gamma", 0.5), ("alpha", 2.0)),
    ),
    "gtwe": ((("alpha", 0.8),), (("alpha", 2),), (("alpha", 1.3),)),
    "gtb12": ((("alpha", 2.0),), (("alpha", 1),), (("alpha", 0.6),)),
    "gtl": ((("alpha", 1.5),), (("alpha", 2),), (("alpha", 0.4),)),
    "gtp1": ((("alpha", 0.5),), (("alpha", 2),), (("alpha", 1.25),)),
}


def _hex(values):
    return [float(v).hex() for v in np.atleast_1d(values)]


def compute() -> dict:
    """The record, from the code on the import path."""
    models = []
    for family, shapes in SHAPES.items():
        for (beta, theta, lam), shape in zip(SETS, shapes):
            m = make_model(family, beta=beta, theta=theta, lam=lam, **dict(shape))
            xs = m.support_low + np.array(OFFSETS)
            models.append({
                "family": family,
                "beta": beta,
                "theta": theta,
                "lam": lam,
                "shape": [list(pair) for pair in shape],
                "support_low": float(m.support_low).hex(),
                "points": _hex(xs),
                "cdf": _hex(m.cdf(xs)),
                "survival": _hex(m.survival(xs)),
                "logpdf": _hex(m.logpdf(xs)),
                "pdf": _hex(m.pdf(xs)),
                "levels": _hex(LEVELS),
                "quantile": _hex(m.quantile(np.array(LEVELS))),
                "sample": _hex(m.sample(5, seed=1)),
            })
    gauge = load_values("gauge")
    inits = {}
    for family in SHAPES:
        p = default_init(gauge, family)
        inits[family] = dict(zip(param_names(family), _hex(p.as_array(family))))
    return {"models": models, "default_init_gauge": inits}


def _seeded_sets(family):
    """Two parameter sets of ``family`` from a fixed seed: beta, theta and
    the shapes log-uniform (gtmw's gamma over (0.05, 1.5), the others over
    (0.4, 3)), beta and theta over (0.3, 3), lam uniform over (-0.95, 0.95)."""
    rng = np.random.default_rng([list(SHAPES).index(family), 24])
    out = []
    for _ in range(2):
        box = {"gamma": (0.05, 1.5)}
        shape = tuple(
            (name, float(np.exp(rng.uniform(*np.log(box.get(name, (0.4, 3.0)))))))
            for name, _ in SHAPES[family][0]
        )
        beta, theta = (float(v) for v in np.exp(rng.uniform(np.log(0.3), np.log(3.0), 2)))
        out.append(((beta, theta, float(rng.uniform(-0.95, 0.95))), shape))
    return out


def property_calls(m):
    """(label, function name, args, kwargs) of the catalog on model m."""
    q10, med, q90 = (float(m.quantile(p)) for p in (0.1, 0.5, 0.9))
    calls = [("raw_moment", (r,), {}) for r in (1, 2, 3)]
    calls += [("incomplete_moment", (1, med), {}), ("incomplete_moment", (2, q90), {})]
    calls += [("pwm", rs, {}) for rs in ((0, 2), (1, 1), (2, 1))]
    calls += [("mgf", (t,), {}) for t in (-1.0, -0.2, 0.3)]
    calls += [("renyi_entropy", (rho,), {}) for rho in (0.5, 2.0)]
    calls += [("renyi_entropy", (2.0,), {"lower": q10})]
    calls += [("q_entropy", (q,), {}) for q in (0.5, 2.0)]
    calls += [("residual_moment", (1, med), {}), ("residual_moment", (2, q90), {})]
    calls += [("reversed_residual_moment", (1, med), {}),
              ("reversed_residual_moment", (2, q10), {})]
    calls += [("cigf", mn, {}) for mn in ((1, 1), (0, 2), (0.5, 0.7))]
    out = []
    for name, args, kwargs in calls:
        shown = [float(a).hex() if isinstance(a, float) else a for a in args]
        shown += [f"{k}={float(v).hex()}" for k, v in kwargs.items()]
        out.append((f"{name}({', '.join(map(str, shown))})", name, args, kwargs))
    return out


def compute_properties() -> dict:
    """The property record, from the code on the import path."""
    models = []
    for family, shapes in SHAPES.items():
        for (beta, theta, lam), shape in [*zip(SETS, shapes), *_seeded_sets(family)]:
            m = make_model(family, beta=beta, theta=theta, lam=lam, **dict(shape))
            calls = {}
            for label, name, args, kwargs in property_calls(m):
                try:
                    value = getattr(properties, name)(m, *args, **kwargs)
                    calls[label] = {"value": float(value).hex()}
                except (ArithmeticError, NumericsError) as exc:
                    calls[label] = {"error": type(exc).__name__}
            models.append({
                "family": family,
                "beta": float(beta).hex(),
                "theta": float(theta).hex(),
                "lam": float(lam).hex(),
                "shape": [[name, float(value).hex()] for name, value in shape],
                "calls": calls,
            })
    return {"models": models}


DATA = ("gauge", "failure")
# the study's truth: gtwe with alpha 2.5, beta 3, theta 0.5, lambda 0.2
STUDY_TRUTH = ParamVector(beta=3.0, theta=0.5, lam=0.2, shape={"alpha": 2.5})
STUDY_SEEDS = range(20240811, 20240817)


def _gof(sample, model):
    """The report of the fitted model, its floats as hex."""
    rep = gof_report(sample, model)
    return {
        "neg2_loglik": float(rep.neg2_loglik).hex(),
        "aic": float(rep.aic).hex(),
        "ks": _hex(rep.ks),
        "cvm": _hex(rep.cvm),
        "ad": _hex(rep.ad),
        "n": rep.n,
    }


def compute_fits() -> dict:
    """The fits record, from the code on the import path."""
    fits = []
    for data in DATA:
        xs = load_values(data)
        for family in SHAPES:
            for method in METHODS:
                rec = {"data": data, "family": family, "method": method}
                fits.append(rec)
                try:
                    r = fit(xs, family, method=method, seed=0, n_starts=3)
                except (FitError, ArithmeticError, ValueError) as exc:
                    rec["error"] = type(exc).__name__
                    continue
                rec.update({
                    "estimates": _hex(r.estimates.as_array(family)),
                    "objective": float(r.objective_value).hex(),
                    "converged": r.converged,
                    "iterations": r.iterations,
                    "evaluations": r.evaluations,
                    "rescued": r.rescued,
                    "gradient_fallbacks": r.gradient_fallbacks,
                    "clamp_count": r.clamp_count,
                    "std_errors": None if r.std_errors is None else _hex(r.std_errors),
                })
                try:
                    rec["gof"] = _gof(xs, model_from_params(family, r.estimates))
                except (ArithmeticError, ValueError) as exc:
                    rec["gof"] = {"error": type(exc).__name__}
    study = []
    for master_seed in STUDY_SEEDS:
        config = SimConfig(
            truth=STUDY_TRUTH, family="gtwe", sample_sizes=(50, 400), replications=2,
            methods=METHODS, master_seed=master_seed, n_starts=1, start="truth",
        )
        block = {"master_seed": master_seed}
        study.append(block)
        try:
            result = run_simulation(config)
        except (FitError, ArithmeticError, ValueError) as exc:
            block["error"] = type(exc).__name__
            continue
        block["cells"] = [
            {
                "method": method,
                "n": n,
                "abs_bias": _hex(cell.abs_bias),
                "mse": _hex(cell.mse),
                "failure_count": cell.failure_count,
            }
            for (method, n), cell in result.cells.items()
        ]
    return {"fits": fits, "study": study}


def _run_cli(argv):
    """gtld --precision 17 ``argv`` in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--precision", "17", *argv])
    return code, out.getvalue(), err.getvalue()


def _hex_report(obj):
    """A parsed JSON report with its floats as hex, the ``params`` list too."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {
            k: _hex(v.split(",")) if k == "params" else _hex_report(v) for k, v in obj.items()
        }
    if isinstance(obj, list):
        return [_hex_report(v) for v in obj]
    return obj


def _cli_report(argv, csv=False):
    code, text, err = _run_cli(argv)
    rec = {"exit": code}
    if code != 0:
        rec["stderr"] = err
    elif csv:
        header, *rows = text.splitlines()
        rec["header"] = header
        rec["rows"] = [_hex(row.split(",")) for row in rows]
    else:
        rec["report"] = _hex_report(json.loads(text))
    return rec


CURVE_POINTS = 41


def compute_cli() -> dict:
    """The CLI record, from the code on the import path."""
    reports = []
    for data in DATA:
        xs = load_values(data)
        med = repr(float(np.median(xs)))
        grid = f"{float(xs.min())!r}:{float(xs.max())!r}:{CURVE_POINTS}"
        for family in SHAPES:
            rec = {"data": data, "family": family}
            reports.append(rec)
            rec["fit"] = _cli_report(["fit", "--data", data, "--family", family])
            if rec["fit"]["exit"] != 0:
                continue
            estimates = rec["fit"]["report"]["estimates"]
            params = ",".join(repr(float.fromhex(v)) for v in estimates.values())
            model = ["--family", family, "--params", params]
            rec["props"] = _cli_report([
                "props", *model, "--quantiles", "--moment", "1", "--moment", "2",
                "--incomplete-moment", f"1,{med}", "--pwm", "1,1", "--mgf=-1",
                "--renyi", "2", "--q-entropy", "2", "--residual", f"1,{med}",
                "--reversed-residual", f"1,{med}", "--cigf", "1,1",
            ])
            rec["curves"] = _cli_report(["curves", *model, "--grid", grid], csv=True)
    return {"reports": reports}


RECORDS = (
    (PATH, compute), (PROPERTIES_PATH, compute_properties), (FITS_PATH, compute_fits),
    (CLI_PATH, compute_cli),
)


def dumps(record: dict) -> str:
    return json.dumps(record, indent=1) + "\n"


def load(path=PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="write the records anew")
    mode.add_argument("--exact", action="store_true", help="compare the records' bytes")
    args = ap.parse_args(argv)
    status = 0
    for path, fresh in RECORDS:
        text = dumps(fresh())
        if args.write:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"wrote {path}")
            continue
        with open(path, encoding="utf-8") as fh:
            stored = fh.read()
        if stored != text:
            print(f"{path}: the code's record differs from the stored one", file=sys.stderr)
            status = 1
        else:
            print(f"{path}: identical")
    return status


if __name__ == "__main__":
    sys.exit(main())
