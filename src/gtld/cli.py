"""Command-line front end.

Subcommands: ``fit`` (estimate + GOF report), ``props`` (distributional
quantities), ``simulate`` (Monte Carlo study from a config file), and
``curves`` (pdf/cdf/hazard plot data as CSV).

Exit codes: 0 success, 1 computation failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from ._kernels import METHOD_IDS
from .model import SUBFAMILY_IDS, SUBFAMILY_SHAPES, ParamVector, model_from_params, param_names

# Only the model and the kernels load with this module.  Each command
# imports the rest of what it runs when it runs, so a process compiles and
# loads only that: ``curves`` nothing more, ``props`` no fitting code,
# ``fit`` no simulation.

METHODS = tuple(METHOD_IDS)  # the --method choices


def __getattr__(name):
    # perfbench/tracer.py reads and rebinds cli.fit and cli.gof_report; the
    # commands themselves import both from their home modules
    if name == "fit":
        from .estimation import fit

        return fit
    if name == "gof_report":
        from .gof import gof_report

        return gof_report
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class UsageError(Exception):
    pass


def _round_floats(obj, sig: int):
    if isinstance(obj, float):
        return float(f"{obj:.{sig}g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v, sig) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, sig) for v in obj]
    return obj


def _parse_params(family: str, text: str) -> ParamVector:
    names = param_names(family)
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != len(names):
        raise UsageError(
            f"{family} takes {len(names)} parameters ({', '.join(names)}); "
            f"got {len(parts)}"
        )
    vals = {}
    for name, part in zip(names, parts):
        try:
            vals[name] = float(part)
        except ValueError:
            raise UsageError(f"cannot parse parameter {name}={part!r}") from None
    shape = {n: vals[n] for n in SUBFAMILY_SHAPES[family]}
    try:
        return ParamVector(
            beta=vals["beta"], theta=vals["theta"], lam=vals["lambda"], shape=shape
        )
    except ValueError as exc:  # a value out of its range is a usage error
        raise UsageError(str(exc)) from None


def _pair(text: str, what: str, kinds=(float, float)):
    """The values of ``--what``, one per type in ``kinds`` (an order is an int)."""
    parts = text.split(",")
    if len(parts) != len(kinds):
        raise UsageError(f"--{what} takes {len(kinds)} comma-separated values")
    try:
        return [kind(p) for kind, p in zip(kinds, parts)]
    except ValueError:
        need = " (its orders are integers)" if int in kinds else ""
        raise UsageError(f"cannot parse --{what} value {text!r}{need}") from None


def _finite(option: str, *values):
    """``values`` of ``--option``, refused where one is infinite or NaN."""
    for value in values:
        if not math.isfinite(value):
            raise UsageError(f"--{option} takes finite values, got {value}")
    return values


def _emit(payload: dict, args) -> None:
    text = json.dumps(_round_floats(payload, args.precision), indent=2)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


# -- subcommands -------------------------------------------------------------


def cmd_fit(args) -> int:
    from .datasets import load_values
    from .estimation import fit
    from .gof import gof_report

    if args.starts < 1:
        raise UsageError(f"--starts must be at least 1, got {args.starts}")
    sample = load_values(args.data)
    result = fit(sample, args.family, method=args.method, seed=args.seed,
                 n_starts=args.starts)
    report = gof_report(sample, model_from_params(args.family, result.estimates))
    names = param_names(args.family)
    payload = {
        "family": args.family,
        "method": result.method,
        "converged": result.converged,
        "iterations": result.iterations,
        "estimates": dict(zip(names, map(float, result.estimates.as_array(args.family)))),
        "std_errors": (
            dict(zip(names, result.std_errors)) if result.std_errors else None
        ),
        "objective_value": result.objective_value,
        "clamp_count": result.clamp_count,
    }
    payload.update(report.to_dict())
    _emit(payload, args)
    return 0


def cmd_props(args) -> int:
    # the functions are looked up on the module at call time
    from . import properties

    params = _parse_params(args.family, args.params)
    model = model_from_params(args.family, params)
    out: dict = {"family": args.family, "params": args.params}
    # orders, ages and entropy bounds must be finite; an infinite --mgf t
    # has its limits, and an infinite --incomplete-moment z is refused by
    # the property, naming raw_moment
    _finite("renyi", *args.renyi or ())
    _finite("q-entropy", *args.q_entropy or ())
    if args.entropy_lower is not None:
        _finite("entropy-lower", args.entropy_lower)

    def run(key, fn):
        try:
            out[key] = fn()
        except ArithmeticError as exc:
            # DivergenceError and EntropyDomainError among them: a quantity
            # that diverges, lies past the float range or divides by zero
            out[key] = {"error": str(exc)}

    for r in args.moment or ():
        run(f"moment_{r}", lambda r=r: properties.raw_moment(model, r))
    for spec in args.incomplete_moment or ():
        r, z = _pair(spec, "incomplete-moment", (int, float))
        run(f"incomplete_moment_{spec}",
            lambda r=r, z=z: properties.incomplete_moment(model, r, z))
    for spec in args.pwm or ():
        r, s = _pair(spec, "pwm", (int, int))
        run(f"pwm_{spec}", lambda r=r, s=s: properties.pwm(model, r, s))
    for t in args.mgf or ():
        run(f"mgf_{t:g}", lambda t=t: properties.mgf(model, t))
    for rho in args.renyi or ():
        run(f"renyi_{rho:g}",
            lambda rho=rho: properties.renyi_entropy(model, rho, lower=args.entropy_lower))
    for q in args.q_entropy or ():
        run(f"q_entropy_{q:g}",
            lambda q=q: properties.q_entropy(model, q, lower=args.entropy_lower))
    if args.stress_strength:
        l1, l2 = _pair(args.stress_strength, "stress-strength")
        out["stress_strength"] = properties.stress_strength(l1, l2)
    if args.quantiles:
        run("quantiles", lambda: model.quantile_measures()._asdict())
    for spec in args.residual or ():
        n, t = _finite("residual", *_pair(spec, "residual", (int, float)))
        run(f"residual_{spec}",
            lambda n=n, t=t: properties.residual_moment(model, n, t))
    for spec in args.reversed_residual or ():
        n, t = _finite("reversed-residual", *_pair(spec, "reversed-residual", (int, float)))
        run(f"reversed_residual_{spec}",
            lambda n=n, t=t: properties.reversed_residual_moment(model, n, t))
    for spec in args.cigf or ():
        m, n = _finite("cigf", *_pair(spec, "cigf"))
        run(f"cigf_{spec}", lambda m=m, n=n: properties.cigf(model, m, n))

    _emit(out, args)
    return 0


def _read_sim_config(path: str) -> SimConfig:
    from .simulation import SimConfig

    kv = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value")
                key, val = (s.strip() for s in line.split("=", 1))
                kv[key] = (val, lineno)
    except OSError as exc:
        raise UsageError(str(exc)) from None

    def take(key, default=None):
        if key in kv:
            return kv.pop(key)[0]
        if default is None:
            raise UsageError(f"{path}: missing required key {key!r}")
        return default

    family = take("family", "gtwe")
    if family not in SUBFAMILY_IDS:
        raise UsageError(f"{path}: unknown family {family!r}")
    try:
        truth = _parse_params(family, take("truth"))
        sizes = tuple(int(s) for s in take("sizes", "50,100,150,200,300,400").split(","))
        reps = int(take("N", "500"))
        methods = tuple(m.strip().lower() for m in take("methods", ",".join(METHODS)).split(","))
        seed = int(take("seed", "20240811"))
        starts = int(take("starts", "3"))
        start = take("start", "heuristic")
    except (ValueError, UsageError) as exc:
        raise UsageError(f"{path}: {exc}") from None
    if starts < 1:
        raise UsageError(f"{path}: starts must be at least 1, got {starts}")
    if kv:
        raise UsageError(f"{path}: unknown key(s) {sorted(kv)}")
    try:
        return SimConfig(
            truth=truth, family=family, sample_sizes=sizes, replications=reps,
            methods=methods, master_seed=seed, n_starts=starts, start=start,
        )
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from None


def cmd_simulate(args) -> int:
    from .simulation import emit_table, run_simulation

    config = _read_sim_config(args.config)
    result = run_simulation(config)
    print(emit_table(result, "text"))
    if args.out_prefix:
        with open(args.out_prefix + ".csv", "w", encoding="utf-8") as fh:
            fh.write(emit_table(result, "csv"))
        with open(args.out_prefix + ".json", "w", encoding="utf-8") as fh:
            fh.write(emit_table(result, "json"))
    return 0


def cmd_curves(args) -> int:
    params = _parse_params(args.family, args.params)
    model = model_from_params(args.family, params)
    try:
        lo, hi, count = args.grid.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise UsageError("--grid must be LO:HI:COUNT") from None
    if count < 1:
        raise UsageError(f"--grid COUNT must be at least 1, got {count}")
    which = [w.strip() for w in args.which.split(",")]
    bad = [w for w in which if w not in ("pdf", "cdf", "hazard")]
    if bad:
        raise UsageError(f"unknown curve(s) {bad}")
    if lo < model.support_low:
        raise UsageError(f"grid starts below the support infimum {model.support_low}")
    xs = np.linspace(lo, hi, count)
    cols = {"x": xs}
    for w in which:
        cols[w] = np.asarray(getattr(model, w)(xs), dtype=float)
    lines = [",".join(cols)]
    for i in range(count):
        lines.append(",".join(f"{cols[c][i]:.{args.precision}g}" for c in cols))
    text = "\n".join(lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


# -- parser --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtld",
        description="Generalized transmuted lifetime distributions: "
        "fitting, properties, simulation, and plot data.",
    )
    parser.add_argument("--precision", type=int, default=6,
                        help="significant digits in printed floats (default 6)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a sub-family to data")
    p_fit.add_argument("--data", required=True,
                       help="built-in dataset name (gauge, failure) or file path")
    p_fit.add_argument("--family", required=True, choices=SUBFAMILY_IDS)
    p_fit.add_argument("--method", default="ml", choices=METHODS)
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--starts", type=int, default=5)
    p_fit.add_argument("--out", help="also write the JSON report to this path")
    p_fit.set_defaults(func=cmd_fit)

    p_props = sub.add_parser("props", help="evaluate distributional properties")
    p_props.add_argument("--family", required=True, choices=SUBFAMILY_IDS)
    p_props.add_argument("--params", required=True,
                         help="comma list: shape params, beta, theta, lambda")
    p_props.add_argument("--moment", type=int, action="append", metavar="R")
    p_props.add_argument("--incomplete-moment", action="append", metavar="R,Z")
    p_props.add_argument("--pwm", action="append", metavar="R,S")
    p_props.add_argument("--mgf", type=float, action="append", metavar="T")
    p_props.add_argument("--renyi", type=float, action="append", metavar="RHO")
    p_props.add_argument("--q-entropy", type=float, action="append", metavar="Q")
    p_props.add_argument("--entropy-lower", type=float, default=None,
                         help="truncate entropy integrals at this lower limit")
    p_props.add_argument("--stress-strength", metavar="L1,L2")
    p_props.add_argument("--quantiles", action="store_true",
                         help="median, Moors kurtosis, Bowley skewness")
    p_props.add_argument("--residual", action="append", metavar="N,T")
    p_props.add_argument("--reversed-residual", action="append", metavar="N,T")
    p_props.add_argument("--cigf", action="append", metavar="M,N")
    p_props.add_argument("--out")
    p_props.set_defaults(func=cmd_props)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo study")
    p_sim.add_argument("config", help="flat key=value config file")
    p_sim.add_argument("--out-prefix", help="write PREFIX.csv and PREFIX.json")
    p_sim.set_defaults(func=cmd_simulate)

    p_curves = sub.add_parser("curves", help="emit pdf/cdf/hazard plot data")
    p_curves.add_argument("--family", required=True, choices=SUBFAMILY_IDS)
    p_curves.add_argument("--params", required=True)
    p_curves.add_argument("--grid", required=True, metavar="LO:HI:COUNT")
    p_curves.add_argument("--which", default="pdf,cdf,hazard")
    p_curves.add_argument("--out")
    p_curves.set_defaults(func=cmd_curves)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.precision < 1:
            raise UsageError(f"--precision must be at least 1, got {args.precision}")
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, KeyError, OSError) as exc:
        # ArithmeticError: a quantity that overflows or divides by zero,
        # such as a hazard where the survival function underflows
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # a FitError can only come from a loaded gtld.estimation (fit,
        # simulate), a NumericsError (a quadrature or series that failed)
        # from a loaded gtld.numerics (props, fit's GOF)
        homes = (("estimation", "FitError"), ("numerics", "NumericsError"))
        loaded = ((sys.modules.get(f"{__package__}.{m}"), name) for m, name in homes)
        if not isinstance(exc, tuple(getattr(m, name) for m, name in loaded if m is not None)):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
