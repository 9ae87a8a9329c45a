"""gtld benchmark: Monte Carlo study, property catalog and real-data CLI.

Usage (from the repository root; gtld is imported from ./src, no install):

    python3 perfbench/run.py --workload mc_study --seed 1 --seconds 20 --trace 0

``--workload`` is mc_study, property_catalog, real_data_cli or ``all``.
With ``--trace 0`` the end-to-end metrics are measured untraced; with
``--trace 1`` a traced run reports the per-layer metrics and writes its
spans to perfbench_out/.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

Each run starts fresh interpreters (workers): five that only set up, to
time set-up, and one that sets up and then measures.  ``setup_s`` is the
median of the five set-up times, each from process start until the worker
has imported gtld, made its inputs and warmed up.  Every time is reported
at the speed of a reference host, measured by calibrations (hostspeed.py).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench_out")
WORKLOAD_NAMES = ("mc_study", "property_catalog", "real_data_cli")
SETUPS = 5
WORKER_TIMEOUT = 170.0
# what a workload's operation is, for the summary lines
OPERATION = {"mc_study": "fit", "property_catalog": "property call", "real_data_cli": "CLI process"}
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_ms_p50": "ms", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


# -- worker: one fresh interpreter ---------------------------------------------


def _loop(w, seconds, on_round=None):
    """Whole rounds until ``seconds`` of wall time have passed.

    Returns each round's operation records and time spent in operations.
    """
    rounds, k = [], 0
    t0 = time.perf_counter()
    while True:
        rounds.append(w.run_round(k) if on_round is None else on_round(k))
        k += 1
        if time.perf_counter() - t0 >= seconds:
            return rounds


def _peak_rss_mb(w):
    if w.name == "real_data_cli":
        return w.peak_rss_mb
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def plain_run(w, seconds):
    """The end-to-end metrics, each time at the reference host's speed.

    A round's speed factor is its calibrations' time over their time on the
    reference host; its operation times are divided by it.
    """
    nominal = hostspeed.PROCESS_S if w.name == "real_data_cli" else hostspeed.JOB_S
    ops, rates, times, factors = [], [], [], []
    for round_ops, busy in _loop(w, seconds):
        factor = sum(op["cal"] for op in round_ops) / (len(round_ops) * nominal)
        factors.append(factor)
        ops += round_ops
        rates.append(len(round_ops) * factor / busy)
        times += [op["seconds"] / factor for op in round_ops]
    metrics = {
        # the median round resists what the calibration does not catch
        "ops_per_s": statistics.median(rates),
        "op_ms_p50": statistics.median(times) * 1e3,
        "peak_rss_mb": _peak_rss_mb(w),
    }
    return ops, w.check(ops), metrics, factors


def traced_run(w, seed, seconds):
    import layers
    import workloads
    from tracer import Tracer

    _, untraced_busy0 = w.run_round(0)
    tracer = Tracer()
    tracer.install()
    w.tracer = tracer
    regions = {w.name: []}
    round_busy = []

    def traced_round(k):
        lo = len(tracer)
        ops, busy = w.run_round(k)
        regions[w.name].append((k, lo, len(tracer)))
        round_busy.append(busy)
        return ops, busy

    rounds = _loop(w, seconds, traced_round)
    ops = [op for round_ops, _ in rounds for op in round_ops]
    busy = sum(b for _, b in rounds)
    ran, all_ops = {w.name: w}, {w.name: ops}
    problems = w.check(ops)
    # one traced round of each other workload, so every layer is measured
    for name in WORKLOAD_NAMES:
        if name == w.name:
            continue
        probe = ran[name] = workloads.WORKLOADS[name]()
        probe.setup(seed)
        probe.tracer = tracer
        lo = len(tracer)
        all_ops[name], _ = probe.run_round(0)
        regions[name] = [(0, lo, len(tracer))]
        problems += [f"{name} (probe): {p}" for p in probe.check(all_ops[name])]
    import_times = ran["real_data_cli"].import_times
    metrics = layers.layer_metrics(tracer, regions, all_ops, import_times, w.name, busy)
    metrics["trace.overhead_share"] = round_busy[0] / untraced_busy0 - 1.0
    tracer.write(os.path.join(OUT, f"trace-{w.name}-seed{seed}.csv"))
    return ops, problems, metrics


def worker(args):
    sys.path.insert(0, SRC)
    # gtld's own overflow warnings (deep-tail transforms) are not results
    warnings.filterwarnings("ignore", category=RuntimeWarning, module=r"gtld\.")
    import gtld

    if os.path.dirname(os.path.abspath(gtld.__file__)) != os.path.join(SRC, "gtld"):
        raise SystemExit(f"gtld imported from {gtld.__file__}, not from {SRC}")
    import workloads

    os.makedirs(OUT, exist_ok=True)
    w = workloads.WORKLOADS[args.workload]()
    w.calibrate = not args.trace
    w.setup(args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        ops, problems, metrics = traced_run(w, args.seed, args.seconds)
        factors = []
    else:
        ops, problems, metrics, factors = plain_run(w, args.seconds)
    print(json.dumps({
        "backend": gtld.BACKEND,
        "problems": problems,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if not op["ok"]),
        "failures": w.failures(ops),
        "host_factors": factors,
        "metrics": metrics,
    }), flush=True)
    return 0


# -- parent: starts workers, times their set-up ----------------------------------


def _start_worker(args, setup_only):
    cmd = [sys.executable, os.path.abspath(__file__), "--worker",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if line.strip() != "READY":
            raise RuntimeError(f"{args.workload} worker failed during set-up")
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{args.workload} worker exited with {proc.returncode}")
    return setup, out


def run_workload(args):
    """Runs the measuring worker; before it, times ``SETUPS`` set-ups.

    Each set-up worker runs between two calibration processes and its time
    is scaled by their mean, as the operations' times are.
    """
    setups = []
    if not args.trace:
        cal = [hostspeed.process(ROOT)]
        for _ in range(SETUPS):
            setup = _start_worker(args, setup_only=True)[0]
            cal.append(hostspeed.process(ROOT))
            setups.append(setup * 2.0 * hostspeed.PROCESS_S / (cal[-2] + cal[-1]))
    _, out = _start_worker(args, setup_only=False)
    result = json.loads(out.strip().splitlines()[-1])
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    return result, metrics


def summarize(name, result, metrics, units):
    ok = not result["problems"]
    print(f"{name} [{result['backend']} backend, one operation = one {OPERATION[name]}]: "
          f"attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {str(ok).lower()}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    for problem in result["problems"][:20]:
        print(f"  PROBLEM {problem}")
    factors = result["host_factors"]
    if factors:
        print(f"  host speed factor (calibration time / reference) {min(factors):.3g}"
              f" to {max(factors):.3g} over {len(factors)} rounds")
    for key in units:
        print(f"  {key} = {metrics[key]:.6g} {units[key]}")
    return ok


def main(argv=None):
    args = parse_args(argv)
    if args.worker:
        return worker(args)
    if not os.path.isfile(os.path.join(SRC, "gtld", "__init__.py")):
        print(f"error: no gtld sources at {SRC}", file=sys.stderr)
        return 2
    if args.trace:
        import layers

        units = layers.UNITS
    else:
        units = END_TO_END_UNITS
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    final = {}
    all_ok = True
    for name in names:
        result, metrics = run_workload(argparse.Namespace(**dict(vars(args), workload=name)))
        all_ok &= summarize(name, result, metrics, units)
        final[name] = {
            "correct": not result["problems"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }
    print(json.dumps(final[names[0]] if len(names) == 1 else final))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
