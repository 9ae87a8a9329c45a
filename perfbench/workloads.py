"""The three benchmark workloads: inputs from a seed, whole rounds, checks.

Each workload is a closed loop: one operation at a time.  A run repeats
whole *rounds* of operations; round ``k`` of a run with seed ``s`` is fully
determined by ``(s, k)``, so equal seeds give equal inputs and every round
has the same make-up (which keeps the failed share of a run constant).

An operation record is a dict with at least ``seconds`` (wall time of the
operation), ``ok`` (False when the operation failed) and the data its
check needs.  ``check`` returns a list of problems; empty means correct.

With ``calibrate`` set (untraced runs), each operation is followed by a
calibration of the host's speed (``hostspeed``), whose time goes in the
record's ``cal`` and is left out of the round's busy time.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
import time

import numpy as np

import hostspeed
import reference as ref

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench_out")


def close(got, want, rtol, atol=0.0):
    return abs(got - want) <= atol + rtol * abs(want)


# -- mc_study ----------------------------------------------------------------


class McStudy:
    """``run_simulation`` on the paper's gtwe truth, n = 50 and n = 400.

    One round is the whole of one fixed study: ``BLOCKS`` ``run_simulation``
    calls, block b with master seed 20240811 + b (the paper's master seed
    plus b), each with ``REPLICATIONS`` replications per size, all six
    methods, ``start="truth"`` and one start: 144 fits.  The seed sets the
    order of the blocks within each round.  One operation is one fit, timed
    through a thin wrapper around the ``fit`` the harness calls, so the
    harness itself stays in the measured path.

    Every round fits the same samples, so every run sees the same fits
    whatever its seed and length.  Fit cost is heavy tailed (a few fits take
    ten times the median); independent samples per seed moved fits/s by
    more than 15% from seed to seed.

    A fit that returns ``converged=False`` is a failed operation: the study
    counts it in its cell's ``failure_count``, which should be 0.  Two fits
    of the study do so every time (see CHANGES.md); the summary names the
    cells.  With two replications a cell whose replications both fail would
    abort ``run_simulation``; none does.
    """

    name = "mc_study"
    calibrate = False
    TRUTH = {"alpha": 2.5, "beta": 3.0, "theta": 0.5, "lam": 0.2}
    SIZES = (50, 400)
    REPLICATIONS = 2
    MASTER_SEED = 20240811
    BLOCKS = 6

    def setup(self, seed):
        import gtld
        import gtld.simulation

        self.gtld = gtld
        self.sim = gtld.simulation
        self.seed = seed
        t = self.TRUTH
        self.truth = gtld.ParamVector(
            beta=t["beta"], theta=t["theta"], lam=t["lam"], shape={"alpha": t["alpha"]}
        )
        self.results = []  # (round, master seed, SimResult)
        self._records = []
        inner = self.sim.fit

        def timed_fit(sample, family, method="ml", **kw):
            t0 = time.perf_counter()
            rec = {"method": method, "n": len(sample), "sample": sample, "ok": False}
            self._records.append(rec)
            try:
                res = inner(sample, family, method=method, **kw)
                rec["result"] = res
                rec["ok"] = bool(res.converged)
                if not rec["ok"]:
                    rec["error"] = f"{method}/n={len(sample)}: converged=False"
                return res
            except Exception as exc:
                rec["error"] = f"{type(exc).__name__}: {exc}"
                rec["raised"] = True
                raise
            finally:
                rec["seconds"] = time.perf_counter() - t0
                if self.calibrate:
                    rec["cal"] = hostspeed.job()

        self.sim.fit = timed_fit
        # warm-up: one fit per method on a fixed n = 50 sample
        sample = gtld.model_from_params("gtwe", self.truth).sample(50, self.MASTER_SEED)
        for method in gtld.METHODS:
            gtld.fit(sample, "gtwe", method=method, init=self.truth, n_starts=1)

    def run_round(self, k):
        ops = []
        busy = 0.0
        for b in np.random.default_rng([self.seed, k]).permutation(self.BLOCKS):
            master_seed = self.MASTER_SEED + int(b)
            config = self.gtld.SimConfig(
                truth=self.truth,
                family="gtwe",
                sample_sizes=self.SIZES,
                replications=self.REPLICATIONS,
                methods=self.gtld.METHODS,
                master_seed=master_seed,
                n_starts=1,
                start="truth",
            )
            self._records = []
            t0 = time.perf_counter()
            self.results.append((k, master_seed, self.sim.run_simulation(config)))
            busy += time.perf_counter() - t0 - sum(rec.get("cal", 0.0) for rec in self._records)
            for rec in self._records:
                rec["round"], rec["block"] = k, master_seed
            ops += self._records
        return ops, busy

    def check(self, ops):
        problems = []
        unconverged = {}
        for rec in ops:
            key = (rec["round"], rec["block"], rec["method"], rec["n"])
            if rec.get("raised"):
                problems.append(f"round {key[0]} block {key[1]} {key[2]}/n={key[3]}: {rec['error']}")
            elif not rec["ok"]:
                unconverged[key] = unconverged.get(key, 0) + 1
        for k, block, result in self.results:
            for (m, n), cell in result.cells.items():
                tag = f"round {k} block {block} cell {m}/n={n}"
                want = unconverged.get((k, block, m, n), 0)
                if cell.failure_count != want:
                    problems.append(
                        f"{tag}: failure_count {cell.failure_count}, "
                        f"but {want} fits did not converge"
                    )
                if np.any(np.sqrt(cell.mse) < cell.abs_bias * (1.0 - 1e-12)):
                    problems.append(f"{tag}: sqrt(MSE) < |bias|")
        for rec in ops:
            if not rec["ok"]:
                continue
            res = rec["result"]
            est = res.estimates
            p = {"alpha": est.shape["alpha"], "beta": est.beta, "theta": est.theta, "lam": est.lam}
            at_est = ref.objective(rec["method"], "gtwe", p, rec["sample"])
            at_truth = ref.objective(rec["method"], "gtwe", self.TRUTH, rec["sample"])
            tag = f"round {rec['round']} block {rec['block']} {rec['method']}/n={rec['n']}"
            if not close(at_est, res.objective_value, 1e-8, 1e-12):
                problems.append(
                    f"{tag}: objective {res.objective_value!r} != reference {at_est!r}"
                )
            if at_est > at_truth + 1e-12 * abs(at_truth):
                problems.append(f"{tag}: objective at estimate {at_est} > at truth {at_truth}")
        return problems

    def failures(self, ops):
        """The cells that break failure_count == 0, once per block."""
        seen = {}
        for k, block, result in self.results:
            for (m, n), cell in result.cells.items():
                if cell.failure_count:
                    seen[(block, m, n)] = cell.failure_count
        return [f"block {b} cell {m}/n={n}: failure_count {c} (fits returned converged=False)"
                for (b, m, n), c in sorted(seen.items())]


# -- property_catalog ----------------------------------------------------------


# ranges of (beta, theta, lam, alpha, gamma) per family
_RANGES = {
    "light": ((0.5, 2.0), (0.6, 3.0), (-0.9, 0.9), (0.8, 3.0), (0.05, 1.0)),
    "gtb12": ((1.5, 4.0), (0.6, 3.0), (-0.9, 0.9), (1.0, 3.0), None),
    "gtl": ((3.0, 6.0), (0.6, 3.0), (-0.9, 0.9), (0.5, 3.0), None),
    "gtp1": ((3.0, 6.0), (0.6, 3.0), (-0.9, 0.9), (0.5, 2.0), None),
}
# Roberts' additive recurrence in 5 dimensions, steps 1/phi^j with phi the
# root of x^6 = x + 1: consecutive rounds spread evenly over the parameter
# box, so runs with different seeds see alike mixes of cheap and costly cases
_PHI5 = 1.1347241384015194
_STEPS = [_PHI5 ** -(j + 1) for j in range(5)]


def _draw_params(fam, rng, k, shift):
    """Round ``k``'s parameter set for ``fam``; its whole catalog exists."""
    u = [(s + (k + 1) * g) % 1.0 for s, g in zip(shift, _STEPS)]
    ranges = _RANGES.get(fam, _RANGES["light"])
    names = ("beta", "theta", "lam") + ref.SHAPES[fam]
    while True:
        p = {n: lo + ui * (hi - lo) for n, ui, (lo, hi) in zip(names, u, ranges)}
        # E[X^2] needs tail index >= 3; f^rho needs k*theta well above 1/2
        if ref.tail_index(fam, p) >= 3.5 and ref.edge_order(fam, p) * p["theta"] >= 0.6:
            return p
        u = rng.random(5)


def _entropy_order(fam, p, rng, low, high):
    """An order rho (|rho - 1| >= 0.1) for which integral(f^rho) exists."""
    k_theta = ref.edge_order(fam, p) * p["theta"]
    while True:
        rho = rng.uniform(low, high)
        if abs(rho - 1.0) < 0.1:
            continue
        edge_ok = rho * (k_theta - 1.0) > -0.8
        tail_ok = rho * (ref.tail_index(fam, p) + 1.0) > 1.5
        if edge_ok and tail_ok:
            return rho


class PropertyCatalog:
    """The property catalog on all eight families at seeded parameters.

    One round draws one parameter set per family and evaluates raw moments
    (r = 1, 2), an incomplete moment, PWM(1, 1), the MGF, Renyi and q
    entropies, the residual and reversed residual mean life, CIGF(1, 1) and
    the quantile measures on each; three heavy-tailed cases whose second
    moment provably diverges (correct outcome: ``DivergenceError``); and
    the exponential case theta = 1, lam = 0, which has closed forms.
    One operation is one property call.

    gtwe's density overflows to inf where x^alpha is just below 709.78 (see
    CHANGES.md), and an integral over an unbounded range whose quadrature
    nodes land there comes out non-finite.  That happens for about one
    parameter set in 150, which would make the failed share of a run depend
    on its seed; so gtwe's seven such calls run at one fixed parameter set
    where the fault shows every time (``GTWE_FAULT``), and count as failed
    operations while it does.  gtwe's other calls use seeded parameters.
    """

    name = "property_catalog"
    calibrate = False
    FAMILIES = ("gte", "gtr", "gtw", "gtmw", "gtwe", "gtb12", "gtl", "gtp1")
    GTWE_FAULT = {"beta": 1.2511, "theta": 0.72527, "lam": 0.060553, "alpha": 1.51371}
    UNBOUNDED = ("raw_moment", "pwm", "mgf", "renyi_entropy", "q_entropy", "residual_moment")

    def setup(self, seed):
        import gtld
        import gtld.properties

        self.gtld = gtld
        self.props = gtld.properties
        self.seed = seed
        shifts = np.random.default_rng([seed, 2**31]).random((len(self.FAMILIES), 5))
        self.shifts = dict(zip(self.FAMILIES, shifts))
        # warm-up: the exponential round on fixed inputs
        for spec in self._exp_specs(np.random.default_rng(0)):
            self._call(spec)

    def _model(self, fam, p):
        shape = {n: p[n] for n in ref.SHAPES[fam]}
        return self.gtld.make_model(fam, beta=p["beta"], theta=p["theta"], lam=p["lam"], **shape)

    def _exp_specs(self, rng):
        p = {"beta": rng.uniform(0.5, 2.0), "theta": 1.0, "lam": 0.0}
        rho = _entropy_order("gte", p, rng, 0.5, 2.5)
        t = rng.uniform(0.2, 0.6) * p["beta"]
        return [
            ("gte", p, "raw_moment", (2,), "closed"),
            ("gte", p, "renyi_entropy", (rho,), "closed"),
            ("gte", p, "mgf", (t,), "closed"),
        ]

    def round_specs(self, k):
        rng = np.random.default_rng([self.seed, k])
        specs = []
        for fam in self.FAMILIES:
            p = _draw_params(fam, rng, k, self.shifts[fam])
            rho = _entropy_order(fam, p, rng, 0.5, 2.5)
            # q-entropy needs integral(f^q) < 1: a q > 1 suits spread
            # densities, a q < 1 peaked ones
            while True:
                q = _entropy_order(fam, p, rng, 1.5, 3.0)
                if ref.density_power(fam, p, q) < 0.9:
                    break
                q = _entropy_order(fam, p, rng, 0.3, 0.7)
                if ref.density_power(fam, p, q) < 0.9:
                    break
                p = _draw_params(fam, rng, k, rng.random(5))
                rho = _entropy_order(fam, p, rng, 0.5, 2.5)
            if fam == "gte":
                t = rng.uniform(0.2, 0.6) * p["beta"]
            elif fam in ("gtr", "gtwe", "gtmw"):
                t = rng.uniform(0.2, 1.0)
            else:
                t = -rng.uniform(0.2, 1.0)
            z = ref.quantile(fam, p, rng.uniform(0.2, 0.9))
            t_res = ref.quantile(fam, p, rng.uniform(0.2, 0.8))
            t_rev = ref.quantile(fam, p, rng.uniform(0.2, 0.8))
            r_inc = int(rng.integers(1, 3))
            specs += [
                (fam, p, "raw_moment", (1,), "value"),
                (fam, p, "raw_moment", (2,), "value"),
                (fam, p, "incomplete_moment", (r_inc, z), "value"),
                (fam, p, "pwm", (1, 1), "value"),
                (fam, p, "mgf", (t,), "value"),
                (fam, p, "renyi_entropy", (rho,), "value"),
                (fam, p, "q_entropy", (q,), "value"),
                (fam, p, "residual_moment", (1, t_res), "value"),
                (fam, p, "reversed_residual_moment", (1, t_rev), "value"),
                (fam, p, "cigf", (1, 1), "value"),
                (fam, p, "quantile_measures", (), "value"),
            ]
        fault = self.GTWE_FAULT
        specs = [spec for spec in specs if spec[0] != "gtwe" or spec[2] not in self.UNBOUNDED]
        specs += [
            ("gtwe", fault, "raw_moment", (1,), "fault"),
            ("gtwe", fault, "raw_moment", (2,), "fault"),
            ("gtwe", fault, "pwm", (1, 1), "fault"),
            ("gtwe", fault, "mgf", (0.5,), "fault"),
            ("gtwe", fault, "renyi_entropy", (1.5,), "fault"),
            ("gtwe", fault, "q_entropy", (2.0,), "fault"),
            ("gtwe", fault, "residual_moment", (1, 0.5), "fault"),
        ]
        # heavy tails with lam < 1: E[X^2] diverges once the tail index
        # is <= 1.2, well clear of the boundary at 2
        for fam in ("gtl", "gtp1", "gtb12"):
            p = {
                "theta": rng.uniform(0.6, 3.0),
                "lam": rng.uniform(-0.9, 0.9),
                "alpha": rng.uniform(0.5, 1.5) if fam == "gtb12" else rng.uniform(0.5, 3.0),
            }
            p["beta"] = rng.uniform(0.3, 1.2 / p["alpha"] if fam == "gtb12" else 1.2)
            specs.append((fam, p, "raw_moment", (2,), "diverge"))
        return specs + self._exp_specs(rng)

    def _call(self, spec):
        fam, p, fn, args, expect = spec
        model = self._model(fam, p)
        rec = {"spec": spec, "ok": False}
        t0 = time.perf_counter()
        try:
            if fn == "quantile_measures":
                rec["value"] = tuple(model.quantile_measures())
            else:
                rec["value"] = getattr(self.props, fn)(model, *args)
            rec["ok"] = bool(np.all(np.isfinite(rec["value"])))
            if not rec["ok"]:
                rec["error"] = f"non-finite result {rec['value']!r}"
        except self.props.DivergenceError as exc:
            rec["ok"] = expect == "diverge"
            rec["error"] = f"DivergenceError: {exc}"
        except Exception as exc:  # a failed operation is counted, not fatal
            rec["error"] = f"{type(exc).__name__}: {exc}"
        rec["seconds"] = time.perf_counter() - t0
        return rec

    def run_round(self, k):
        specs = self.round_specs(k)
        ops = []
        t0 = time.perf_counter()
        for spec in specs:
            rec = self._call(spec)
            rec["round"] = k
            if self.calibrate:
                rec["cal"] = hostspeed.job()
            ops.append(rec)
        return ops, time.perf_counter() - t0 - sum(rec.get("cal", 0.0) for rec in ops)

    def check(self, ops):
        problems = []
        for rec in ops:
            if rec["ok"]:
                problems += self._check_one(rec)
            elif rec["spec"][4] != "fault" or "inf" not in rec["error"]:
                # the fixed gtwe calls may fail only through the overflow
                fam, _, fn, args, _ = rec["spec"]
                problems.append(f"round {rec['round']} {fam} {fn}{args}: {rec['error']}")
        return problems

    @staticmethod
    def failures(ops):
        """The fixed gtwe calls that fail, once per call."""
        seen = {}
        for rec in ops:
            if not rec["ok"]:
                fam, _, fn, args, _ = rec["spec"]
                seen.setdefault(f"{fam} {fn}{args} at {PropertyCatalog.GTWE_FAULT}", rec["error"])
        return [f"{call}: {error}" for call, error in seen.items()]

    @staticmethod
    def _expected(fam, p, fn, args):
        if fn == "raw_moment":
            return ref.raw_moment(fam, p, args[0])
        if fn == "incomplete_moment":
            return ref.incomplete_moment(fam, p, *args)
        if fn == "pwm":
            return ref.pwm_11(fam, p)
        if fn == "mgf":
            return ref.mgf(fam, p, args[0])
        if fn == "renyi_entropy":
            return ref.renyi_entropy(fam, p, args[0])
        if fn == "q_entropy":
            return ref.q_entropy(fam, p, args[0])
        if fn == "residual_moment":
            return ref.mean_residual_life(fam, p, args[1])
        if fn == "reversed_residual_moment":
            return ref.mean_waiting_time(fam, p, args[1])
        if fn == "cigf":
            return ref.cigf_11(fam, p)
        raise ValueError(fn)

    def _check_one(self, rec):
        fam, p, fn, args, expect = rec["spec"]
        tag = f"round {rec['round']} {fam} {fn}{args}"
        if expect == "diverge":
            if "value" in rec:
                return [f"{tag}: returned {rec['value']!r}, expected DivergenceError"]
            return []
        got = rec["value"]
        if fn == "quantile_measures":
            med_cdf = float(ref.cdf(fam, p, got[0]))
            want = ref.quantile_measures(fam, p)
            out = []
            if not close(med_cdf, 0.5, 0.0, 1e-9):
                out.append(f"{tag}: F(median) = {med_cdf!r}")
            if not all(close(g, w, 1e-8, 1e-10) for g, w in zip(got, want)):
                out.append(f"{tag}: {got!r} != reference {want!r}")
            return out
        if expect == "closed":
            beta = p["beta"]
            if fn == "raw_moment":
                r = args[0]
                want = math.factorial(r) / beta**r
            elif fn == "renyi_entropy":
                rho = args[0]
                want = math.log(rho) / (rho - 1.0) - math.log(beta)
            else:
                want = beta / (beta - args[0])
            if not close(got, want, 1e-7, 1e-10):
                return [f"{tag}: {got!r} != closed form {want!r}"]
        want = self._expected(fam, p, fn, args)
        if not close(got, want, 1e-6, 1e-10):
            return [f"{tag}: {got!r} != reference {want!r}"]
        return []


# -- real_data_cli ---------------------------------------------------------------

FITS = (
    ("gauge", "gtwe"),
    ("gauge", "gtw"),
    ("gauge", "gte"),
    ("failure", "gte"),
    ("failure", "gtl"),
    ("failure", "gtw"),
)
# numpy.bool from estimation._success reaches json.dumps in cli._emit
KNOWN_FAILURE = ("gauge", "gtwe")
PROPS_MODELS = (("failure", "gte"), ("failure", "gtw"), ("gauge", "gtw"), ("gauge", "gte"))
PUBLISHED_NEG2 = {("gauge", "gtwe"): 102.26, ("failure", "gte"): 300.66}
AIC_ORDER = {"failure": ("gte", "gtl", "gtw"), "gauge": ("gtwe", "gtw", "gte")}
PRECISION = 15


def _cli_params(fam, est):
    names = ref.SHAPES[fam] + ("beta", "theta", "lambda")
    return ",".join(repr(est[n]) for n in names)


def _ref_params(fam, est):
    p = {n: est[n] for n in ref.SHAPES[fam]}
    p.update(beta=est["beta"], theta=est["theta"], lam=est["lambda"])
    return p


def _import_times(stderr):
    """(gtld, scipy.optimize) cumulative import seconds from -X importtime.

    scipy loads ``optimize`` lazily, so the package has no line of its own:
    its time is the sum over the shallowest ``scipy.optimize.*`` lines.
    """
    lines = []
    for line in stderr.splitlines():
        fields = line.split("|")
        if line.startswith("import time:") and len(fields) == 3 and fields[1].strip().isdigit():
            name = fields[2].rstrip()
            depth = len(name) - len(name.lstrip())
            lines.append((depth, name.strip(), int(fields[1]) * 1e-6))
    gtld_s = next(cum for _, name, cum in lines if name == "gtld")
    opt = [(d, cum) for d, name, cum in lines if name.startswith("scipy.optimize")]
    top = min(d for d, _ in opt)
    return gtld_s, sum(cum for d, cum in opt if d == top)


class RealDataCli:
    """The paper's two real-data analyses, one cold CLI process per operation.

    One round: ``fit --method ml`` for gtwe, gtw, gte on ``gauge`` and gte,
    gtl, gtw on ``failure`` (in a seeded order), then one ``props`` and one
    ``curves`` call on a model fitted in that round (seeded choice of model
    and of property orders and grid).  The fits use the CLI defaults, so
    they do not depend on the seed.
    """

    name = "real_data_cli"
    calibrate = False
    tracer = None  # set after set-up for a traced run

    def setup(self, seed):
        import gtld  # noqa: F401  (set-up pays the import like the other workloads)

        self.seed = seed
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.peak_rss_mb = 0.0  # the largest CLI process
        self.import_times = []
        with open(os.path.join(SRC, "gtld", "schemas", "fit_report.schema.json")) as fh:
            import jsonschema

            self.validator = jsonschema.Draft7Validator(json.load(fh))
        # warm-up: one cold process of each kind, so the file cache and bytecode are warm
        self._invoke(["curves", "--family", "gte", "--params", "1,1,0", "--grid", "0.1:1:3"])
        hostspeed.process(ROOT)

    def _invoke(self, args):
        args = ["--precision", str(PRECISION)] + args
        if self.tracer is not None:
            return self._invoke_traced(args)
        t0 = time.perf_counter()
        proc = self._run([sys.executable, "-m", "gtld.cli"] + args)
        return proc, time.perf_counter() - t0

    def _run(self, cmd):
        """Runs one CLI process to its end and notes its peak resident set.

        The calibration processes are children too, so the children's
        ``getrusage`` would mix them in; ``wait4`` gives this child's alone.
        """
        with tempfile.TemporaryFile("w+", dir=OUT) as out, \
                tempfile.TemporaryFile("w+", dir=OUT) as err:
            proc = subprocess.Popen(cmd, env=self.env, stdout=out, stderr=err, cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
            out.seek(0)
            err.seek(0)
            return subprocess.CompletedProcess(cmd, proc.returncode, out.read(), err.read())

    def _invoke_traced(self, args):
        """The same call through cli_child.py, with -X importtime."""
        spans = os.path.join(OUT, f"cli-{os.getpid()}.csv")
        cmd = [sys.executable, "-X", "importtime", os.path.join(HERE, "cli_child.py"), spans]
        idx = self.tracer.begin("process.cli")
        t0 = time.perf_counter()
        proc = self._run(cmd + args)
        secs = time.perf_counter() - t0
        self.tracer.end(idx)
        self.tracer.adopt(self.tracer.read(spans), parent=idx)
        os.remove(spans)
        self.import_times.append(_import_times(proc.stderr))
        return proc, secs

    def run_round(self, k):
        rng = np.random.default_rng([self.seed, k])
        order = [FITS[i] for i in rng.permutation(len(FITS))]
        ops = []
        t0 = time.perf_counter()
        fitted = {}
        for data, fam in order:
            proc, secs = self._invoke(["fit", "--data", data, "--family", fam, "--method", "ml"])
            rec = {"kind": "fit", "key": (data, fam), "round": k, "seconds": secs,
                   "rc": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
                   "cal": self._calibration()}
            rec["ok"] = proc.returncode == 0
            if rec["ok"]:
                fitted[(data, fam)] = json.loads(proc.stdout)["estimates"]
            ops.append(rec)
        data, fam = PROPS_MODELS[int(rng.integers(len(PROPS_MODELS)))]
        est = fitted.get((data, fam))
        if est is None:  # the fit itself failed and was counted
            return ops, self._busy(ops, t0)
        p = _ref_params(fam, est)
        t_res = ref.quantile(fam, p, rng.uniform(0.2, 0.8))
        t_rev = ref.quantile(fam, p, rng.uniform(0.2, 0.8))
        rho = _entropy_order(fam, p, rng, 0.5, 2.5)
        props_args = ["props", "--family", fam, "--params", _cli_params(fam, est),
                      "--moment", "1", "--moment", "2", "--quantiles",
                      "--residual", f"1,{t_res!r}", "--reversed-residual", f"1,{t_rev!r}",
                      "--cigf", "1,1", "--renyi", repr(rho)]
        lo, hi = ref.quantile(fam, p, 0.001), ref.quantile(fam, p, 0.999)
        count = int(rng.integers(100, 301))
        curves_args = ["curves", "--family", fam, "--params", _cli_params(fam, est),
                       "--grid", f"{lo!r}:{hi!r}:{count}"]
        for kind, args, extra in (("props", props_args, (t_res, t_rev, rho)),
                                  ("curves", curves_args, None)):
            proc, secs = self._invoke(args)
            ops.append({"kind": kind, "key": (data, fam), "round": k, "seconds": secs,
                        "rc": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
                        "cal": self._calibration(), "ok": proc.returncode == 0,
                        "p": p, "extra": extra})
        return ops, self._busy(ops, t0)

    def _calibration(self):
        return hostspeed.process(ROOT) if self.calibrate else 0.0

    @staticmethod
    def _busy(ops, t0):
        return time.perf_counter() - t0 - sum(rec["cal"] for rec in ops)

    @staticmethod
    def expected_failure(rec):
        """The one operation that fails today, on inputs no seed changes."""
        return (
            rec["kind"] == "fit"
            and rec["key"] == KNOWN_FAILURE
            and rec["rc"] == 1
            and "is not JSON serializable" in rec["stderr"]
        )

    @staticmethod
    def failures(ops):
        """Each failing CLI call once, with the last line of its stderr."""
        seen = {}
        for rec in ops:
            if not rec["ok"]:
                last = rec["stderr"].strip().splitlines()[-1:] or [""]
                seen.setdefault(f"{rec['kind']} {rec['key']}: exit {rec['rc']}: {last[0]}", None)
        return list(seen)

    def check(self, ops):
        problems = []
        by_round = {}
        for rec in ops:
            tag = f"round {rec['round']} {rec['kind']} {rec['key']}"
            if not rec["ok"]:
                if not self.expected_failure(rec):
                    problems.append(f"{tag}: exit {rec['rc']}: {rec['stderr'][-300:]}")
                continue
            try:
                if rec["kind"] == "fit":
                    report = json.loads(rec["stdout"])
                    by_round.setdefault(rec["round"], {})[rec["key"]] = report
                    problems += [f"{tag}: {p}" for p in self._check_fit(rec["key"], report)]
                elif rec["kind"] == "props":
                    problems += [f"{tag}: {p}" for p in self._check_props(rec)]
                else:
                    problems += [f"{tag}: {p}" for p in self._check_curves(rec)]
            except (ValueError, KeyError, IndexError) as exc:
                problems.append(f"{tag}: unreadable output ({type(exc).__name__}: {exc})")
        for k, reports in by_round.items():
            for data, order in AIC_ORDER.items():
                keys = [(data, fam) for fam in order]
                if all(key in reports for key in keys):
                    aics = [reports[key]["aic"] for key in keys]
                    if not aics == sorted(aics) or len(set(aics)) != len(aics):
                        problems.append(f"round {k} {data}: AIC order {order} broken: {aics}")
                elif data == "failure":
                    problems.append(f"round {k} failure: a fit is missing")
        return problems

    def _check_fit(self, key, report):
        out = [f"schema: {e.message}" for e in self.validator.iter_errors(report)]
        data, fam = key
        from gtld.datasets import load_values  # only the embedded data, not the code under test

        x = load_values(data)
        p = _ref_params(fam, report["estimates"])
        want = 2.0 * ref.objective("ml", fam, p, x)
        if not close(report["neg2_loglik"], want, 1e-9):
            out.append(f"neg2_loglik {report['neg2_loglik']!r} != reference {want!r}")
        bound = PUBLISHED_NEG2.get(key)
        if bound is not None and not report["neg2_loglik"] <= bound:
            out.append(f"neg2_loglik {report['neg2_loglik']} above the published {bound}")
        return out

    @staticmethod
    def _check_props(rec):
        fam, p = rec["key"][1], rec["p"]
        t_res, t_rev, rho = rec["extra"]
        got = json.loads(rec["stdout"])
        q = got["quantiles"]
        want = {
            "moment_1": ref.raw_moment(fam, p, 1),
            "moment_2": ref.raw_moment(fam, p, 2),
            f"residual_1,{t_res!r}": ref.mean_residual_life(fam, p, t_res),
            f"reversed_residual_1,{t_rev!r}": ref.mean_waiting_time(fam, p, t_rev),
            "cigf_1,1": ref.cigf_11(fam, p),
            f"renyi_{rho:g}": ref.renyi_entropy(fam, p, rho),
        }
        out = []
        for key, w in want.items():
            if not close(got[key], w, 1e-6, 1e-10):
                out.append(f"{key} = {got[key]!r}, reference {w!r}")
        med_cdf = float(ref.cdf(fam, p, q["median"]))
        if not close(med_cdf, 0.5, 0.0, 1e-9):
            out.append(f"F(median) = {med_cdf!r}")
        return out

    @staticmethod
    def _check_curves(rec):
        fam, p = rec["key"][1], rec["p"]
        lines = rec["stdout"].strip().splitlines()
        if lines[0] != "x,pdf,cdf,hazard":
            return [f"header {lines[0]!r}"]
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        x = rows[:, 0]
        f, F, S = ref.pdf(fam, p, x), ref.cdf(fam, p, x), ref.sf(fam, p, x)
        out = []
        for j, (name, want) in enumerate((("pdf", f), ("cdf", F), ("hazard", f / S)), start=1):
            bad = ~np.isclose(rows[:, j], want, rtol=1e-9, atol=1e-14)
            if np.any(bad):
                i = int(np.argmax(bad))
                out.append(f"{name}({x[i]!r}) = {rows[i, j]!r}, reference {want[i]!r}")
        return out


WORKLOADS = {w.name: w for w in (McStudy, PropertyCatalog, RealDataCli)}
