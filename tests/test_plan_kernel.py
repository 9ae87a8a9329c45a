"""The per-fit ``Plan`` kernel against the kernel it replaced, bit for bit.

``oracle_objective`` below is the objective kernel as it was before the
plan: every call converted its sample, took log x and built the rank
weights, and computed log G' and its derivatives for every method.  It is
kept here, verbatim with its helpers, as a test-only oracle.  The plan
kernel must return the same value, clamp count and gradient, bit for bit,
for every family, method and sample size, at the numerical extremes, and
through whole fits.
"""

import numpy as np
import pytest

import gtld
from gtld import _kernels
from gtld._kernels import FAMILY_IDS, METHOD_IDS, Plan
from gtld.estimation import METHODS, fit
from gtld.model import SUBFAMILY_IDS, ParamVector, kernel_shapes, model_from_params
from gtld.simulation import replication_seed

from conftest import random_params

_LOG_CLAMP = 1e-300
_BIG = 1e10
_LOG2 = 0.6931471805599453


# -- the oracle: the objective kernel before the per-fit plan ----------------


def _log_u(a):
    """log(1 - e^{-a}) for a >= 0 without cancellation on either branch."""
    return np.where(
        a < _LOG2,
        np.log(-np.expm1(-np.minimum(a, _LOG2))),
        np.log1p(-np.exp(-np.maximum(a, _LOG2))),
    )


def _x_over_expm1(a):
    """a / expm1(a), with its limits 1 at a = 0 and 0 at a = inf."""
    out = a / np.expm1(a)
    return np.where(np.isnan(out), a == 0.0, out)


def _g_parts(fam, s1, s2, x, order):
    """G(x) and its derivatives for family ``fam`` with shapes (s1, s2).

    ``order`` 0 returns G; 1 returns (G, log G'); 2 returns
    (G, log G', dlog_g, dlog_gp), where dlog_g and dlog_gp hold one array
    per shape parameter psi: d log G / d psi and d log G' / d psi.

    Callers hold ``np.errstate(over="ignore")``: gtwe's G = expm1(x^alpha)
    overflows to inf where x^alpha > 709.78, which is the right limit.
    """
    if fam == 0:  # gte: G = x
        if order == 0:
            return x
        lgp = np.zeros_like(x)
        return (x, lgp) if order == 1 else (x, lgp, (), ())
    if fam == 1:  # gtr: G = x^2/2
        G = 0.5 * x * x
        if order == 0:
            return G
        lgp = np.log(x)
        return (G, lgp) if order == 1 else (G, lgp, (), ())
    if fam == 2:  # gtw: G = x^alpha
        lx = np.log(x)
        G = np.exp(s1 * lx)
        if order == 0:
            return G
        lgp = np.log(s1) + (s1 - 1.0) * lx
        return (G, lgp) if order == 1 else (G, lgp, (lx,), (1.0 / s1 + lx,))
    if fam == 3:  # gtmw: G = x^alpha * exp(gamma*x)
        lx = np.log(x)
        G = np.exp(s1 * lx + s2 * x)
        if order == 0:
            return G
        r = s1 + s2 * x
        lgp = (s1 - 1.0) * lx + s2 * x + np.log(r)
        if order == 1:
            return G, lgp
        return G, lgp, (lx, x), (lx + 1.0 / r, x + x / r)
    if fam == 4:  # gtwe: G = exp(x^alpha) - 1
        lx = np.log(x)
        xa = np.exp(s1 * lx)
        G = np.expm1(xa)
        if order == 0:
            return G
        lgp = np.log(s1) + (s1 - 1.0) * lx + xa
        if order == 1:
            return G, lgp
        # d log G / d alpha = lx * x^alpha / (1 - exp(-x^alpha))
        return G, lgp, (lx * _x_over_expm1(-xa),), (1.0 / s1 + lx * (1.0 + xa),)
    if fam == 5:  # gtb12: G = log(1 + x^alpha), alpha*log(x) where x^alpha overflows
        lx = np.log(x)
        xa = np.exp(s1 * lx)
        big = np.isinf(xa)
        G = np.where(big, s1 * lx, np.log1p(xa))
        if order == 0:
            return G
        lgp = np.log(s1) + (s1 - 1.0) * lx - G
        if order == 1:
            return G, lgp
        # x^alpha / G = expm1(G) / G, and d log G / d alpha = 1/alpha where G = alpha*log(x)
        dlg = np.where(big, 1.0 / s1, lx / ((1.0 + xa) * _x_over_expm1(G)))
        return G, lgp, (dlg,), (1.0 / s1 + lx / (1.0 + xa),)
    if fam == 6:  # gtl: G = log(1 + x/alpha)
        G = np.log1p(x / s1)
        if order == 0:
            return G
        r = s1 + x
        lgp = -np.log(r)
        if order == 1:
            return G, lgp
        # x / alpha = expm1(G)
        return G, lgp, (-1.0 / (r * _x_over_expm1(G)),), (-1.0 / r,)
    if fam == 7:  # gtp1: G = log(x/alpha), support (alpha, inf)
        G = np.log(x / s1)
        if order == 0:
            return G
        lgp = -np.log(x)
        if order == 1:
            return G, lgp
        return G, lgp, (-1.0 / (s1 * G),), (np.zeros_like(x),)
    raise ValueError(f"unknown family id {fam}")


def oracle_objective(method, fam, s1, s2, beta, theta, lam, xs, want_grad):
    """The six objectives, and on request their gradients, from shared pieces.

    With a = beta*G, L = log u and v = exp(theta*L), every objective term
    depends on (shapes, beta) only through a, log G' and L, and on theta
    through v (and, for ml, theta itself).  Per point dL/dlog a =
    a/expm1(a) = phi, so dL/dbeta = phi/beta and dL/dpsi = phi * dlog G/dpsi;
    a term Q(L, v) has dQ/dtheta = (dQ/dL) * L/theta.  ``chain`` stacks these
    rows, so the gradient of sum(w*Q) over (shapes, beta, theta) is
    chain @ (w * dQ/dL); the lambda component and ml's terms in log G', a,
    log beta and log theta are added on their own.
    """
    xs = np.asarray(xs, dtype=np.float64)
    n = xs.shape[0]
    order = 2 if want_grad else int(method == 0)
    clamps = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        parts = _g_parts(fam, s1, s2, xs, order)
        G = parts[0] if order else parts
        a = beta * G
        log_u = _log_u(a)
        tl = theta * log_u
        v = np.exp(tl)
        if method == 0:  # ml: negative log-likelihood
            tail = (1.0 + lam) - 2.0 * lam * v
            value = -(
                np.log(theta * beta) + parts[1] - a + (theta - 1.0) * log_u + np.log(tail)
            ).sum()
        else:
            F = v * ((1.0 + lam) - lam * v)
            i = np.arange(1, n + 1, dtype=np.float64)
            if method == 1:  # ols
                resid = F - i / (n + 1)
                wr = resid
                value = (resid**2).sum()
            elif method == 2:  # wls
                w = (n + 1.0) ** 2 * (n + 2.0) / (i * (n - i + 1.0))
                resid = F - i / (n + 1)
                wr = w * resid
                value = (w * resid**2).sum()
            elif method == 3:  # cvm
                resid = F - (2.0 * i - 1.0) / (2.0 * n)
                wr = resid
                value = 1.0 / (12.0 * n) + (resid**2).sum()
            elif method in (4, 5):
                S = -np.expm1(tl) * (1.0 - lam * v)  # (1 - v)(1 - lam v)
                clamps = int(np.count_nonzero(F < _LOG_CLAMP)) + int(
                    np.count_nonzero(S < _LOG_CLAMP)
                )
                Fc = np.maximum(F, _LOG_CLAMP)
                Sc = np.maximum(S, _LOG_CLAMP)
                w = 2.0 * i - 1.0
                if method == 4:  # ad
                    value = -n - (w * (np.log(Fc) + np.log(Sc[::-1]))).sum() / n
                else:  # rtad
                    value = n / 2.0 - 2.0 * F.sum() - (w * np.log(Sc[::-1])).sum() / n
            else:
                raise ValueError(f"unknown method id {method}")
        if not np.isfinite(value):
            return _BIG, clamps, np.zeros(len(parts[2]) + 3) if want_grad else None
        if not want_grad:
            return value, clamps, None

        dlog_g, dlog_gp = parts[2], parts[3]
        k = len(dlog_g)
        phi = _x_over_expm1(a)
        chain = np.empty((k + 2, n))
        for j in range(k):
            # phi = 0 where e^-a underflows (gtwe's G = inf among them), and
            # there d log u / d psi vanishes however large d log G / d psi is
            chain[j] = np.where(phi > 0.0, phi * dlog_g[j], 0.0)
        chain[k] = phi / beta
        # log u = -inf only where u = 0, where every term's theta derivative
        # (a multiple of u^theta log u) vanishes
        chain[k + 1] = np.where(a > 0.0, log_u, 0.0) / theta
        grad = np.empty(k + 3)
        if method == 0:
            # d log f / dL = (theta - 1) - 2 lam theta v / tail
            grad[:-1] = chain @ ((theta - 1.0) - 2.0 * lam * theta * v / tail)
            for j in range(k):
                grad[j] += dlog_gp[j].sum() - a @ dlog_g[j]
            grad[k] += (n - a.sum()) / beta
            grad[k + 1] += (n + log_u.sum()) / theta
            grad[k + 2] = ((1.0 - 2.0 * v) / tail).sum()
            return value, clamps, -grad
        dF_dL = ((1.0 + lam) - 2.0 * lam * v) * theta * v
        dF_dlam = v * -np.expm1(tl)
        if method < 4:  # d sum(w resid^2) = 2 sum(w resid dF)
            q = 2.0 * wr
        else:
            # -sum(w_i log S_{n+1-i}) / n weighs log S_j by -w_{n+1-j} / n;
            # clamped terms have no derivative
            q = np.where(S >= _LOG_CLAMP, w[::-1] / Sc, 0.0) / n
            if method == 4:  # ad
                q -= np.where(F >= _LOG_CLAMP, w / Fc, 0.0) / n
            else:  # rtad
                q -= 2.0
        grad[:-1] = chain @ (q * dF_dL)
        grad[k + 2] = q @ dF_dlam
        return value, clamps, grad


# -- comparisons ---------------------------------------------------------------


def bits(x):
    """The bytes of a float or float array, so that -0.0 != 0.0 and NaN == NaN."""
    return np.asarray(x, dtype=np.float64).tobytes()


def assert_same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        if w is None:
            continue
        if isinstance(w, int):
            assert g == w
        else:
            assert bits(g) == bits(w), (g, w)


def check(method, fam, args, xs):
    """The kernel's core, value alone and value with gradient, on a plan,
    under the errstate a fit holds; and the public kernels, which hold it."""
    mid, fid = METHOD_IDS[method], FAMILY_IDS[fam]
    plan = Plan(xs, fid, mid)
    for want_grad in (False, True):
        want = oracle_objective(mid, fid, *args, xs, want_grad)
        with np.errstate(all="ignore"):
            value, clamps, grad = _kernels._objective(mid, fid, *args, plan, want_grad)
        if want_grad:  # the core hands a fit its gradient as Python floats
            assert type(grad) is list and all(type(g) is float for g in grad)
            grad = np.array(grad)
        assert_same((value, clamps, grad), want)
    assert _kernels.objective(mid, fid, *args, plan) == oracle_objective(
        mid, fid, *args, xs, False
    )[:2]
    assert_same(_kernels.objective_grad(mid, fid, *args, plan), want)


def kernel_args(p):
    return (*kernel_shapes(p.shape.values()), p.beta, p.theta, p.lam)


# -- kernel level ------------------------------------------------------------------


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("n", [1, 2, 50, 400])
def test_random_parameters(family, method, n):
    rng = np.random.default_rng([FAMILY_IDS[family], METHOD_IDS[method], n])
    for _ in range(3):
        p = random_params(family, rng)
        xs = np.sort(model_from_params(family, p).sample(n, seed=int(rng.integers(2**31))))
        # elsewhere than at the sample's parameters too
        q = random_params(family, rng)
        if family == "gtp1":  # inside the support
            q = ParamVector(beta=q.beta, theta=q.theta, lam=q.lam, shape={"alpha": 0.9 * xs[0]})
        check(method, family, kernel_args(q), xs)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize(
    "alpha, beta",
    [
        (130.0, 1e8),  # G = exp(x^alpha) - 1 overflows, and e^-beta*G underflows
        (600.0, 0.5),  # x^alpha underflows to 0 below x = 1, so u = 0 there
        (1e3, 1.0),  # x^alpha itself overflows
        (2.5, 3.0),  # the study's truth, for scale
    ],
)
def test_gtwe_overflow_window(method, alpha, beta):
    xs = np.array([0.2, 0.5, 0.9, 1.0, 1.2, 2.0, 3.0])
    check(method, "gtwe", (alpha, 0.0, beta, 0.5, 0.2), xs)


@pytest.mark.parametrize("method", METHODS)
def test_gtb12_where_x_alpha_overflows(method):
    # alpha*log(x) > 709.78 for the three largest points
    xs = np.array([0.3, 0.8, 1.5, 12.0, 30.0, 80.0])
    assert np.any(300.0 * np.log(xs) > 709.78)
    for beta in (0.01, 1.5):
        check(method, "gtb12", (300.0, 0.0, beta, 1.3, -0.4), xs)


@pytest.mark.parametrize("method", ["ad", "rtad"])
def test_clamped_terms(method):
    # F(1e-8) = 1e-8^40 and S(800) = e^-800 lie below the 1e-300 clamp
    xs = np.array([1e-8, 0.3, 0.7, 1.1, 2.0, 800.0])
    args = (0.0, 0.0, 1.0, 40.0, 0.2)
    assert oracle_objective(METHOD_IDS[method], 0, *args, xs, False)[1] == 2
    check(method, "gte", args, xs)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("fam", sorted(SUBFAMILY_IDS))
def test_support_edge(method, fam):
    # x = 0 (the support edge, and below gtp1's) and a negative point:
    # not finite under ml, the sentinel, whose gradient is zero
    for xs in (np.array([0.0, 0.5, 1.0, 2.0, 3.0]), np.array([-1.0, 0.5, 1.0, 2.0])):
        check(method, fam, (1.3, 0.4, 1.2, 0.8, 0.3), xs)


def test_plan_pieces():
    xs = np.array([0.0, 0.5, 1.0, 2.0, 3.0])
    plan = Plan(xs, FAMILY_IDS["gtwe"], METHOD_IDS["ad"])
    assert len(plan) == 5
    assert plan.xs is not None and plan.target is None
    assert plan.lx[0] == -np.inf
    np.testing.assert_array_equal(plan.w_rev, plan.w[::-1])
    # gte takes no log x; gtr and gtp1 take it for ml only
    assert Plan(xs, FAMILY_IDS["gte"], 0).lx is None
    assert Plan(xs, FAMILY_IDS["gtp1"], 0).lx is not None
    assert Plan(xs, FAMILY_IDS["gtp1"], 1).lx is None


def test_plan_for_another_objective_is_refused():
    plan = Plan(np.array([0.5, 1.0, 2.0]), FAMILY_IDS["gtw"], METHOD_IDS["ols"])
    with pytest.raises(ValueError, match="plan built for"):
        _kernels.objective(METHOD_IDS["wls"], FAMILY_IDS["gtw"], 1.5, 0.0, 1.0, 1.0, 0.0, plan)
    for fam in (-1, 8):
        with pytest.raises(ValueError, match="unknown family"):
            Plan(np.array([1.0]), fam, 0)
    for method in (-1, 6):
        with pytest.raises(ValueError, match="unknown method"):
            Plan(np.array([1.0]), 0, method)


# -- fit level -----------------------------------------------------------------


def _oracle_kernels(monkeypatch):
    """The oracle in place of the kernel core that ``fit`` calls, handing
    back what the core hands back: the gradient as Python floats."""

    def kernel(method, fam, s1, s2, beta, theta, lam, plan, want_grad):
        value, clamps, grad = oracle_objective(
            method, fam, s1, s2, beta, theta, lam, plan.xs, want_grad
        )
        return value, clamps, None if grad is None else grad.tolist()

    monkeypatch.setattr(_kernels, "_objective", kernel)


def test_study_block_fits_equal_under_the_oracle(monkeypatch):
    # block 20240811 of the benchmark's Monte Carlo study: gtwe at the
    # truth, n = 50 and 400, two replications, six methods, truth start
    truth = ParamVector(beta=3.0, theta=0.5, lam=0.2, shape={"alpha": 2.5})
    model = model_from_params("gtwe", truth)

    def block():
        out = []
        for n in (50, 400):
            for r in range(2):
                seed = replication_seed(20240811, n, r)
                sample = model.sample(n, seed)
                for method in METHODS:
                    out.append(fit(sample, "gtwe", method=method, init=truth,
                                   seed=seed ^ 0xA5A5, n_starts=1))
        return out

    planned = block()
    _oracle_kernels(monkeypatch)
    assert block() == planned
    assert len(planned) == 24


@pytest.mark.parametrize("data", ["gauge", "failure"])
def test_real_data_fits_equal_under_the_oracle(monkeypatch, data):
    # multistart heuristic fits, the Nelder-Mead rescue and gtp1's support
    # penalty among them, with the standard errors of the ml fits
    xs = gtld.load_values(data)
    cases = [(fam, m) for fam in ("gtw", "gtmw", "gtp1") for m in ("ml", "ad")]
    planned = [fit(xs, fam, method=m) for fam, m in cases]
    _oracle_kernels(monkeypatch)
    assert [fit(xs, fam, method=m) for fam, m in cases] == planned
