"""Parameter estimation: maximum likelihood and five minimum-distance methods.

All six objectives are minimized with BFGS in unconstrained coordinates
(log for the positive parameters, atanh for the transmutation parameter),
so every iterate corresponds to a valid parameter vector.  ``fit`` runs a
small multi-start: a moment-matched heuristic plus jittered restarts.
The optimizers (BFGS, and the Nelder-Mead rescue of a stalled start) are
the package's own ``_optim``, ported from SciPy and bit-identical to it, so
fitting needs NumPy only.

A fit builds its objective's sample-only pieces once, in a
``_kernels.Plan``: the sorted sample, log x where the family uses it, and
the rank weights of the distance methods.  Every evaluation of that fit
takes the plan: BFGS's values and gradients and the Nelder-Mead rescue's
values through one function of the optimizer coordinates, and the final
clamp count of ad and rtad, the only objectives with clamped terms.  The
standard errors build an ml plan for their Hessian, and the theta helpers
take u and the theta score from the kernels as well.

A fit holds one ``np.errstate`` (divide, invalid, over and under ignored)
around all its starts, the Nelder-Mead rescue and the clamp count, and
its evaluations call the kernels' core ``_kernels._objective`` directly,
under that errstate; the standard errors do the same for their Hessian.
The public objective functions below go through ``_kernels.objective``
and ``objective_grad``, which hold their own.  Around each kernel call a
fit does as little as it can: one exp of the log coordinates (skipping
their clip when none leaves it), the chain rule on the Python floats the
kernel hands back, and one array for the gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, _optim
from ._kernels import _BIG
from .model import (
    SUBFAMILY_SHAPES, ParamVector, SupportError, _check_shapes, kernel_shapes, model_from_params,
)

METHODS = tuple(_kernels.METHOD_IDS)

_LAM_CAP = 1.0 - 1e-10  # |lambda| bound inside the atanh coordinates


class FitError(RuntimeError):
    """No optimizer start produced a usable result."""


@dataclass(frozen=True)
class FitResult:
    estimates: ParamVector
    std_errors: tuple | None
    objective_value: float
    converged: bool
    iterations: int
    method: str
    family: str
    clamp_count: int = 0
    n_starts: int = 1
    # objective plus gradient evaluations over every optimizer call of every start
    evaluations: int = 0
    # the Nelder-Mead rescue ran on the start that was returned
    rescued: bool = False
    # optimizer steps whose gradient overflowed and were taken as non-finite values
    gradient_fallbacks: int = 0


def _decode(zl):
    """Optimizer coordinates, a list of floats -> ([shape values..., beta,
    theta], lam).

    The log coordinates are clipped to +-700 so exp neither overflows nor
    underflows to 0: every z decodes to a valid parameter vector.  Inside
    that range the clip is skipped: it changes nothing there, and a NaN
    passes it unchanged.
    """
    logs = zl[:-1]
    if not (min(logs) >= -700.0 and max(logs) <= 700.0):
        logs = np.minimum(np.maximum(logs, -700.0), 700.0)
    return np.exp(logs).tolist(), math.tanh(zl[-1])


@dataclass(frozen=True)
class TransformedParams:
    """Unconstrained image of a ParamVector for a given sub-family.

    Positive parameters travel in log space, lambda in atanh space with
    |lambda| capped just inside 1 so the map stays invertible.
    """

    family: str
    z: np.ndarray

    @classmethod
    def from_params(cls, params: ParamVector, family: str) -> "TransformedParams":
        vec = params.as_array(family)
        z = np.empty_like(vec)
        z[:-1] = np.log(vec[:-1])
        lam = min(max(vec[-1], -_LAM_CAP), _LAM_CAP)
        z[-1] = math.atanh(lam)
        return cls(family=family, z=z)

    def to_params(self) -> ParamVector:
        names = SUBFAMILY_SHAPES[self.family]
        vals, lam = _decode(self.z.tolist())
        k = len(names)
        return ParamVector(beta=vals[k], theta=vals[k + 1], lam=lam, shape=dict(zip(names, vals)))


def _finite_sample(sample, low) -> np.ndarray:
    """The sample as a float array, refused if a point is not finite (ValueError)
    or not above ``low`` (SupportError), where the objectives give their sentinel."""
    xs = np.asarray(sample, dtype=float)
    finite = np.isfinite(xs)
    if not finite.all():
        raise ValueError(f"sample point at index {int(np.argmin(finite))} is not finite")
    if (xs <= low).any():
        idx = int(np.argmax(xs <= low))
        raise SupportError(f"sample point at index {idx} is outside the support ({low}, inf)")
    return xs


def _objective_value(method: str, model, sample, want_grad=False):
    """``_kernels.objective`` of ``method`` (with ``want_grad``,
    ``objective_grad``) at the model, on the sample checked against its
    support and sorted."""
    xs = np.sort(_finite_sample(sample, model.support_low))
    mid = _kernels.METHOD_IDS[method]
    args = model.kernel_args
    kernel = _kernels.objective_grad if want_grad else _kernels.objective
    return kernel(mid, *args, _kernels.Plan(xs, args[0], mid))


def neg_log_likelihood(params: ParamVector, sample, family: str) -> float:
    """-log L; equals -sum(log pdf) over the sample."""
    return _objective_value("ml", model_from_params(family, params), sample)[0]


def ols_objective(params: ParamVector, sample, family: str) -> float:
    return _objective_value("ols", model_from_params(family, params), sample)[0]


def wls_objective(params: ParamVector, sample, family: str) -> float:
    return _objective_value("wls", model_from_params(family, params), sample)[0]


def cvm_objective(params: ParamVector, sample, family: str) -> float:
    return _objective_value("cvm", model_from_params(family, params), sample)[0]


def ad_objective(params: ParamVector, sample, family: str) -> float:
    return _objective_value("ad", model_from_params(family, params), sample)[0]


def rtad_objective(params: ParamVector, sample, family: str) -> float:
    return _objective_value("rtad", model_from_params(family, params), sample)[0]


def _median(xs):
    """``np.median`` of a 1-d sample, bit for bit, taken from the sorted
    sample: np.median's NaN check imports ``numpy.ma``."""
    xs = np.sort(xs)
    n = xs.size
    if np.isnan(xs[-1]):  # NaNs sort last, and any NaN makes the median NaN
        return xs[-1]
    if n % 2:
        return xs[n // 2]
    return (xs[n // 2 - 1] + xs[n // 2]) / 2


def default_init(sample, family: str) -> ParamVector:
    """Moment-style starting point: theta=1, lambda=0, beta from the median."""
    if family not in SUBFAMILY_SHAPES:
        raise ValueError(f"unknown sub-family {family!r}")
    xs = np.asarray(sample, dtype=float)
    fam = _kernels.FAMILY_IDS[family]
    row = _kernels._FAMILIES[fam]
    shape = dict(zip(row.shapes, row.start(xs)))
    s = kernel_shapes(shape.values())
    g_med = _kernels._at_points(_median(xs), lambda xv: _kernels._g_parts(fam, *s, 1.0, xv)[0])
    beta = math.log(2.0) / g_med if g_med > 0 else 1.0
    return ParamVector(beta=beta, theta=1.0, lam=0.0, shape=shape)


def fit(
    sample,
    family: str,
    method: str = "ml",
    init: ParamVector | None = None,
    seed: int = 0,
    n_starts: int = 5,
) -> FitResult:
    """Minimize the chosen objective with multi-start BFGS.

    BFGS gets the objective's exact gradient from the kernels' core
    ``_kernels._objective``, chained through the log/atanh coordinates.
    The best converged start wins; if nothing converges the best effort is
    returned with ``converged=False``.  Deterministic for fixed inputs.
    """
    method = method.lower()
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if family not in SUBFAMILY_SHAPES:
        raise ValueError(f"unknown sub-family {family!r}")
    if init is not None:
        _check_shapes(family, init.shape)
    if n_starts < 1:
        raise ValueError(f"n_starts must be at least 1, got {n_starts}")
    # every family's support lies in (0, inf), gtp1's (alpha, inf) with alpha fitted
    xs = np.sort(_finite_sample(sample, 0.0))
    if xs.size == 0:
        raise ValueError("sample is empty")

    mid = _kernels.METHOD_IDS[method]
    fam = _kernels.FAMILY_IDS[family]
    # the sample-only pieces of every objective evaluation of this fit
    plan = _kernels.Plan(xs, fam, mid)
    min_x = float(xs[0])
    is_gtp1 = family == "gtp1"
    k_shape = len(SUBFAMILY_SHAPES[family])
    # objective plus gradient evaluations, and overflowing gradients
    evaluations = gradient_fallbacks = 0

    def evaluate(zl, want_grad=True):
        """The objective at zl, a list of floats, and, if ``want_grad``, its
        gradient in z; under the fit's errstate."""
        nonlocal evaluations, gradient_fallbacks
        evaluations += 1 + want_grad  # an objective and, with it, a gradient evaluation
        vals, lam = _decode(zl)
        s1, s2 = kernel_shapes(vals[:k_shape])
        violation = s1 - min_x
        if is_gtp1 and violation >= 0.0:
            # gtp1's support (alpha, inf) misses a sample point: a penalty,
            # whose gradient in z is d/dalpha times alpha
            value = 1e10 * (violation + 1e-6) ** 2 + 1e6
            if not want_grad:
                return value
            grad = np.zeros(len(zl))
            grad[0] = 2e10 * (violation + 1e-6) * s1
            return value, grad
        beta, theta = vals[k_shape:]
        val, _, gl = _kernels._objective(mid, fam, s1, s2, beta, theta, lam, plan, want_grad)
        if not want_grad:
            return val
        # d/dz = p d/dp for the positive parameters, (1 - lam^2) d/dlam for
        # lam = tanh(z); zero where the decoding is flat (the log coordinates'
        # clip, |lam| = 1 in floating point), however large d/dp is.  Each
        # product is one correctly rounded multiplication, as in NumPy.
        out = [
            g * d if d > 0.0 and abs(zj) < 700.0 else 0.0
            for g, d, zj in zip(gl, vals, zl)
        ]
        d = 1.0 - lam * lam
        out.append(gl[-1] * d if d > 0.0 else 0.0)
        if not all(map(math.isfinite, out)):
            # an overflowing derivative: treated like a non-finite value
            gradient_fallbacks += 1
            return _BIG, np.zeros(len(zl))
        return val, np.array(out)

    start0 = init if init is not None else default_init(xs, family)
    z0 = TransformedParams.from_params(start0, family).z
    starts = [z0]
    if n_starts > 1:
        rng = np.random.default_rng(seed)
        starts += [z0 + rng.normal(scale=0.35, size=z0.size) for _ in range(n_starts - 1)]

    def _success(res):
        # "precision loss" at a stationary point is convergence for our
        # purposes: even with the exact gradient, rounding in the n-term sums
        # leaves BFGS's line search without a decrease near the optimum
        return bool(
            res.success
            or (
                res.status == 2
                and float(np.max(np.abs(res.jac))) < 1e-4 * max(1.0, abs(res.fun))
            )
        )

    fun_and_grad = _optim.OnLists(evaluate)  # BFGS hands evaluate its lists
    best = None
    # one errstate for every evaluation of every start: the kernel's core
    # relies on it, and the optimizer's bookkeeping runs in it too
    with np.errstate(all="ignore"):
        for z_init in starts:
            rescued = False
            try:
                res = _optim.bfgs(fun_and_grad, z_init)
                success = _success(res)
                if not success and np.all(np.isfinite(res.x)):
                    # line-search stall against a cliff or along a narrow
                    # valley: simplex rescue, then a fresh quasi-Newton pass
                    rescued = True
                    nm = _optim.nelder_mead(lambda z: evaluate(z.tolist(), False), res.x)
                    res2 = _optim.bfgs(fun_and_grad, nm.x)
                    if res2.fun <= min(res.fun, nm.fun):
                        res, success = res2, _success(res2) or bool(nm.success)
                    elif nm.fun < res.fun:
                        res, success = nm, bool(nm.success)
            except OverflowError:  # Python float arithmetic; NumPy's is silenced above
                continue
            if not np.all(np.isfinite(res.x)):
                continue
            # a run that ends on the non-finite sentinel has not converged
            cand = (success and float(res.fun) < _BIG, float(res.fun), res, rescued)
            if best is None:
                best = cand
            else:
                # prefer converged starts; among equals, the lower objective
                if (cand[0], -cand[1]) > (best[0], -best[1]):
                    best = cand
        if best is None:
            raise FitError(f"all {len(starts)} starts failed for {family}/{method}")

        converged, value, res, rescued = best
        estimates = TransformedParams(family=family, z=np.asarray(res.x, dtype=float)).to_params()
        clamps = 0
        if method in ("ad", "rtad"):  # the only objectives with clamped terms
            e = estimates
            clamps = _kernels._objective(
                mid, fam, *kernel_shapes(e.shape.values()), e.beta, e.theta, e.lam, plan, False
            )[1]

    std_errors = None
    if method == "ml" and converged:
        std_errors = _standard_errors(estimates, xs, family)

    return FitResult(
        estimates=estimates,
        std_errors=std_errors,
        objective_value=value,
        converged=converged,
        iterations=int(res.nit),
        method=method,
        family=family,
        clamp_count=int(clamps),
        n_starts=len(starts),
        evaluations=evaluations,
        rescued=rescued,
        gradient_fallbacks=gradient_fallbacks,
    )


def standard_errors_from_params(params: ParamVector, sample, family: str):
    """Observed-information standard errors at a parameter vector.

    The Hessian of the negative log-likelihood is the central difference of
    its exact gradient with step h = 1e-5 * max(|param|, 1), one-sided where
    a central step would leave the parameter space (lambda in [-1, 1], the
    other parameters positive), then symmetrized.  Returns None (absent,
    not zero) when the likelihood is not finite at a step or the Hessian is
    not positive definite.  The sample is refused as ``fit`` refuses it,
    against the support at ``params``.
    """
    _check_shapes(family, params.shape)
    s1 = kernel_shapes(params.as_array(family)[:-3].tolist())[0]
    low = _kernels._FAMILIES[_kernels.FAMILY_IDS[family]].edge(s1)[2]
    return _standard_errors(params, np.sort(_finite_sample(sample, low)), family)


def _standard_errors(params: ParamVector, xs, family: str):
    """``standard_errors_from_params`` on a sorted sample already checked."""
    v0 = params.as_array(family)
    d = v0.size
    k = len(SUBFAMILY_SHAPES[family])
    fam = _kernels.FAMILY_IDS[family]
    plan = _kernels.Plan(xs, fam, 0)
    low = np.r_[np.zeros(d - 1), -1.0]
    high = np.r_[np.full(d - 1, np.inf), 1.0]

    def grad_at(vec):
        s1, s2 = kernel_shapes(vec[:k])
        val, _, grad = _kernels._objective(0, fam, s1, s2, *vec[k:], plan, True)
        return np.array(grad) if val != _BIG else None

    h = 1e-5 * np.maximum(np.abs(v0), 1.0)
    H = np.empty((d, d))
    # one errstate for the kernel's core at every step; a quotient past the
    # float range leaves H non-finite, refused below
    with np.errstate(all="ignore"):
        for i in range(d):
            up, down = v0.copy(), v0.copy()
            if v0[i] + h[i] <= high[i]:
                up[i] += h[i]
            if v0[i] - h[i] > low[i]:
                down[i] -= h[i]
            g_up, g_down = grad_at(up), grad_at(down)
            if g_up is None or g_down is None:
                return None
            H[:, i] = (g_up - g_down) / (up[i] - down[i])
        H = 0.5 * (H + H.T)
    if not np.all(np.isfinite(H)):
        return None
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        return None
    cov = np.linalg.inv(H)
    diag = np.diag(cov)
    if np.any(diag <= 0):
        return None
    return tuple(float(s) for s in np.sqrt(diag))


def standard_errors(result: FitResult, sample, family: str):
    """Standard errors for a converged ML fit (see the _from_params variant)."""
    if result.method != "ml":
        raise ValueError("standard errors are defined for ML fits only")
    return standard_errors_from_params(result.estimates, sample, family)


def mle_theta_bracket(sample, family: str, shape, beta: float, lam: float):
    """Existence bracket for the theta MLE with the other parameters fixed.

    For lam in (-1, 0) the profile score dl/dtheta changes sign on
    [n / (-2 sum log u), n / (-sum log u)] with u_i = 1 - exp(-beta G(x_i)),
    taken from the kernels as the cdf of the theta = 1, lam = 0 member.
    """
    if not -1.0 < lam < 0.0:
        raise ValueError("the theta bracket applies only for lambda in (-1, 0)")
    params = ParamVector(beta=beta, theta=1.0, lam=0.0, shape=dict(shape))
    model = model_from_params(family, params)
    u = model.cdf(_finite_sample(sample, model.support_low))
    if np.any((u <= 0.0) | (u >= 1.0)):
        raise ValueError("all u_i = 1 - exp(-beta G(x_i)) must lie in (0, 1)")
    s = float(np.sum(np.log(u)))
    return (u.size / (-2.0 * s), u.size / (-s))


def theta_score(sample, family: str, shape, beta: float, lam: float, theta: float):
    """Profile score dl/dtheta with (shape, beta, lambda) held fixed.

    Minus the theta component of the ml objective's gradient
    (``_kernels.objective_grad``) on the checked and sorted sample; a
    ValueError where the log-likelihood is not finite (u_i = 0 at a point
    among those cases).
    """
    params = ParamVector(beta=beta, theta=theta, lam=lam, shape=dict(shape))
    value, _, grad = _objective_value("ml", model_from_params(family, params), sample, True)
    if value == _BIG:
        raise ValueError("the log-likelihood is not finite at these parameters")
    return -float(grad[-2])
