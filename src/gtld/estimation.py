"""Parameter estimation: maximum likelihood and five minimum-distance methods.

All six objectives are minimized with BFGS in unconstrained coordinates
(log for the positive parameters, atanh for the transmutation parameter),
so every iterate corresponds to a valid parameter vector.  ``fit`` runs a
small multi-start: a moment-matched heuristic plus jittered restarts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from . import _kernels
from .model import ParamVector, model_from_params, param_names
from .transforms import FAMILIES, SUBFAMILY_SHAPES, kernel_shapes, make_transform

METHODS = ("ml", "ols", "wls", "cvm", "ad", "rtad")

_LAM_CAP = 1.0 - 1e-10  # |lambda| bound inside the atanh coordinates
_GRAD_STEP = 1e-6


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


def _decode(z, k_shape: int):
    """Optimizer coordinates -> (shape values, beta, theta, lam).

    The log coordinates are clipped to +-700 so exp neither overflows nor
    underflows to 0: every z decodes to a valid parameter vector.
    """
    vals = np.exp(np.minimum(np.maximum(z[:-1], -700.0), 700.0)).tolist()
    return vals[:k_shape], vals[k_shape], vals[k_shape + 1], math.tanh(z[-1])


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
        shape, beta, theta, lam = _decode(self.z, len(names))
        return ParamVector(beta=beta, theta=theta, lam=lam, shape=dict(zip(names, shape)))


def _objective_value(method: str, params: ParamVector, sample, family: str):
    args = model_from_params(family, params).kernel_args
    xs = np.sort(np.asarray(sample, dtype=float))
    return _kernels.objective(_kernels.METHOD_IDS[method], *args, xs)


def neg_log_likelihood(params: ParamVector, sample, family: str) -> float:
    """-log L; equals -sum(log pdf) over the sample."""
    xs = np.asarray(sample, dtype=float)
    model = model_from_params(family, params)
    if np.any(xs <= model.support_low):
        idx = int(np.argmax(xs <= model.support_low))
        raise ValueError(f"sample point at index {idx} is outside the support")
    return _objective_value("ml", params, xs, family)[0]


def ols_objective(params: ParamVector, sample, family: str) -> float:
    return _objective_value("ols", params, sample, family)[0]


def wls_objective(params: ParamVector, sample, family: str) -> float:
    return _objective_value("wls", params, sample, family)[0]


def cvm_objective(params: ParamVector, sample, family: str) -> float:
    return _objective_value("cvm", params, sample, family)[0]


def ad_objective(params: ParamVector, sample, family: str) -> float:
    return _objective_value("ad", params, sample, family)[0]


def rtad_objective(params: ParamVector, sample, family: str) -> float:
    return _objective_value("rtad", params, sample, family)[0]


def default_init(sample, family: str) -> ParamVector:
    """Moment-style starting point: theta=1, lambda=0, beta from the median."""
    xs = np.asarray(sample, dtype=float)
    shape = dict(zip(SUBFAMILY_SHAPES[family], FAMILIES[family].start(xs)))
    g_med = float(make_transform(family, **shape).eval(np.median(xs)))
    beta = math.log(2.0) / g_med if g_med > 0 else 1.0
    return ParamVector(beta=beta, theta=1.0, lam=0.0, shape=shape)


def _central_grad(fun, z):
    g = np.empty_like(z)
    for i in range(z.size):
        h = _GRAD_STEP * max(1.0, abs(z[i]))
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        g[i] = (fun(zp) - fun(zm)) / (2.0 * h)
    return g


def fit(
    sample,
    family: str,
    method: str = "ml",
    init: ParamVector | None = None,
    seed: int = 0,
    n_starts: int = 5,
) -> FitResult:
    """Minimize the chosen objective with multi-start BFGS.

    The best converged start wins; if nothing converges the best effort is
    returned with ``converged=False``.  Deterministic for fixed inputs.
    """
    method = method.lower()
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if family not in SUBFAMILY_SHAPES:
        raise ValueError(f"unknown sub-family {family!r}")
    xs = np.sort(np.asarray(sample, dtype=float))
    if xs.size == 0:
        raise ValueError("sample is empty")

    mid = _kernels.METHOD_IDS[method]
    fam = _kernels.FAMILY_IDS[family]
    min_x = float(xs[0])
    is_gtp1 = family == "gtp1"
    k_shape = len(SUBFAMILY_SHAPES[family])

    def fun(z):
        shape, beta, theta, lam = _decode(z, k_shape)
        s1, s2 = kernel_shapes(shape)
        if is_gtp1:
            violation = s1 - min_x
            if violation >= 0.0:
                return 1e10 * (violation + 1e-6) ** 2 + 1e6
        val, _ = _kernels.objective(mid, fam, s1, s2, beta, theta, lam, xs)
        return val

    start0 = init if init is not None else default_init(xs, family)
    z0 = TransformedParams.from_params(start0, family).z
    rng = np.random.default_rng(seed)
    starts = [z0]
    for _ in range(max(0, n_starts - 1)):
        starts.append(z0 + rng.normal(scale=0.35, size=z0.size))

    def _bfgs(z):
        return optimize.minimize(
            fun,
            z,
            jac=lambda z: _central_grad(fun, z),
            method="BFGS",
            options={"gtol": 1e-6, "maxiter": 500},
        )

    def _success(res):
        # "precision loss" at a stationary point is convergence for our
        # purposes: the finite-difference gradient noise floor sits near
        # the BFGS tolerance.
        return bool(
            res.success
            or (
                res.status == 2
                and float(np.max(np.abs(res.jac))) < 1e-4 * max(1.0, abs(res.fun))
            )
        )

    best = None
    for z_init in starts:
        try:
            res = _bfgs(z_init)
            success = _success(res)
            if not success and np.all(np.isfinite(res.x)):
                # line-search stall against a cliff or along a narrow
                # valley: simplex rescue, then a fresh quasi-Newton pass
                nm = optimize.minimize(
                    fun,
                    res.x,
                    method="Nelder-Mead",
                    options={"maxiter": 400, "fatol": 1e-10, "xatol": 1e-8},
                )
                res2 = _bfgs(nm.x)
                if res2.fun <= min(res.fun, nm.fun):
                    res, success = res2, _success(res2) or bool(nm.success)
                elif nm.fun < res.fun:
                    res, success = nm, bool(nm.success)
        except (FloatingPointError, OverflowError):
            continue
        if not np.all(np.isfinite(res.x)):
            continue
        cand = (success, float(res.fun), res)
        if best is None:
            best = cand
        else:
            # prefer converged starts; among equals, the lower objective
            if (cand[0], -cand[1]) > (best[0], -best[1]):
                best = cand
    if best is None:
        raise FitError(f"all {len(starts)} starts failed for {family}/{method}")

    converged, value, res = best
    tp = TransformedParams(family=family, z=np.asarray(res.x, dtype=float))
    estimates = tp.to_params()
    _, clamps = _objective_value(method, estimates, xs, family)

    std_errors = None
    if method == "ml" and converged:
        std_errors = standard_errors_from_params(estimates, xs, family)

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
    )


def standard_errors_from_params(params: ParamVector, sample, family: str):
    """Observed-information standard errors at a parameter vector.

    Central-difference Hessian of the negative log-likelihood with step
    h = 1e-4 * max(|param|, 1); returns None (absent, not zero) when the
    Hessian is not positive definite.
    """
    xs = np.sort(np.asarray(sample, dtype=float))
    v0 = params.as_array(family)
    d = v0.size
    names = SUBFAMILY_SHAPES[family]

    def nll_at(vec):
        shape = {n: float(x) for n, x in zip(names, vec[: len(names)])}
        try:
            p = ParamVector(
                beta=float(vec[len(names)]),
                theta=float(vec[len(names) + 1]),
                lam=float(np.clip(vec[-1], -1.0, 1.0)),
                shape=shape,
            )
        except ValueError:
            return math.inf
        return _objective_value("ml", p, xs, family)[0]

    h = 1e-4 * np.maximum(np.abs(v0), 1.0)
    H = np.empty((d, d))
    f0 = nll_at(v0)
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h[i]
        H[i, i] = (nll_at(v0 + ei) + nll_at(v0 - ei) - 2.0 * f0) / h[i] ** 2
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = h[j]
            H[i, j] = H[j, i] = (
                nll_at(v0 + ei + ej)
                - nll_at(v0 + ei - ej)
                - nll_at(v0 - ei + ej)
                + nll_at(v0 - ei - ej)
            ) / (4.0 * h[i] * h[j])
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
    [n / (-2 sum log y), n / (-sum log y)] with y_i = 1 - exp(-beta G(x_i)).
    """
    if not -1.0 < lam < 0.0:
        raise ValueError("the theta bracket applies only for lambda in (-1, 0)")
    tr = make_transform(family, **dict(shape))
    xs = np.asarray(sample, dtype=float)
    y = -np.expm1(-beta * np.asarray(tr.eval(xs), dtype=float))
    if np.any((y <= 0.0) | (y >= 1.0)):
        raise ValueError("all y_i = 1 - exp(-beta G(x_i)) must lie in (0, 1)")
    s = float(np.sum(np.log(y)))
    n = xs.size
    return (n / (-2.0 * s), n / (-s))


def theta_score(sample, family: str, shape, beta: float, lam: float, theta: float):
    """Profile score dl/dtheta with (shape, beta, lambda) held fixed."""
    tr = make_transform(family, **dict(shape))
    xs = np.asarray(sample, dtype=float)
    y = -np.expm1(-beta * np.asarray(tr.eval(xs), dtype=float))
    log_y = np.log(y)
    yt = y**theta
    n = xs.size
    return float(
        n / theta
        + np.sum(log_y)
        - 2.0 * lam * np.sum(yt * log_y / ((1.0 + lam) - 2.0 * lam * yt))
    )
