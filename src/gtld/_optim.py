"""BFGS and Nelder-Mead, reduced to the options ``fit`` uses.

``bfgs(fun_and_grad, x0)`` does the arithmetic of SciPy 1.17.1's
``minimize(fun_and_grad, x0, jac=True, method="BFGS",
options={"gtol": 1e-6, "maxiter": 500})`` operation for operation, and
``nelder_mead(fun, x0)`` that of ``minimize(fun, x0, method="Nelder-Mead",
options={"maxiter": 400, "fatol": 1e-10, "xatol": 1e-8})``.  Iterates,
results and the number of objective calls are therefore bit-identical to
SciPy's; ``tests/test_optim.py`` checks this against SciPy itself.

Even the oddities are kept, because each one can change an iterate: the
integer identity as the first inverse Hessian, ``rhok = 1000`` when
y'k sk is exactly 0, the first step length taken from the previous
objective value, the stop when the step rounds to zero, the fallback line
search (used when the More-Thuente search fails) getting only c1, c2 and
amax, and the Nelder-Mead simplex sorted twice after the first evaluations.

Each method is a core, which evaluates nothing, and a driver.  The cores,
``bfgs_steps`` and ``nelder_mead_steps``, are generators: they yield each
point whose (f, gradient), or f, they need, are sent it, and return an
``OptimResult``, as MINPACK-2's dcsrch asks its caller for phi and its
slope.  ``bfgs`` and ``nelder_mead`` each run one through ``_drive``.
``bfgs`` hands an objective wrapped in ``OnLists`` the list of floats its
core yields, where any other objective gets a fresh array.

Cores and drivers run under their caller's errstate (a fit holds one
around all its starts).  ``_dcstep``, ``_cubicmin`` and ``_quadmin`` hold
their own, as SciPy's do, and each also ignores underflow, so that no
result depends on the caller's underflow setting.

What SciPy computes with NumPy and the port computes with fewer NumPy
calls is the bookkeeping whose result does not depend on how it is
computed: the BFGS driver compares points as lists, the line search forms its
trial points xk + s pk on Python floats (NumPy's elementwise roundings),
the gradient's inf-norm and the Nelder-Mead convergence test compare
Python floats, and the errstate of the More-Thuente step is set once per
call by a decorator.  Every ``np.dot``, and every array operation whose
rounding SciPy fixes, stays a NumPy call on the same operands.

Ported from SciPy 1.17.1: ``_minimize_bfgs``, ``_line_search_wolfe12`` and
``_minimize_neldermead`` (scipy/optimize/_optimize.py);
``line_search_wolfe1``, ``scalar_search_wolfe1``, ``line_search_wolfe2``,
``scalar_search_wolfe2``, ``_zoom``, ``_cubicmin`` and ``_quadmin``
(scipy/optimize/_linesearch.py); ``DCSRCH`` and ``dcstep``
(scipy/optimize/_dcsrch.py, a port of MINPACK-2's dcsrch and dcstep by
Jorge J. More', David J. Thuente, Brett M. Averick and Richard G. Carter;
MINPACK-1 Project, Argonne National Laboratory, 1983; MINPACK-2 Project,
Argonne National Laboratory and University of Minnesota, 1993).
"""

# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions
# are met:
#
# 1. Redistributions of source code must retain the above copyright
#    notice, this list of conditions and the following disclaimer.
#
# 2. Redistributions in binary form must reproduce the above
#    copyright notice, this list of conditions and the following
#    disclaimer in the documentation and/or other materials provided
#    with the distribution.
#
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived
#    from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# BFGS
_GTOL = 1e-6  # on the inf-norm of the gradient
_MAXITER = 500
# line searches: Armijo and curvature constants, step bounds, and the
# More-Thuente search's relative interval tolerance
_C1 = 1e-4
_C2 = 0.9
_AMIN = 1e-100
_AMAX = 1e100
_XTOL = 1e-14
# Nelder-Mead
_NM_MAXITER = 400
_NM_XATOL = 1e-8
_NM_FATOL = 1e-10


class OptimResult(NamedTuple):
    """Where a minimizer stopped and why.

    ``status``: 0 converged; 1 iteration limit (BFGS); 2 line search found
    no acceptable step or the objective became non-finite (BFGS), or the
    iteration limit (Nelder-Mead); 3 NaN in the result (BFGS).  ``jac`` is
    None for Nelder-Mead.
    """

    x: np.ndarray
    fun: float
    jac: np.ndarray | None
    nit: int
    status: int

    @property
    def success(self) -> bool:
        return self.status == 0


def _max_abs(v):
    """``np.abs(v).max()`` of a list of floats, NaN if an entry is NaN."""
    a = list(map(abs, v))
    total = sum(a)  # NaN exactly where an entry is: no inf - inf among the |v_i|
    return max(a) if total == total else total


def _vecnorm(x):
    """Euclidean norm, summed as SciPy's ``vecnorm`` sums it."""
    return np.sum(np.abs(x) ** 2, axis=0) ** (1.0 / 2)


def _step_rounds_to_zero(alpha_k, pk, xk):
    """SciPy's relative step test with xrtol = 0: ``alpha_k * |pk| <= 0 *
    (0 + |xk|)``, true when the step rounds to zero, unless |xk| overflows
    (0 * inf is NaN).

    With m = max |pk_i|, |pk| is at least m to within a few ulps, so where
    m and alpha_k * m are both normal the step is positive and the test
    false; only the other cases take the two norms.
    """
    m = max(map(abs, pk.tolist()))
    if m >= 1e-150 and alpha_k * m >= 1e-300:
        return False
    return bool(alpha_k * _vecnorm(pk) <= 0 * (0 + _vecnorm(xk)))


def _drive(steps, evaluate):
    """Run a core to its end, sending it ``evaluate`` of each point it asks
    for; the core's result."""
    value = None
    while True:
        try:
            point = steps.send(value)
        except StopIteration as done:
            return done.value
        value = evaluate(point)


class OnLists:
    """An objective ``fn`` that takes its point as a list of floats.

    ``bfgs`` calls ``fn`` on the list its core yields, with no array built
    in between; ``fn`` must not change it.  Called itself, on an array (as
    SciPy's minimizers or ``nelder_mead`` call an objective), it hands
    ``fn`` the array's list.
    """

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, x):
        return self.fn(x.tolist())


def bfgs(fun_and_grad, x0) -> OptimResult:
    """Minimize with BFGS; ``fun_and_grad(x)`` returns (f, gradient), a
    float and a 1-d array, which are taken as they are.

    ``fun_and_grad`` is called once per distinct point, on a fresh array,
    or, wrapped in ``OnLists``, on a fresh list of floats.  Points are
    compared as lists of floats, which is how np.array_equal compares them:
    -0.0 == 0.0, and a NaN is never equal, so a NaN point is evaluated
    again.
    """
    last = value = None
    if isinstance(fun_and_grad, OnLists):
        on_list = fun_and_grad.fn
    else:
        def on_list(xl):
            return fun_and_grad(np.array(xl, dtype=float))

    def evaluate(xl):
        nonlocal last, value
        if xl != last:
            last, value = xl, on_list(xl)
        return value

    return _drive(bfgs_steps(x0), evaluate)


def bfgs_steps(x0):
    """The BFGS core: yields each point whose (f, gradient) it needs, as a
    list of floats, is sent that pair, and returns its OptimResult.  It may
    ask again for the point it asked for last, which ``bfgs`` answers
    without a call."""
    x0 = np.asarray(x0).flatten()
    old_fval, gfk = yield x0.tolist()
    k = 0
    N = len(x0)
    Hk = np.eye(N, dtype=int)
    I = np.eye(N)
    # sets the initial step guess to dx ~ 1
    old_old_fval = old_fval + np.linalg.norm(gfk) / 2
    xk = x0
    warnflag = 0
    gnorm = _max_abs(gfk.tolist())
    while (gnorm > _GTOL) and (k < _MAXITER):
        pk = -np.dot(Hk, gfk)
        step = yield from _line_search_wolfe12(xk, pk, gfk, old_fval, old_old_fval)
        if step is None:
            warnflag = 2
            break
        old_old_fval = old_fval
        alpha_k, old_fval, gfkp1 = step
        sk = alpha_k * pk
        xk = xk + sk
        if gfkp1 is None:
            gfkp1 = (yield xk.tolist())[1]
        yk = gfkp1 - gfk
        gfk = gfkp1
        k += 1
        gnorm = _max_abs(gfk.tolist())
        if gnorm <= _GTOL:
            break
        if _step_rounds_to_zero(alpha_k, pk, xk):
            break
        if not math.isfinite(old_fval):
            warnflag = 2
            break
        rhok_inv = np.dot(yk, sk)
        if rhok_inv == 0.0:
            rhok = 1000.0
        else:
            rhok = 1.0 / rhok_inv
        # SciPy's A1 = I - s y' rhok and A2 = I - y s' rhok, entry for entry:
        # A2 is A1 transposed, copied to keep the layout np.dot was given
        A1 = np.multiply.outer(sk, yk)
        A1 *= rhok
        np.subtract(I, A1, out=A1)
        Hk = np.dot(A1, np.dot(Hk, A1.T.copy()))
        Hk += np.multiply.outer(rhok * sk, sk)

    if warnflag != 2:
        if k >= _MAXITER:
            warnflag = 1
        elif np.isnan(gnorm) or np.isnan(old_fval) or np.isnan(xk).any():
            warnflag = 3
    return OptimResult(x=xk, fun=old_fval, jac=gfk, nit=k, status=warnflag)


def _line_search_wolfe12(xk, pk, gfk, phi0, old_phi0):
    """(step, f there, gradient there or None), or None on failure.

    The More-Thuente search first; the bracketing-and-zoom search of
    Nocedal and Wright if that one fails.  Both search along ``line`` (see
    ``_at_step``) from f = phi0 and the slope derphi0 at xk.
    """
    line = (xk.tolist(), pk.tolist(), pk)
    derphi0 = np.dot(gfk, pk)
    found = yield from _dcsrch(line, _initial_step(phi0, old_phi0, derphi0), phi0, derphi0)
    if found is None:
        found = yield from _line_search_wolfe2(line, phi0, old_phi0, derphi0)
    return found


def _at_step(line, s):
    """(f, gradient, slope g'pk) at xk + s pk, asked for as a list of
    floats; ``line`` is (xk and pk as lists, pk).  The point is formed on
    Python floats, with the roundings of NumPy's xk + s * pk."""
    xkl, pkl, pk = line
    sf = float(s)
    f, g = yield [x + sf * p for x, p in zip(xkl, pkl)]
    return f, g, np.dot(g, pk)


def _initial_step(phi0, old_phi0, derphi0):
    """The first trial step: the minimizer of the quadratic through the
    previous decrease, capped at 1."""
    alpha1 = 1.0
    if derphi0 != 0:
        alpha1 = min(1.0, 1.01 * 2 * (phi0 - old_phi0) / derphi0)
    return 1.0 if alpha1 < 0 else alpha1


def _dcsrch(line, stp, finit, ginit):
    """More-Thuente line search along ``line`` (see ``_at_step``):
    (step, phi(step), gradient there), or None on failure.

    A failure is an invalid start, a warning (rounding errors, the
    interval below xtol, a step bound reached), a non-finite step, or 100
    evaluations of phi without convergence.  phi(s) = f(xk + s pk), and g
    is its slope.
    """
    if stp < _AMIN or stp > _AMAX or ginit >= 0:
        return None
    p5, p66, xtrapl, xtrapu = 0.5, 0.66, 1.1, 4.0
    brackt = False
    stage = 1
    gtest = _C1 * ginit
    width = _AMAX - _AMIN
    width1 = width / p5
    stx, fx, gx = 0.0, finit, ginit
    sty, fy, gy = 0.0, finit, ginit
    stmin = 0
    stmax = stp + xtrapu * stp
    f, grad, g = yield from _at_step(line, stp)
    for _ in range(99):
        ftest = finit + stp * gtest
        if stage == 1 and f <= ftest and g >= 0:
            stage = 2
        if f <= ftest and abs(g) <= _C2 * -ginit:
            return stp, f, grad
        if (
            brackt and (stp <= stmin or stp >= stmax)
            or brackt and stmax - stmin <= _XTOL * stmax
            or stp == _AMAX and f <= ftest and g <= gtest
            or stp == _AMIN and (f > ftest or g >= gtest)
        ):
            return None

        # a modified function (psi = phi - ftol * stp * phi'(0)) while no
        # step has both decreased phi enough and turned its slope upward
        if stage == 1 and f <= fx and f > ftest:
            fm = f - stp * gtest
            fxm = fx - stx * gtest
            fym = fy - sty * gtest
            gm = g - gtest
            gxm = gx - gtest
            gym = gy - gtest
            stx, fxm, gxm, sty, fym, gym, stp, brackt = _dcstep(
                stx, fxm, gxm, sty, fym, gym, stp, fm, gm, brackt, stmin, stmax
            )
            fx = fxm + stx * gtest
            fy = fym + sty * gtest
            gx = gxm + gtest
            gy = gym + gtest
        else:
            stx, fx, gx, sty, fy, gy, stp, brackt = _dcstep(
                stx, fx, gx, sty, fy, gy, stp, f, g, brackt, stmin, stmax
            )

        # bisect when the interval does not shrink fast enough
        if brackt:
            if abs(sty - stx) >= p66 * width1:
                stp = stx + p5 * (sty - stx)
            width1 = width
            width = abs(sty - stx)
        if brackt:
            stmin = min(stx, sty)
            stmax = max(stx, sty)
        else:
            stmin = stp + xtrapl * (stp - stx)
            stmax = stp + xtrapu * (stp - stx)
        # np.clip's result, NaN included, kept a NumPy scalar so that
        # _dcstep divides by zero as NumPy does
        stp = np.float64(min(max(stp, _AMIN), _AMAX))
        # no further progress possible: the best step so far
        if (
            brackt and (stp <= stmin or stp >= stmax)
            or brackt and stmax - stmin <= _XTOL * stmax
        ):
            stp = stx
        if not math.isfinite(stp):
            return None
        f, grad, g = yield from _at_step(line, stp)
    return None


@np.errstate(invalid="ignore", over="ignore", under="ignore")
def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
    """Safeguarded step and updated interval (MINPACK-2 dcstep)."""
    # np.sign(dp) * np.sign(dx) < 0, NaN and zero slopes included
    opposite = dp < 0.0 < dx or dx < 0.0 < dp

    if fp > fx:
        # higher function value: the minimum is bracketed; the cubic step
        # if closer to stx than the quadratic one, else their average
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * np.sqrt((theta / s) ** 2 - (dx / s) * (dp / s))
        if stp < stx:
            gamma *= -1
        p = (gamma - dx) + theta
        q = ((gamma - dx) + gamma) + dp
        r = p / q
        stpc = stx + r * (stp - stx)
        stpq = stx + ((dx / ((fx - fp) / (stp - stx) + dx)) / 2.0) * (stp - stx)
        if abs(stpc - stx) <= abs(stpq - stx):
            stpf = stpc
        else:
            stpf = stpc + (stpq - stpc) / 2.0
        brackt = True
    elif opposite:
        # lower value, slopes of opposite sign: bracketed; the cubic step
        # if farther from stp than the secant step, else the secant step
        theta = 3 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * np.sqrt((theta / s) ** 2 - (dx / s) * (dp / s))
        if stp > stx:
            gamma *= -1
        p = (gamma - dp) + theta
        q = ((gamma - dp) + gamma) + dx
        r = p / q
        stpc = stp + r * (stx - stp)
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        if abs(stpc - stp) > abs(stpq - stp):
            stpf = stpc
        else:
            stpf = stpq
        brackt = True
    elif abs(dp) < abs(dx):
        # lower value, same-sign slopes of decreasing magnitude
        theta = 3 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * np.sqrt(max(0, (theta / s) ** 2 - (dx / s) * (dp / s)))
        if stp > stx:
            gamma = -gamma
        p = (gamma - dp) + theta
        q = (gamma + (dx - dp)) + gamma
        r = p / q
        if r < 0 and gamma != 0:
            stpc = stp + r * (stx - stp)
        elif stp > stx:
            stpc = stpmax
        else:
            stpc = stpmin
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        if brackt:
            if abs(stpc - stp) < abs(stpq - stp):
                stpf = stpc
            else:
                stpf = stpq
            if stp > stx:
                stpf = min(stp + 0.66 * (sty - stp), stpf)
            else:
                stpf = max(stp + 0.66 * (sty - stp), stpf)
        else:
            if abs(stpc - stp) > abs(stpq - stp):
                stpf = stpc
            else:
                stpf = stpq
            stpf = np.clip(stpf, stpmin, stpmax)
    else:
        # lower value, same-sign slopes of non-decreasing magnitude
        if brackt:
            theta = 3.0 * (fp - fy) / (sty - stp) + dy + dp
            s = max(abs(theta), abs(dy), abs(dp))
            gamma = s * np.sqrt((theta / s) ** 2 - (dy / s) * (dp / s))
            if stp > sty:
                gamma = -gamma
            p = (gamma - dp) + theta
            q = ((gamma - dp) + gamma) + dy
            r = p / q
            stpc = stp + r * (sty - stp)
            stpf = stpc
        elif stp > stx:
            stpf = stpmax
        else:
            stpf = stpmin

    if fp > fx:
        sty = stp
        fy = fp
        dy = dp
    else:
        if opposite:
            sty = stx
            fy = fx
            dy = dx
        stx = stp
        fx = fp
        dx = dp
    return stx, fx, dx, sty, fy, dy, stpf, brackt


def _line_search_wolfe2(line, phi0, old_phi0, derphi0):
    """(alpha, phi(alpha), gradient there or None), or None on failure;
    no gradient when the bracketing phase runs out of iterations."""
    alpha0 = 0
    alpha1 = min(_initial_step(phi0, old_phi0, derphi0), _AMAX)
    phi_a1, g_a1, derphi_a1 = yield from _at_step(line, alpha1)
    phi_a0 = phi0
    derphi_a0 = derphi0
    for i in range(10):
        if alpha1 == 0 or alpha0 > _AMAX:
            return None
        if (phi_a1 > phi0 + _C1 * alpha1 * derphi0) or (phi_a1 >= phi_a0 and i > 0):
            return (
                yield from _zoom(alpha0, alpha1, phi_a0, phi_a1, derphi_a0, line, phi0, derphi0)
            )
        if abs(derphi_a1) <= -_C2 * derphi0:
            return alpha1, phi_a1, g_a1
        if derphi_a1 >= 0:
            return (
                yield from _zoom(alpha1, alpha0, phi_a1, phi_a0, derphi_a1, line, phi0, derphi0)
            )
        alpha0, alpha1 = alpha1, min(2 * alpha1, _AMAX)
        phi_a0 = phi_a1
        derphi_a0 = derphi_a1
        phi_a1, g_a1, derphi_a1 = yield from _at_step(line, alpha1)
    return alpha1, phi_a1, None


def _cubicmin(a, fa, fpa, b, fb, c, fc):
    """Minimizer of the cubic through (a, fa), (b, fb), (c, fc) with slope
    fpa at a, or None."""
    with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
        try:
            C = fpa
            db = b - a
            dc = c - a
            denom = (db * dc) ** 2 * (db - dc)
            d1 = np.empty((2, 2))
            d1[0, 0] = dc**2
            d1[0, 1] = -(db**2)
            d1[1, 0] = -(dc**3)
            d1[1, 1] = db**3
            [A, B] = np.dot(d1, np.asarray([fb - fa - C * db, fc - fa - C * dc]).flatten())
            A /= denom
            B /= denom
            radical = B * B - 3 * A * C
            xmin = a + (-B + np.sqrt(radical)) / (3 * A)
        except ArithmeticError:
            return None
    if not np.isfinite(xmin):
        return None
    return xmin


def _quadmin(a, fa, fpa, b, fb):
    """Minimizer of the quadratic through (a, fa), (b, fb) with slope fpa
    at a, or None."""
    with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
        try:
            D = fa
            C = fpa
            db = b - a * 1.0
            B = (fb - D - C * db) / (db * db)
            xmin = a - C / (2.0 * B)
        except ArithmeticError:
            return None
    if not np.isfinite(xmin):
        return None
    return xmin


def _zoom(a_lo, a_hi, phi_lo, phi_hi, derphi_lo, line, phi0, derphi0):
    """Zoom stage of the Wolfe search (Nocedal and Wright, Algorithm 3.6)."""
    maxiter = 10
    i = 0
    delta1 = 0.2  # cubic interpolant check
    delta2 = 0.1  # quadratic interpolant check
    phi_rec = phi0
    a_rec = 0
    while True:
        # interpolate in [a_lo, a_hi]: cubic, else quadratic, else bisect
        dalpha = a_hi - a_lo
        if dalpha < 0:
            a, b = a_hi, a_lo
        else:
            a, b = a_lo, a_hi
        if i > 0:
            cchk = delta1 * dalpha
            a_j = _cubicmin(a_lo, phi_lo, derphi_lo, a_hi, phi_hi, a_rec, phi_rec)
        if (i == 0) or (a_j is None) or (a_j > b - cchk) or (a_j < a + cchk):
            qchk = delta2 * dalpha
            a_j = _quadmin(a_lo, phi_lo, derphi_lo, a_hi, phi_hi)
            if (a_j is None) or (a_j > b - qchk) or (a_j < a + qchk):
                a_j = a_lo + 0.5 * dalpha

        phi_aj, g_aj, derphi_aj = yield from _at_step(line, a_j)
        if (phi_aj > phi0 + _C1 * a_j * derphi0) or (phi_aj >= phi_lo):
            phi_rec = phi_hi
            a_rec = a_hi
            a_hi = a_j
            phi_hi = phi_aj
        else:
            if abs(derphi_aj) <= -_C2 * derphi0:
                return a_j, phi_aj, g_aj
            if derphi_aj * (a_hi - a_lo) >= 0:
                phi_rec = phi_hi
                a_rec = a_hi
                a_hi = a_lo
                phi_hi = phi_lo
            else:
                phi_rec = phi_lo
                a_rec = a_lo
            a_lo = a_j
            phi_lo = phi_aj
            derphi_lo = derphi_aj
        i += 1
        if i > maxiter:
            return None


def _nm_converged(sim, fsim):
    """SciPy's stop test, max |sim[1:] - sim[0]| <= xatol and
    max |fsim[0] - fsim[1:]| <= fatol, on Python floats: every difference
    within its tolerance, which a NaN fails as it fails the max."""
    rows = sim.tolist()
    f0, *frest = fsim.tolist()
    return all(
        abs(v - v0) <= _NM_XATOL for row in rows[1:] for v, v0 in zip(row, rows[0])
    ) and all(abs(f0 - f) <= _NM_FATOL for f in frest)


def nelder_mead(fun, x0) -> OptimResult:
    """Minimize ``fun(x)``, a float, with the (non-adaptive) Nelder-Mead
    simplex; ``fun`` is called on a copy of each point."""
    return _drive(nelder_mead_steps(x0), lambda x: fun(x.copy()))


def nelder_mead_steps(x0):
    """The Nelder-Mead core: yields each point whose f it needs, an array
    it may reuse, is sent f, and returns its OptimResult."""
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    nonzdelt = 0.05
    zdelt = 0.00025

    x0 = np.asarray(x0, dtype=float).flatten()
    N = len(x0)
    sim = np.empty((N + 1, N), dtype=x0.dtype)
    sim[0] = x0
    for k in range(N):
        y = np.array(x0, copy=True)
        if y[k] != 0:
            y[k] = (1 + nonzdelt) * y[k]
        else:
            y[k] = zdelt
        sim[k + 1] = y

    fsim = np.full((N + 1,), np.inf, dtype=float)
    for k in range(N + 1):
        fsim[k] = yield sim[k]
    ind = np.argsort(fsim)
    sim = sim[ind]
    fsim = fsim[ind]
    ind = np.argsort(fsim)
    fsim = fsim[ind]
    sim = sim[ind]

    iterations = 1
    while iterations < _NM_MAXITER:
        if _nm_converged(sim, fsim):
            break
        xbar = np.add.reduce(sim[:-1], 0) / N
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = yield xr
        doshrink = 0
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe = yield xe
            if fxe < fxr:
                sim[-1] = xe
                fsim[-1] = fxe
            else:
                sim[-1] = xr
                fsim[-1] = fxr
        elif fxr < fsim[-2]:
            sim[-1] = xr
            fsim[-1] = fxr
        else:
            # contraction, outside or inside
            if fxr < fsim[-1]:
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = yield xc
                if fxc <= fxr:
                    sim[-1] = xc
                    fsim[-1] = fxc
                else:
                    doshrink = 1
            else:
                xcc = (1 - psi) * xbar + psi * sim[-1]
                fxcc = yield xcc
                if fxcc < fsim[-1]:
                    sim[-1] = xcc
                    fsim[-1] = fxcc
                else:
                    doshrink = 1
            if doshrink:
                for j in range(1, N + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = yield sim[j]
        iterations += 1
        ind = np.argsort(fsim)
        sim = sim[ind]
        fsim = fsim[ind]

    return OptimResult(
        x=sim[0],
        fun=np.min(fsim),
        jac=None,
        nit=iterations,
        status=2 if iterations >= _NM_MAXITER else 0,
    )
