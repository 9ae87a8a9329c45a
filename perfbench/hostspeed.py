"""The host's speed, measured by fixed calibration jobs timed between operations.

The benchmark's host is a share of a machine whose speed changes by up to
1.7 times over seconds to minutes (one property round, repeated in one
process, took from 6 to 10 ms a call).  Identical work slows down with it,
so a time measured at one moment says as much about the host as about gtld.

Each operation is therefore followed by a calibration: a fixed job that
does not touch gtld.  In-process workloads time ``job``, a SciPy quadrature
of a scalar Python integrand plus small NumPy array sums, close to the work
of a property call or a fit.  Cold processes (a CLI call, a set-up) are
paired with ``PROCESS``, a cold interpreter importing the NumPy and SciPy
modules gtld imports, close to the import that dominates them.  A time is
then reported at the speed of the reference host: multiplied by
``nominal / measured`` calibration time, where ``JOB_S`` and ``PROCESS_S``
are the calibrations' times on the reference host (see README.md).  Dividing
by calibrations timed right after each operation cut the round-to-round
spread of repeated identical rounds from 0.16 to 0.04 of the mean.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np
from scipy import integrate

# seconds of one ``job`` and of one ``PROCESS`` on the reference host: round
# figures between their times in the slow (0.23 ms, 0.90 s) and the fast
# (0.13 ms, 0.63 s) spells of the host described in README.md
JOB_S = 2.0e-4
PROCESS_S = 0.75

PROCESS = [sys.executable, "-c", "import numpy, scipy.integrate, scipy.optimize, scipy.special"]

_X = np.linspace(0.01, 5.0, 400)


def _integrand(x):
    return math.exp(-x) * x**1.5 / (1.0 + 0.3 * math.exp(-x))


def job():
    """The in-process calibration job; returns its own wall time."""
    t0 = time.perf_counter()
    value = integrate.quad(_integrand, 0.0, np.inf, limit=200)[0]
    for _ in range(10):
        value += float(np.sum(np.log1p(_X**1.3) * np.exp(-_X)))
    return time.perf_counter() - t0


def process(cwd, env=None):
    """One calibration process; returns its wall time."""
    t0 = time.perf_counter()
    subprocess.run(PROCESS, cwd=cwd, env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0
