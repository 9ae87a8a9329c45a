"""Which SciPy modules gtld loads, each case in a fresh interpreter.

The package, the CLI module, ``curves`` and ``props`` need only NumPy; a
fit loads ``scipy.special`` for the GOF p-values, never ``scipy.optimize``.
"""

import json
import os
import subprocess
import sys

import pytest

import gtld

SRC = os.path.dirname(os.path.dirname(os.path.abspath(gtld.__file__)))

PARAMS = ["--family", "gtw", "--params", "1.5,0.5,1.2,-0.3"]


def scipy_modules_after(code):
    """The sorted ``scipy*`` entries of sys.modules after running ``code``."""
    script = (
        "import contextlib, io, json, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        + "".join(f"    {line}\n" for line in code.splitlines())
        + "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def cli(*argv):
    return f"import gtld.cli\nassert gtld.cli.main({list(argv)!r}) == 0"


@pytest.mark.parametrize(
    "code",
    [
        "import gtld",
        "import gtld.cli",
        cli("curves", *PARAMS, "--grid", "0.1:3:20"),
        cli("props", *PARAMS, "--moment", "1", "--moment", "2", "--quantiles",
            "--residual", "1,0.8", "--reversed-residual", "1,0.8", "--cigf", "1,1",
            "--renyi", "0.7", "--q-entropy", "1.5", "--pwm", "1,1", "--mgf", "-0.5",
            "--incomplete-moment", "1,0.9"),
    ],
    ids=["import-gtld", "import-cli", "curves", "props"],
)
def test_numpy_only(code):
    assert scipy_modules_after(code) == []


def test_fit_does_not_load_scipy_optimize():
    loaded = scipy_modules_after(cli("fit", "--data", "gauge", "--family", "gtw"))
    assert "scipy.special" in loaded  # the GOF p-values
    assert not [m for m in loaded if m.startswith("scipy.optimize")]


def test_incomplete_moment_series_loads_gammainc():
    # gtw's incomplete-moment series (not used by the CLI, which integrates)
    # is the one property that needs SciPy; this also shows that the check
    # above sees an import when one happens
    loaded = scipy_modules_after(
        "from gtld import make_model, properties\n"
        "m = make_model('gtw', beta=0.5, theta=1.2, lam=-0.3, alpha=1.5)\n"
        "properties.incomplete_moment(m, 1, 0.9, method='series')"
    )
    assert "scipy.special" in loaded
