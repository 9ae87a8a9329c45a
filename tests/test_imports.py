"""gtld loads no SciPy module at run time, and each CLI command loads only
the gtld modules it runs.

Each case runs in a fresh interpreter and reads ``sys.modules`` at the end:
the package, the CLI module, ``curves``, ``props``, a ``fit`` with its GOF
report, and gtw's incomplete-moment series leave no ``scipy*`` entry, and
a ``fit`` loads neither ``numpy.ma`` nor the property modules.  A
positive control imports ``scipy.special`` itself, to show that the check
sees an import when one happens, and a source scan finds no SciPy import
statement under ``src/gtld``.  SciPy remains a test-only oracle.

A bare ``import gtld`` loads no submodule: the package resolves its public
names and submodules on first use.  ``curves`` loads the model and the
kernels alone, ``props`` no fitting or study module, ``fit`` no study
module.
"""

import json
import os
import re
import subprocess
import sys

import pytest

import gtld

PKG = os.path.dirname(os.path.abspath(gtld.__file__))
SRC = os.path.dirname(PKG)

PARAMS = ["--family", "gtw", "--params", "1.5,0.5,1.2,-0.3"]


def modules_after(code):
    """The sorted entries of sys.modules after running ``code``."""
    script = (
        "import contextlib, io, json, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        + "".join(f"    {line}\n" for line in code.splitlines())
        + "print(json.dumps(sorted(sys.modules)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def scipy_modules_after(code):
    """The sorted ``scipy*`` entries of sys.modules after running ``code``."""
    return [m for m in modules_after(code) if m.split(".")[0] == "scipy"]


def cli(*argv):
    return f"import gtld.cli\nassert gtld.cli.main({list(argv)!r}) == 0"


SERIES_MOMENT = (
    "from gtld import make_model, properties\n"
    "m = make_model('gtw', beta=0.5, theta=1.2, lam=-0.3, alpha=1.5)\n"
    "properties.incomplete_moment(m, 1, 0.9, method='series')"
)


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
        SERIES_MOMENT,
    ],
    ids=["import-gtld", "import-cli", "curves", "props", "series-moment"],
)
def test_numpy_only(code):
    assert scipy_modules_after(code) == []


def test_fit_does_not_load_scipy_optimize():
    # nor any other SciPy module: ML and cvm fits, with the report's KS,
    # CvM and AD p-values
    for method in ("ml", "cvm"):
        code = cli("fit", "--data", "gauge", "--family", "gtw", "--method", method)
        assert scipy_modules_after(code) == []


def test_fit_loads_no_property_or_masked_array_module():
    # numpy.ma comes with np.median's NaN check, gtld.numerics with
    # gtld.properties; the props command, which needs both gtld modules,
    # shows that the check sees them
    heavy = ("numpy.ma", "gtld.properties", "gtld.numerics")

    def loaded(code):
        return sorted(
            {m for m in modules_after(code) for h in heavy if m == h or m.startswith(h + ".")}
        )

    assert loaded(cli("fit", "--data", "gauge", "--family", "gtw")) == []
    assert loaded(cli("props", *PARAMS, "--moment", "1")) == ["gtld.numerics", "gtld.properties"]


def test_check_sees_an_import():
    # positive control: the same check run on code that imports SciPy
    loaded = scipy_modules_after(SERIES_MOMENT + "\nimport scipy.special")
    assert "scipy.special" in loaded


def test_no_scipy_import_in_source():
    pattern = re.compile(r"^\s*(import|from)\s+scipy\b", re.MULTILINE)
    offenders = []
    for root, _, files in os.walk(PKG):
        for name in files:
            if name.endswith((".py", ".pyx")):
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as fh:
                    if pattern.search(fh.read()):
                        offenders.append(os.path.relpath(path, PKG))
    assert offenders == []


# the submodules a bare ``import gtld`` resolves as attributes
SUBMODULES = ["_kernels", "_optim", "model", "estimation", "gof", "simulation", "datasets"]
FITTING = ["gtld.estimation", "gtld._optim", "gtld.gof", "gtld.simulation", "gtld.datasets"]


def gtld_modules_after(code):
    """The sorted ``gtld*`` entries of sys.modules after running ``code``."""
    return [m for m in modules_after(code) if m.split(".")[0] == "gtld"]


def test_bare_import_loads_no_submodule():
    assert gtld_modules_after("import gtld") == ["gtld"]


def test_curves_loads_only_the_model_and_the_kernels():
    loaded = gtld_modules_after(cli("curves", *PARAMS, "--grid", "0.1:3:20"))
    assert loaded == ["gtld", "gtld._kernels", "gtld.cli", "gtld.model"]


def test_props_loads_no_fitting_or_study_module():
    loaded = gtld_modules_after(cli("props", *PARAMS, "--moment", "1", "--quantiles"))
    assert "gtld.properties" in loaded
    assert [m for m in loaded if m in FITTING] == []


def test_fit_loads_no_study_module():
    loaded = gtld_modules_after(cli("fit", "--data", "gauge", "--family", "gtw"))
    assert {"gtld.datasets", "gtld.estimation", "gtld.gof"} <= set(loaded)
    assert "gtld.simulation" not in loaded


def test_lazy_package_resolves_every_name():
    # in a fresh interpreter, so that nothing is loaded before the lookups
    modules_after(
        "import gtld\n"
        f"for name in gtld.__all__ + {SUBMODULES!r}:\n"
        "    getattr(gtld, name)\n"
        "assert gtld.fit is gtld.estimation.fit\n"
        "assert gtld.BACKEND is gtld._kernels.BACKEND\n"
        "namespace = {}\n"
        "exec('from gtld import *', namespace)\n"
        "assert set(gtld.__all__) <= set(namespace)"
    )


def test_lazy_package_dir_and_unknown_names():
    assert set(gtld.__all__) <= set(dir(gtld))
    assert set(SUBMODULES) <= set(dir(gtld))
    assert not hasattr(gtld, "nope")
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        gtld.nope
