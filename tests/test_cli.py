import json

import jsonschema
import numpy as np
import pytest

import gtld
import gtld.simulation
from gtld.cli import main
from gtld.estimation import FitError
from gtld.model import make_model


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def sample_file(tmp_path_factory):
    m = make_model("gte", beta=1.0, theta=1.2, lam=0.1)
    xs = m.sample(150, seed=6)
    p = tmp_path_factory.mktemp("data") / "sample.txt"
    p.write_text("\n".join(f"{x:.8f}" for x in xs) + "\n")
    return str(p)


def _schema(name):
    path = __import__("pathlib").Path(gtld.__file__).parent / "schemas" / name
    return json.loads(path.read_text())


class TestFit:
    def test_fit_builtin_dataset(self, capsys, tmp_path):
        out_file = tmp_path / "fit.json"
        code, out, _ = run_cli(
            capsys,
            "fit", "--data", "failure", "--family", "gte",
            "--starts", "2", "--out", str(out_file),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["family"] == "gte"
        assert payload["converged"] is True
        assert set(payload["estimates"]) == {"beta", "theta", "lambda"}
        assert payload["neg2_loglik"] < 310
        jsonschema.validate(payload, _schema("fit_report.schema.json"))
        assert json.loads(out_file.read_text()) == payload

    def test_fit_file_input(self, capsys, sample_file):
        code, out, _ = run_cli(
            capsys, "fit", "--data", sample_file, "--family", "gte",
            "--method", "ols", "--starts", "2",
        )
        assert code == 0
        assert json.loads(out)["method"] == "ols"

    def test_missing_file_is_exit_1(self, capsys):
        code, _, err = run_cli(
            capsys, "fit", "--data", "/no/file", "--family", "gte"
        )
        assert code == 1
        assert "error" in err

    def test_gauge_gtwe_report_is_json(self, capsys):
        # convergence through the optimizer's precision-loss branch
        code, out, _ = run_cli(
            capsys, "fit", "--data", "gauge", "--family", "gtwe", "--method", "ml"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["converged"] is True
        jsonschema.validate(payload, _schema("fit_report.schema.json"))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_sample_is_exit_1(self, capsys, tmp_path, bad):
        # a non-finite point would reach the objectives as their 1e10 sentinel
        data = tmp_path / "bad.txt"
        data.write_text(f"0.5\n1.25\n{bad}\n2.0\n0.75\n")
        code, out, err = run_cli(capsys, "fit", "--data", str(data), "--family", "gte")
        assert code == 1
        assert out == ""
        assert err == "error: sample point at index 2 is not finite\n"

    @pytest.mark.parametrize("starts", ["0", "-3"])
    def test_starts_below_one_is_usage_error(self, capsys, starts):
        code, out, err = run_cli(
            capsys, "fit", "--data", "gauge", "--family", "gte", "--starts", starts
        )
        assert code == 2
        assert out == ""
        assert err == f"error: --starts must be at least 1, got {starts}\n"

    def test_bad_method_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "fit", "--data", "gauge", "--family", "gte",
                    "--method", "gradient-descent")
        assert exc.value.code == 2


class TestProps:
    def test_moments_and_entropy(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "props", "--family", "gte", "--params", "2.0,1.0,0.0",
            "--moment", "1", "--mgf", "0.5", "--renyi", "2.0", "--quantiles",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["moment_1"] == pytest.approx(0.5, rel=1e-5)
        assert payload["mgf_0.5"] == pytest.approx(2 / 1.5, rel=1e-5)
        assert "quantiles" in payload or "median" in payload

    def test_divergence_reported_inline(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "props", "--family", "gtp1", "--params", "1.0,1.5,1.0,0.0",
            "--moment", "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert "error" in payload["moment_2"]

    def test_quantile_past_the_float_range_reported_inline(self, capsys):
        # gtw with alpha = 0.00145 has Q(0.75) = inf
        code, out, _ = run_cli(
            capsys,
            "props", "--family", "gtw", "--params", "0.00145,0.1,1,0",
            "--moment", "1", "--pwm", "1,1", "--cigf", "1,1", "--residual", "1,1.0",
        )
        assert code == 0
        payload = json.loads(out)
        for key in ("moment_1", "pwm_1,1", "cigf_1,1", "residual_1,1.0"):
            assert "past the float range" in payload[key]["error"]

    def test_quantile_measures_past_the_float_range_reported_inline(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "props", "--family", "gtw", "--params", "0.00145,0.1,1,0",
            "--quantiles", "--moment", "1",
        )
        assert code == 0

        def refuse(constant):  # Infinity and NaN are not JSON
            raise ValueError(constant)

        payload = json.loads(out, parse_constant=refuse)
        assert payload["quantiles"] == {"error": "Q(2/8) lies past the float range (Q = inf)"}
        assert "past the float range" in payload["moment_1"]["error"]

    def test_residual_life_where_survival_underflows_reported_inline(self, capsys):
        # S(1000) = exp(-1000) is 0 in floating point
        code, out, _ = run_cli(
            capsys,
            "props", "--family", "gte", "--params", "1,1,0",
            "--residual", "1,1000", "--moment", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["residual_1,1000"] == {"error": "survival(t) is 0; residual life undefined"}
        assert payload["moment_1"] == pytest.approx(1.0)

    def test_stress_strength(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "props", "--family", "gte", "--params", "1.0,1.0,0.0",
            "--stress-strength", "0.0,0.0",
        )
        assert code == 0
        assert json.loads(out)["stress_strength"] == pytest.approx(0.5)

    def test_wrong_param_count_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "props", "--family", "gtw", "--params", "1.0,1.0",
            "--moment", "1",
        )
        assert code == 2
        assert "error" in err

    def test_infinite_incomplete_moment_bound_is_exit_1(self, capsys):
        code, out, err = run_cli(
            capsys, "props", "--family", "gtl", "--params", "1,0.8,1,0",
            "--incomplete-moment", "2,inf",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "raw_moment" in err

    def test_quadrature_failure_is_exit_1(self, capsys):
        # gtw with alpha = 0.00145: e^(-X/2) falls from 1 to 0 over the
        # levels (0.0950, 0.0956), and the quadrature misses its bound (a
        # QuadratureError, which is a NumericsError)
        code, out, err = run_cli(
            capsys, "props", "--family", "gtw", "--params", "0.00145,0.1,1,0", "--mgf=-0.5",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: quadrature did not converge (estimate 0.0947")

    @pytest.mark.parametrize(
        "family, params, options, keys",
        [
            # gtb12 fitted by ml to the failure data: lam within 6e-13 of 1
            (
                "gtb12", f"0.4332,1.4754,4.5517,{1 - 5.9e-13!r}",
                ["--moment", "1", "--pwm", "1,1", "--renyi", "0.5", "--cigf", "1,1"],
                ["moment_1", "pwm_1,1", "renyi_0.5", "cigf_1,1"],
            ),
            # gtw with alpha < 1: E[e^(tX)] = inf for every t > 0
            (
                "gtw",
                "0.5476254646566685,1.6505821311814308,2.2225280328677064,0.2737413305556793",
                ["--mgf", "0.05"], ["mgf_0.05"],
            ),
        ],
        ids=["gtb12-lam-near-one", "gtw-mgf"],
    )
    def test_tail_divergence_reported_inline(self, capsys, family, params, options, keys):
        code, out, _ = run_cli(capsys, "props", "--family", family, "--params", params, *options)
        assert code == 0
        payload = json.loads(out)
        for key in keys:
            assert "diverges in the tail" in payload[key]["error"]


class TestCurves:
    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "curves", "--family", "gte", "--params", "1.0,1.0,0.0",
            "--grid", "0.1:5:10", "--which", "pdf,cdf",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,pdf,cdf"
        assert len(lines) == 11
        first = [float(v) for v in lines[1].split(",")]
        m = make_model("gte", beta=1.0, theta=1.0, lam=0.0)
        assert first[1] == pytest.approx(m.pdf(first[0]), rel=1e-4)

    def test_bad_grid(self, capsys):
        code, _, err = run_cli(
            capsys,
            "curves", "--family", "gte", "--params", "1.0,1.0,0.0",
            "--grid", "oops",
        )
        assert code == 2

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_grid_count_below_one_is_usage_error(self, capsys, count):
        code, out, err = run_cli(
            capsys,
            "curves", "--family", "gte", "--params", "1.0,1.0,0.0",
            "--grid", f"0.1:5:{count}",
        )
        assert code == 2
        assert out == ""
        assert err == f"error: --grid COUNT must be at least 1, got {count}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("props", "--family", "gte", "--params=-1,1,0", "--moment", "1"),
         "beta must be positive, got -1.0"),
        (("curves", "--family", "gtw", "--params=0,1,1,0", "--grid", "0.1:2:3"),
         "shape parameter alpha must be positive, got 0.0"),
        (("props", "--family", "gte", "--params=1,1,1.5", "--moment", "1"),
         "lambda must lie in [-1, 1], got 1.5"),
    ],
)
def test_out_of_range_params_are_usage_errors(capsys, argv, message):
    # exit 2, as the same values give in a simulate config
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("props", "--family", "gte", "--params=inf,1,0", "--moment", "1"),
         "beta must be finite, got inf"),
        (("props", "--family", "gte", "--params=1,inf,0", "--moment", "1"),
         "theta must be finite, got inf"),
        (("curves", "--family", "gtw", "--params=inf,1,1,0", "--grid", "0.1:2:3"),
         "shape parameter alpha must be finite, got inf"),
        (("props", "--family", "gte", "--params=nan,1,0", "--moment", "1"),
         "beta must be positive, got nan"),
    ],
)
def test_non_finite_params_are_usage_errors(capsys, argv, message):
    # before, --params inf,1,0 reported a first moment of 0.0 and exited 0
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "option, value",
    [
        ("--pwm", "1.7,1"),
        ("--pwm", "1,0.5"),
        ("--incomplete-moment", "1.5,2.0"),
        ("--residual", "1.9,0.5"),
        ("--reversed-residual", "2.0,0.5"),
    ],
)
def test_non_integer_orders_are_usage_errors(capsys, option, value):
    # before, the orders were truncated: --pwm 1.7,1 reported pwm(1, 1)
    # under the key "pwm_1.7,1"
    code, out, err = run_cli(
        capsys, "props", "--family", "gte", "--params", "1,1,0", option, value
    )
    assert code == 2
    assert out == ""
    assert err == (
        f"error: cannot parse {option} value {value!r} (its orders are integers)\n"
    )


@pytest.mark.parametrize(
    "options, message",
    [
        (("--renyi", "inf"), "--renyi takes finite values, got inf"),
        (("--q-entropy", "inf"), "--q-entropy takes finite values, got inf"),
        (("--renyi", "2", "--entropy-lower", "inf"), "--entropy-lower takes finite values, got inf"),
        (("--residual", "1,inf"), "--residual takes finite values, got inf"),
        (("--reversed-residual", "1,inf"), "--reversed-residual takes finite values, got inf"),
        (("--reversed-residual", "1,-inf"), "--reversed-residual takes finite values, got -inf"),
        (("--cigf", "inf,1"), "--cigf takes finite values, got inf"),
        (("--cigf", "1,nan"), "--cigf takes finite values, got nan"),
    ],
)
def test_non_finite_property_arguments_are_usage_errors(capsys, options, message):
    # before, --reversed-residual 1,inf exited 1 on a QuadratureError and
    # --q-entropy inf reported -0.0
    code, out, err = run_cli(
        capsys, "props", "--family", "gtw", "--params", "1.5,0.5,1.2,-0.3", *options
    )
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_infinite_mgf_argument_keeps_its_limits(capsys):
    code, out, _ = run_cli(
        capsys, "props", "--family", "gtw", "--params", "1.5,0.5,1.2,-0.3",
        "--mgf=-inf", "--mgf", "inf",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mgf_-inf"] == 0.0
    assert payload["mgf_inf"]["error"].startswith("mgf t=inf")


def test_curves_where_the_survival_underflows_is_exit_1(capsys, tmp_path):
    # the hazard is undefined where S underflows to 0: an error line and
    # no CSV, not a traceback
    out_file = tmp_path / "curves.csv"
    code, out, err = run_cli(
        capsys,
        "curves", "--family", "gtwe",
        "--params", "1.05734468394833,0.107320592608552,3.63140679314774,0.668491021012012",
        "--grid", "0.01:10:200", "--out", str(out_file),
    )
    assert code == 1
    assert out == ""
    assert err == "error: survival underflowed to 0; hazard undefined\n"
    assert not out_file.exists()


class TestSimulate:
    def test_tiny_study(self, capsys, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(
            "family = gte\n"
            "truth = 1.0,1.0,0.0\n"
            "sizes = 40\n"
            "N = 4\n"
            "methods = ml\n"
            "seed = 3\n"
            "starts = 1\n"
            "start = truth\n"
        )
        prefix = str(tmp_path / "out")
        code, out, _ = run_cli(capsys, "simulate", str(cfg), "--out-prefix", prefix)
        assert code == 0
        assert "ml" in out
        blob = json.loads((tmp_path / "out.json").read_text())
        jsonschema.validate(blob, _schema("sim_result.schema.json"))
        csv_lines = (tmp_path / "out.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 2

    def test_unknown_key_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("family = gte\ntruth = 1,1,0\nbogus = 3\n")
        code, _, err = run_cli(capsys, "simulate", str(cfg))
        assert code == 2

    def test_starts_below_one_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "nostart.cfg"
        cfg.write_text("family = gte\ntruth = 1,1,0\nsizes = 40\nN = 2\nstarts = 0\n")
        code, out, err = run_cli(capsys, "simulate", str(cfg))
        assert code == 2
        assert out == ""
        assert err == f"error: {cfg}: starts must be at least 1, got 0\n"

    def test_missing_config_file(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "/no/such.cfg")
        assert code == 2

    def test_all_failed_cell_is_exit_1(self, capsys, tmp_path, monkeypatch):
        def failing_fit(*args, **kwargs):
            raise FitError("no start converged")

        monkeypatch.setattr(gtld.simulation, "fit", failing_fit)
        cfg = tmp_path / "doomed.cfg"
        cfg.write_text(
            "family = gtwe\n"
            "truth = 2.5,3.0,0.5,0.2\n"
            "sizes = 50\n"
            "N = 1\n"
            "methods = ml\n"
            "seed = 20240816\n"
            "starts = 1\n"
            "start = truth\n"
        )
        code, out, err = run_cli(capsys, "simulate", str(cfg))
        assert code == 1
        assert out == ""
        assert err == "error: all replications failed for cell ('ml', 50)\n"


class TestPrecision:
    @pytest.mark.parametrize("precision", ["0", "-1"])
    def test_precision_below_one_is_usage_error(self, capsys, precision):
        # before: -1 ran the command and exited 1 on the format string, and
        # 0 printed one digit
        code, out, err = run_cli(
            capsys,
            "--precision", precision,
            "props", "--family", "gte", "--params", "3.0,1.0,0.0", "--moment", "1",
        )
        assert code == 2
        assert out == ""
        assert err == f"error: --precision must be at least 1, got {precision}\n"

    def test_precision_flag_rounds(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "--precision", "2",
            "props", "--family", "gte", "--params", "3.0,1.0,0.0",
            "--moment", "1",
        )
        assert code == 0
        assert json.loads(out)["moment_1"] == pytest.approx(0.33, abs=1e-9)
