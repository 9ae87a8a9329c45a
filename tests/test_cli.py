import json

import jsonschema
import numpy as np
import pytest

import gtld
from gtld.cli import main
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

    def test_missing_config_file(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "/no/such.cfg")
        assert code == 2


class TestPrecision:
    def test_precision_flag_rounds(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "--precision", "2",
            "props", "--family", "gte", "--params", "3.0,1.0,0.0",
            "--moment", "1",
        )
        assert code == 0
        assert json.loads(out)["moment_1"] == pytest.approx(0.33, abs=1e-9)
