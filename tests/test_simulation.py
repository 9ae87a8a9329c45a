import json

import jsonschema
import numpy as np
import pytest

from gtld import simulation
from gtld.estimation import FitError
from gtld.model import ParamVector
from gtld.simulation import (
    SimConfig,
    emit_table,
    replication_seed,
    run_simulation,
)

TRUTH = ParamVector(beta=3.0, theta=0.5, lam=0.2, shape={"alpha": 2.5})


def small_config(**kw):
    base = dict(
        truth=TRUTH,
        family="gtwe",
        sample_sizes=(40,),
        replications=6,
        methods=("ml",),
        master_seed=123,
        n_starts=1,
    )
    base.update(kw)
    return SimConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(replications=0)
        with pytest.raises(ValueError):
            small_config(sample_sizes=(1,))
        with pytest.raises(ValueError):
            small_config(start="oracle")

    @pytest.mark.parametrize("n_starts", [0, -3])
    def test_no_start_is_refused(self, n_starts):
        with pytest.raises(ValueError, match="n_starts must be >= 1"):
            small_config(n_starts=n_starts)

    @pytest.mark.parametrize(
        "shape, message",
        [
            ({}, r"gtwe requires shape parameter\(s\) \['alpha'\]"),
            ({"alpha": 2.5, "gamma": 0.5}, r"gtwe does not take shape parameter\(s\) \['gamma'\]"),
        ],
        ids=["missing", "extra"],
    )
    def test_truth_whose_shapes_are_not_the_familys_refused(self, shape, message):
        # before, a missing shape raised a bare KeyError from as_array
        truth = ParamVector(beta=3.0, theta=0.5, lam=0.2, shape=shape)
        with pytest.raises(ValueError, match=message):
            run_simulation(small_config(truth=truth))

    def test_start_modes_accepted(self):
        assert small_config(start="truth").start == "truth"
        assert small_config().start == "heuristic"


class TestSeeds:
    def test_deterministic_and_distinct(self):
        a = replication_seed(7, 50, 0)
        assert a == replication_seed(7, 50, 0)
        seen = {replication_seed(7, n, r) for n in (50, 100) for r in range(200)}
        assert len(seen) == 400

    def test_master_seed_matters(self):
        assert replication_seed(1, 50, 0) != replication_seed(2, 50, 0)


class TestRun:
    def test_deterministic(self):
        r1 = run_simulation(small_config())
        r2 = run_simulation(small_config())
        c1, c2 = r1.cells[("ml", 40)], r2.cells[("ml", 40)]
        np.testing.assert_array_equal(c1.mse, c2.mse)
        np.testing.assert_array_equal(c1.abs_bias, c2.abs_bias)
        assert c1.failure_count == c2.failure_count

    def test_cell_layout(self):
        res = run_simulation(small_config(methods=("ml", "ols"), sample_sizes=(40, 60)))
        assert set(res.cells) == {(m, n) for m in ("ml", "ols") for n in (40, 60)}
        assert res.parameter_names == ("alpha", "beta", "theta", "lambda")
        for cell in res.cells.values():
            assert cell.mse.shape == (4,)
            assert np.all(cell.mse >= 0) and np.all(cell.abs_bias >= 0)

    def test_ml_on_easy_family_never_fails(self):
        cfg = SimConfig(
            truth=ParamVector(beta=1.0, theta=1.0, lam=0.0, shape={}),
            family="gte",
            sample_sizes=(100,),
            replications=10,
            methods=("ml",),
            master_seed=5,
            n_starts=2,
        )
        res = run_simulation(cfg)
        assert res.cells[("ml", 100)].failure_count == 0

    def test_failed_fit_is_counted(self, monkeypatch):
        real_fit = simulation.fit
        base = run_simulation(small_config()).cells[("ml", 40)].failure_count
        calls = []

        def first_fails(*args, **kwargs):
            calls.append(None)
            if len(calls) == 1:
                raise FitError("all 1 starts failed")
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(simulation, "fit", first_fails)
        res = run_simulation(small_config())
        assert res.cells[("ml", 40)].failure_count == base + 1

    def test_bug_in_fit_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("unexpected keyword")

        monkeypatch.setattr(simulation, "fit", broken)
        with pytest.raises(TypeError, match="unexpected keyword"):
            run_simulation(small_config())

    def test_all_failed_cell_raises_fit_error(self, monkeypatch):
        def failing(*args, **kwargs):
            raise FitError("all 1 starts failed")

        monkeypatch.setattr(simulation, "fit", failing)
        with pytest.raises(FitError, match=r"all replications failed for cell \('ml', 40\)"):
            run_simulation(small_config())
        assert issubclass(FitError, RuntimeError)  # callers catching RuntimeError still do

    def test_truth_start_changes_results(self):
        heur = run_simulation(small_config())
        anchored = run_simulation(small_config(start="truth"))
        assert not np.array_equal(
            heur.cells[("ml", 40)].mse, anchored.cells[("ml", 40)].mse
        )


class TestEmit:
    @pytest.fixture(scope="class")
    def result(self):
        return run_simulation(small_config(sample_sizes=(40, 60)))

    def test_csv(self, result):
        lines = emit_table(result, "csv").strip().splitlines()
        assert lines[0].startswith("method,n")
        assert len(lines) == 1 + 2  # header + one row per (method, n)

    def test_text(self, result):
        txt = emit_table(result, "text")
        assert "ml" in txt and "40" in txt

    def test_json_schema(self, result):
        import gtld

        blob = json.loads(emit_table(result, "json"))
        schema_path = (
            __import__("pathlib").Path(gtld.__file__).parent
            / "schemas"
            / "sim_result.schema.json"
        )
        schema = json.loads(schema_path.read_text())
        jsonschema.validate(blob, schema)

    def test_unknown_format(self, result):
        with pytest.raises(ValueError):
            emit_table(result, "yaml")
