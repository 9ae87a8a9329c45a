"""The model layer and the property catalog against their golden records
(``tests/golden/model.json``, ``tests/golden/properties.json``).

The records hold every float as ``float.hex``; here a fresh record must
match its stored one to a relative 1e-12, inf and NaN where the record
has them, and a property call must raise the recorded error type.
``python tests/golden_model.py --exact`` compares the bytes instead.
"""

import numpy as np
import pytest

import golden_model

STORED = golden_model.load()
FRESH = golden_model.compute()


def _floats(values):
    return np.array([float.fromhex(v) for v in values])


def _model_id(rec):
    shape = ",".join(f"{name}={value!r}" for name, value in rec["shape"])
    return f"{rec['family']}-b{rec['beta']}-t{rec['theta']}-l{rec['lam']}-{shape}"


@pytest.mark.parametrize(
    "index", range(len(STORED["models"])), ids=[_model_id(r) for r in STORED["models"]]
)
def test_model_matches_the_record(index):
    want, got = STORED["models"][index], FRESH["models"][index]
    for key in ("family", "beta", "theta", "lam", "shape"):
        assert got[key] == want[key]
    for key in ("support_low", "points", "levels", "cdf", "survival", "logpdf", "pdf",
                "quantile", "sample"):
        w = want[key] if isinstance(want[key], list) else [want[key]]
        g = got[key] if isinstance(got[key], list) else [got[key]]
        np.testing.assert_allclose(_floats(g), _floats(w), rtol=1e-12, atol=0, err_msg=key)


def test_default_init_on_gauge_matches_the_record():
    want, got = STORED["default_init_gauge"], FRESH["default_init_gauge"]
    assert list(got) == list(want)
    for family in want:
        assert list(got[family]) == list(want[family])
        np.testing.assert_allclose(
            _floats(got[family].values()), _floats(want[family].values()),
            rtol=1e-12, atol=0, err_msg=family,
        )


PROPS_STORED = golden_model.load(golden_model.PROPERTIES_PATH)
PROPS_FRESH = golden_model.compute_properties()


def _property_model_id(rec):
    shape = ",".join(f"{name}={float.fromhex(value)!r}" for name, value in rec["shape"])
    params = (float.fromhex(rec[key]) for key in ("beta", "theta", "lam"))
    return f"{rec['family']}-" + "-".join(f"{v:.4g}" for v in params) + f"-{shape}"


@pytest.mark.parametrize(
    "index", range(len(PROPS_STORED["models"])),
    ids=[_property_model_id(r) for r in PROPS_STORED["models"]],
)
def test_property_catalog_matches_the_record(index):
    want, got = PROPS_STORED["models"][index], PROPS_FRESH["models"][index]
    for key in ("family", "beta", "theta", "lam", "shape"):
        assert got[key] == want[key]
    assert list(got["calls"]) == list(want["calls"])
    for call, w in want["calls"].items():
        g = got["calls"][call]
        if "error" in w:
            assert g == w, call
        else:
            assert "value" in g, (call, g)
            np.testing.assert_allclose(
                float.fromhex(g["value"]), float.fromhex(w["value"]), rtol=1e-12, atol=0,
                err_msg=call,
            )
