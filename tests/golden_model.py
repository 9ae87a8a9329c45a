"""The model layer's golden record, ``tests/golden/model.json``.

Eight families, three fixed parameter sets each (one set passes its shape
as an int, one gtmw set passes gamma before alpha): the model's support,
``cdf``, ``survival``, ``logpdf`` and ``pdf`` at five points from the
support's low end on, ``quantile`` at five levels and ``sample(5,
seed=1)``; and ``default_init`` of every family on the gauge data.  Every
float is stored as ``float.hex``, so the record keeps its bits.

``tests/test_golden.py`` compares a fresh record with the stored one at a
relative tolerance of 1e-12.  Run as a script to compare bytes or to
write the record anew::

    PYTHONPATH=src python tests/golden_model.py --exact
    PYTHONPATH=src python tests/golden_model.py --write
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from gtld import load_values, make_model
from gtld.estimation import default_init
from gtld.model import param_names

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "model.json")

OFFSETS = (0.0, 0.05, 0.5, 1.5, 4.0)  # the points, above the support's low end
LEVELS = (1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-6)
# (beta, theta, lam) of the three sets; the shapes are given per family,
# as (name, value) pairs in the order they are passed
SETS = ((1.5, 0.8, 1.0), (0.5, 2.5, -0.7), (2.0, 0.5, -1.0))
SHAPES = {
    "gte": ((), (), ()),
    "gtr": ((), (), ()),
    "gtw": ((("alpha", 1.5),), (("alpha", 3),), (("alpha", 0.7),)),
    "gtmw": (
        (("alpha", 1.2), ("gamma", 0.3)),
        (("alpha", 2), ("gamma", 1)),
        (("gamma", 0.5), ("alpha", 2.0)),
    ),
    "gtwe": ((("alpha", 0.8),), (("alpha", 2),), (("alpha", 1.3),)),
    "gtb12": ((("alpha", 2.0),), (("alpha", 1),), (("alpha", 0.6),)),
    "gtl": ((("alpha", 1.5),), (("alpha", 2),), (("alpha", 0.4),)),
    "gtp1": ((("alpha", 0.5),), (("alpha", 2),), (("alpha", 1.25),)),
}


def _hex(values):
    return [float(v).hex() for v in np.atleast_1d(values)]


def compute() -> dict:
    """The record, from the code on the import path."""
    models = []
    for family, shapes in SHAPES.items():
        for (beta, theta, lam), shape in zip(SETS, shapes):
            m = make_model(family, beta=beta, theta=theta, lam=lam, **dict(shape))
            xs = m.support_low + np.array(OFFSETS)
            models.append({
                "family": family,
                "beta": beta,
                "theta": theta,
                "lam": lam,
                "shape": [list(pair) for pair in shape],
                "support_low": float(m.support_low).hex(),
                "points": _hex(xs),
                "cdf": _hex(m.cdf(xs)),
                "survival": _hex(m.survival(xs)),
                "logpdf": _hex(m.logpdf(xs)),
                "pdf": _hex(m.pdf(xs)),
                "levels": _hex(LEVELS),
                "quantile": _hex(m.quantile(np.array(LEVELS))),
                "sample": _hex(m.sample(5, seed=1)),
            })
    gauge = load_values("gauge")
    inits = {}
    for family in SHAPES:
        p = default_init(gauge, family)
        inits[family] = dict(zip(param_names(family), _hex(p.as_array(family))))
    return {"models": models, "default_init_gauge": inits}


def dumps(record: dict) -> str:
    return json.dumps(record, indent=1) + "\n"


def load() -> dict:
    with open(PATH, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="write the record anew")
    mode.add_argument("--exact", action="store_true", help="compare the record's bytes")
    args = ap.parse_args(argv)
    text = dumps(compute())
    if args.write:
        os.makedirs(os.path.dirname(PATH), exist_ok=True)
        with open(PATH, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {PATH}")
        return 0
    with open(PATH, encoding="utf-8") as fh:
        stored = fh.read()
    if stored != text:
        print(f"{PATH}: the code's record differs from the stored one", file=sys.stderr)
        return 1
    print(f"{PATH}: identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
