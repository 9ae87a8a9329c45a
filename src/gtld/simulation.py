"""Monte Carlo estimator-comparison harness.

For each sample size and replication the harness draws a sample at the true
parameters, fits it with each requested method, and accumulates absolute
bias and MSE per coordinate.  Replication seeds derive from the master seed
through a stable blake2b hash of "master:n:r", so results are identical for
any execution order or degree of parallelism.  Failed fits are excluded
from the averages and counted — they are never re-drawn, since re-drawing
would bias the estimand.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field

import numpy as np

from .estimation import METHODS, FitError, fit
from .model import ParamVector, model_from_params, param_names


@dataclass(frozen=True)
class SimConfig:
    truth: ParamVector
    family: str = "gtwe"
    sample_sizes: tuple = (50, 100, 150, 200, 300, 400)
    replications: int = 500
    methods: tuple = METHODS
    master_seed: int = 20240811
    n_starts: int = 3
    # "heuristic": every fit starts from the data-driven default (the
    # estimator as a black box); "truth": fits start at the true parameters,
    # the protocol that reproduces published bias/MSE trends for the weakly
    # identified transmutation coordinate.
    start: str = "heuristic"

    def __post_init__(self):
        if self.start not in ("heuristic", "truth"):
            raise ValueError("start must be 'heuristic' or 'truth'")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.n_starts < 1:
            raise ValueError("n_starts must be >= 1")
        if any(n < 2 for n in self.sample_sizes):
            raise ValueError("sample sizes must be >= 2")
        bad = [m for m in self.methods if m not in METHODS]
        if bad:
            raise ValueError(f"unknown methods {bad}")


@dataclass(frozen=True)
class SimCell:
    abs_bias: np.ndarray
    mse: np.ndarray
    failure_count: int


@dataclass(frozen=True)
class SimResult:
    config: SimConfig
    parameter_names: tuple
    cells: dict = field(default_factory=dict)  # (method, n) -> SimCell


def replication_seed(master_seed: int, n: int, r: int) -> int:
    """Schedule-independent per-replication seed."""
    digest = hashlib.blake2b(
        f"{master_seed}:{n}:{r}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def run_simulation(config: SimConfig) -> SimResult:
    # the model refuses a truth whose shapes are not the family's (ValueError)
    model = model_from_params(config.family, config.truth)
    truth_vec = config.truth.as_array(config.family)
    names = param_names(config.family)
    d = truth_vec.size

    acc = {
        (m, n): {"abs": np.zeros(d), "sq": np.zeros(d), "fail": 0}
        for m in config.methods
        for n in config.sample_sizes
    }
    for n in config.sample_sizes:
        for r in range(config.replications):
            sample = model.sample(n, replication_seed(config.master_seed, n, r))
            for m in config.methods:
                cell = acc[(m, n)]
                try:
                    result = fit(
                        sample,
                        config.family,
                        method=m,
                        init=config.truth if config.start == "truth" else None,
                        seed=replication_seed(config.master_seed, n, r) ^ 0xA5A5,
                        n_starts=config.n_starts,
                    )
                except (FitError, ArithmeticError):
                    # a fit that fails numerically is counted; any other
                    # exception is a bug and ends the study
                    cell["fail"] += 1
                    continue
                if not result.converged:
                    cell["fail"] += 1
                    continue
                err = result.estimates.as_array(config.family) - truth_vec
                cell["abs"] += np.abs(err)
                cell["sq"] += err**2

    cells = {}
    for key, a in acc.items():
        ok = config.replications - a["fail"]
        if ok == 0:
            raise FitError(f"all replications failed for cell {key}")
        cells[key] = SimCell(
            abs_bias=a["abs"] / ok, mse=a["sq"] / ok, failure_count=a["fail"]
        )
    return SimResult(config=config, parameter_names=names, cells=cells)


def _rows(result: SimResult):
    header = ["method", "n"]
    for p in result.parameter_names:
        header += [f"abs_bias_{p}", f"mse_{p}"]
    header.append("failures")
    rows = [header]
    for m in result.config.methods:
        for n in result.config.sample_sizes:
            cell = result.cells[(m, n)]
            row = [m, n]
            for j in range(len(result.parameter_names)):
                row += [cell.abs_bias[j], cell.mse[j]]
            row.append(cell.failure_count)
            rows.append(row)
    return rows


def emit_table(result: SimResult, format: str = "text") -> str:
    """Render the result as csv, json, or an aligned text table."""
    rows = _rows(result)
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in rows:
            writer.writerow(row)
        return buf.getvalue()
    if format == "json":
        out = {
            "family": result.config.family,
            "truth": list(map(float, result.config.truth.as_array(result.config.family))),
            "parameters": list(result.parameter_names),
            "cells": [
                {
                    "method": m,
                    "n": n,
                    "abs_bias": [float(v) for v in cell.abs_bias],
                    "mse": [float(v) for v in cell.mse],
                    "failures": cell.failure_count,
                }
                for (m, n), cell in sorted(result.cells.items())
            ],
        }
        return json.dumps(out, indent=2)
    if format == "text":
        text_rows = [
            [f"{v:.5f}" if isinstance(v, float) else str(v) for v in row]
            for row in rows
        ]
        widths = [max(len(r[c]) for r in text_rows) for c in range(len(rows[0]))]
        return "\n".join(
            "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
            for row in text_rows
        )
    raise ValueError(f"unknown format {format!r}")
