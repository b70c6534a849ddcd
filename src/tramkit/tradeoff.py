"""Empirical sweep harness and Pareto-frontier extraction.

A sweep measures, for every (data size n, summary size s) grid cell, the
wall time of summarize+solve and the true risk of the returned centers
(empirical risk over the full reference dataset), averaged over repeats.
Frontiers answer: what is the minimum time achievable at data budget n and
risk budget eps, allowing any truncation n' <= n.
"""

from __future__ import annotations

import csv
import statistics
import time
from dataclasses import dataclass, fields, replace

from .core import Dataset, empirical_risk, uniform_weighted
from .coreset import CoresetParams, build_coreset
from .data import _write_table
from .rng import derive_rng, stable_seed
from .solver import SolverConfig, solve

__all__ = [
    "PROCEDURES",
    "SweepGrid",
    "LambdaRecord",
    "Lambda",
    "run_sweep",
    "pareto_data_time",
    "pareto_risk_time",
]

PROCEDURES = ("uniform", "coreset")


@dataclass(frozen=True)
class SweepGrid:
    n_values: tuple[int, ...]
    s_values: tuple[int, ...]
    procedure: str
    solver: SolverConfig
    repeats: int = 50
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n_values", tuple(int(v) for v in self.n_values))
        object.__setattr__(self, "s_values", tuple(int(v) for v in self.s_values))
        for name, vals in (("n_values", self.n_values), ("s_values", self.s_values)):
            if not vals or any(b <= a for a, b in zip(vals, vals[1:])):
                raise ValueError(f"{name} must be non-empty and strictly ascending")
            if vals[0] < 1:
                raise ValueError(f"{name} must be positive")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.procedure not in PROCEDURES:
            raise ValueError(f"procedure must be one of {PROCEDURES}")


@dataclass(frozen=True)
class LambdaRecord:
    procedure: str
    n: int
    s: int
    repeats: int
    mean_time_s: float
    median_time_s: float
    mean_risk: float
    std_risk: float
    seed: int


# the Lambda CSV columns in order, each with its parser (field types are
# strings here, as annotations are not evaluated)
_PARSERS = {"str": str, "int": int, "float": float}
_LAMBDA_FIELDS = tuple((f.name, _PARSERS[f.type]) for f in fields(LambdaRecord))
LAMBDA_HEADER = [name for name, _ in _LAMBDA_FIELDS]


@dataclass(frozen=True)
class Lambda:
    records: tuple[LambdaRecord, ...]

    def n_grid(self) -> tuple[int, ...]:
        return tuple(sorted({r.n for r in self.records}))

    def to_csv(self, path) -> None:
        # floats are written as their repr, so values round-trip exactly
        _write_table(
            path,
            LAMBDA_HEADER,
            ([getattr(r, name) for name in LAMBDA_HEADER] for r in self.records),
        )

    @staticmethod
    def from_csv(path) -> "Lambda":
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != LAMBDA_HEADER:
                raise ValueError(f"{path}: unexpected header {reader.fieldnames}")
            records = tuple(
                LambdaRecord(**{name: parse(row[name]) for name, parse in _LAMBDA_FIELDS})
                for row in reader
            )
        return Lambda(records)


def _run_cell(reference: Dataset, grid: SweepGrid, ni: int, sj: int) -> LambdaRecord:
    n, s = grid.n_values[ni], grid.s_values[sj]
    # a uniform summary of s < n points gathers its rows straight from the
    # reference, through the sample's indices, so no n-row sample is built
    gather = grid.procedure == "uniform" and s < n
    times, risks = [], []
    for rep in range(grid.repeats):
        # substreams are keyed without the procedure name, so uniform and
        # coreset sweeps see identical samples and solver seeds per cell
        sample_rng = derive_rng(grid.seed, "sample", ni, sj, rep)
        idx = sample_rng.choice(reference.n, size=n, replace=False)
        sample = None if gather else reference.subset(idx)
        solver = replace(grid.solver, seed=stable_seed(grid.seed, "solve", ni, sj, rep))

        t0 = time.perf_counter()
        if gather:
            summ_rng = derive_rng(grid.seed, "summarize", ni, sj, rep)
            pick = summ_rng.choice(n, size=s, replace=False)
            summary = uniform_weighted(reference.subset(idx.take(pick)))
        else:
            # a coreset; s >= n gives the whole sample at weight 1/n, for
            # either procedure, which build_coreset returns without drawing
            summary = build_coreset(
                sample,
                CoresetParams(
                    k=grid.solver.k,
                    size=s,
                    seed=stable_seed(grid.seed, "summarize", ni, sj, rep),
                ),
            )
        result = solve(summary, solver)
        times.append(time.perf_counter() - t0)
        risks.append(empirical_risk(reference, result.centers))
    return LambdaRecord(
        procedure=grid.procedure,
        n=n,
        s=s,
        repeats=grid.repeats,
        mean_time_s=statistics.fmean(times),
        median_time_s=statistics.median(times),
        mean_risk=statistics.fmean(risks),
        std_risk=statistics.pstdev(risks),
        seed=grid.seed,
    )


def run_sweep(data_source: Dataset, grid: SweepGrid) -> Lambda:
    """Measure every (n, s) cell of the grid against the reference data.

    Cells run one at a time, in grid order. Each cell's clock covers
    summarize plus solve only; the sample draw, the sample copy and the
    reference risk fall outside it. Cell values do not depend on the
    order (per-cell substreams).
    """
    if max(grid.n_values) > data_source.n:
        raise ValueError(
            f"grid needs {max(grid.n_values)} points, data has {data_source.n}"
        )
    return Lambda(tuple(
        _run_cell(data_source, grid, i, j)
        for i in range(len(grid.n_values))
        for j in range(len(grid.s_values))
    ))


def pareto_data_time(lam: Lambda, eps_total: float) -> list[tuple[int, float]]:
    """Data-time frontier: minimum mean time at data budget n and risk <= eps.

    For each grid n, minimizes over records with record.n <= n (truncation
    is free); n values with no feasible record are omitted (data-bounded).
    The result is non-increasing in n by construction.
    """
    out = []
    for n in lam.n_grid():
        feas = [
            r.mean_time_s
            for r in lam.records
            if r.n <= n and r.mean_risk <= eps_total
        ]
        if feas:
            out.append((n, min(feas)))
    return out


def pareto_risk_time(lam: Lambda, n: int) -> list[tuple[float, float]]:
    """Risk-time frontier at data budget n, swept over observed risk levels."""
    recs = [r for r in lam.records if r.n <= n]
    out = []
    for eps in sorted({r.mean_risk for r in recs}):
        feas = [r.mean_time_s for r in recs if r.mean_risk <= eps]
        out.append((eps, min(feas)))
    return out

