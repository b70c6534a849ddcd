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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import Dataset, WeightedSet, empirical_risk
from .coreset import CoresetParams, build_coreset
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
    "oracle_times",
]

PROCEDURES = ("uniform", "coreset")

LAMBDA_HEADER = [
    "procedure",
    "n",
    "s",
    "repeats",
    "mean_time_s",
    "median_time_s",
    "mean_risk",
    "std_risk",
    "seed",
]


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


@dataclass(frozen=True)
class Lambda:
    records: tuple[LambdaRecord, ...]

    def n_grid(self) -> tuple[int, ...]:
        return tuple(sorted({r.n for r in self.records}))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(LAMBDA_HEADER)
            for r in self.records:
                writer.writerow(
                    [
                        r.procedure,
                        r.n,
                        r.s,
                        r.repeats,
                        repr(r.mean_time_s),
                        repr(r.median_time_s),
                        repr(r.mean_risk),
                        repr(r.std_risk),
                        r.seed,
                    ]
                )

    @staticmethod
    def from_csv(path) -> "Lambda":
        records = []
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != LAMBDA_HEADER:
                raise ValueError(f"{path}: unexpected header {reader.fieldnames}")
            for row in reader:
                records.append(
                    LambdaRecord(
                        procedure=row["procedure"],
                        n=int(row["n"]),
                        s=int(row["s"]),
                        repeats=int(row["repeats"]),
                        mean_time_s=float(row["mean_time_s"]),
                        median_time_s=float(row["median_time_s"]),
                        mean_risk=float(row["mean_risk"]),
                        std_risk=float(row["std_risk"]),
                        seed=int(row["seed"]),
                    )
                )
        return Lambda(tuple(records))


def _uniform_summary(sample: np.ndarray, s: int, rng: np.random.Generator) -> WeightedSet:
    n = sample.shape[0]
    if s >= n:
        return WeightedSet(sample, np.full(n, 1.0 / n))
    idx = rng.choice(n, size=s, replace=False)
    return WeightedSet(sample[idx], np.full(s, 1.0 / s))


def _run_cell(reference: Dataset, grid: SweepGrid, ni: int, sj: int) -> LambdaRecord:
    n, s = grid.n_values[ni], grid.s_values[sj]
    times, risks = [], []
    for rep in range(grid.repeats):
        # substreams are keyed without the procedure name, so uniform and
        # coreset sweeps see identical samples and solver seeds per cell
        sample_rng = derive_rng(grid.seed, "sample", ni, sj, rep)
        sample = reference.subset(sample_rng.choice(reference.n, size=n, replace=False))
        solve_seed = stable_seed(grid.seed, "solve", ni, sj, rep)

        t0 = time.perf_counter()
        if grid.procedure == "coreset" and s < n:
            summary = build_coreset(
                sample,
                CoresetParams(
                    k=grid.solver.k,
                    size=s,
                    seed=stable_seed(grid.seed, "summarize", ni, sj, rep),
                ),
            )
        else:
            # uniform procedure, and coreset cells without summarization room
            summ_rng = derive_rng(grid.seed, "summarize", ni, sj, rep)
            summary = _uniform_summary(sample.points, s, summ_rng)
        result = solve(summary, grid.solver, rng=solve_seed)
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
        std_risk=statistics.pstdev(risks) if len(risks) > 1 else 0.0,
        seed=grid.seed,
    )


def run_sweep(data_source: Dataset, grid: SweepGrid, jobs: int = 1) -> Lambda:
    """Measure every (n, s) cell of the grid against the reference data.

    Timing covers summarization plus solving only. Cell values are
    scheduling-independent (per-cell substreams); jobs > 1 runs cells
    concurrently, which can perturb the recorded wall times but not the
    risks.
    """
    if max(grid.n_values) > data_source.n:
        raise ValueError(
            f"grid needs {max(grid.n_values)} points, data has {data_source.n}"
        )
    cells = [(i, j) for i in range(len(grid.n_values)) for j in range(len(grid.s_values))]
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            records = list(
                pool.map(lambda c: _run_cell(data_source, grid, *c), cells)
            )
    else:
        records = [_run_cell(data_source, grid, i, j) for i, j in cells]
    return Lambda(tuple(records))


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


def oracle_times(
    lam_u: Lambda, lam_c: Lambda, eps_total: float
) -> list[tuple[int, float | None, float | None]]:
    """Aligned (n, uniform-oracle time, coreset-oracle time) frontiers."""
    if lam_u.n_grid() != lam_c.n_grid():
        raise ValueError("the two sweeps use different n grids")
    front_u = dict(pareto_data_time(lam_u, eps_total))
    front_c = dict(pareto_data_time(lam_c, eps_total))
    return [(n, front_u.get(n), front_c.get(n)) for n in lam_u.n_grid()]
