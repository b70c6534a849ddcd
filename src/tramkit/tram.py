"""Tradeoff navigation: grow truncation and coreset size geometrically,
validate the solved centers on fresh data each round, stop at the
threshold.

Iteration i summarizes the first m[i] = min(ceil(gamma_m^i * m0), n)
training points into a coreset of size s[i] = ceil(gamma_s^i * s0), solves
for centers, and tests their empirical risk on the first a[i] validation
points against the threshold 1.5 * eps_total. Validation points are reused
cumulatively: a[i] counts a growing prefix of the pool, sized by
validation_size for test number i+1 so the budget is strictly increasing
from the very first test.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .core import Centers, Dataset, empirical_risk, uniform_weighted
from .coreset import CoresetParams, build_coreset
from .data import _write_table
from .rng import stable_seed
from .solver import SolverConfig, solve

__all__ = [
    "TramParams",
    "TramIteration",
    "TramTrace",
    "validation_size",
    "stopping_test",
    "truncation_at",
    "summary_at",
    "default_start_sizes",
    "run_tram",
]

# consecutive failed tests tolerated after both schedules saturate at n
SATURATED_FAILS = 3


@dataclass(frozen=True)
class TramParams:
    eps_total: float
    delta: float
    k: int
    B: float | None = None  # support radius; resolved from data when None
    beta: float = 1.0 / math.log2(1.5)  # so the default gamma_s is 1.5
    m0: int | None = None  # None: pilot-derived, inversely proportional to eps
    s0: int | None = None
    gamma_m: float = 2.0
    gamma_s: float | None = None  # None: 2**(1/beta)
    seed: int = 0

    def __post_init__(self):
        # each range is written so that NaN fails it
        if not 0.0 < self.eps_total < math.inf:
            raise ValueError("eps_total must be positive and finite")
        if not 0.0 < self.delta < 0.2:
            raise ValueError("delta must lie in (0, 1/5)")
        if not 1.0 < self.beta < math.inf:
            raise ValueError("beta must exceed 1 and be finite")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.B is not None and not 0.0 < self.B < math.inf:
            raise ValueError("B must be positive and finite")
        if self.gamma_s is None:
            object.__setattr__(self, "gamma_s", 2.0 ** (1.0 / self.beta))
        if not (1.0 < self.gamma_m < math.inf and 1.0 < self.gamma_s < math.inf):
            raise ValueError("growth factors must exceed 1 and be finite")
        if self.m0 is not None and self.m0 < 1:
            raise ValueError("m0 must be >= 1")
        if self.s0 is not None and self.s0 < 1:
            raise ValueError("s0 must be >= 1")

    @property
    def b(self) -> float:
        if self.B is None:
            raise ValueError("support radius B is unset")
        return 2.0 * self.B * self.B


@dataclass(frozen=True)
class TramIteration:
    i: int
    m: int
    s: int
    a: int
    validation_risk: float
    stopped: bool
    elapsed_solver: float  # summarize + solve, seconds
    elapsed_validation: float


@dataclass(frozen=True)
class TramTrace:
    """One navigation's rounds and result.

    `total_time` covers the rounds only. It leaves out `run_tram`'s
    start-up: the `bound_radius()` scan (when B is unset) and the pilot
    solve (when m0 or s0 is).
    """

    rows: tuple[TramIteration, ...]
    final_centers: Centers
    final_validation_risk: float
    exhausted: bool
    total_time: float
    params: TramParams = field(repr=False)

    @property
    def J(self) -> int:
        return len(self.rows)

    def to_csv(self, path) -> None:
        _write_table(
            path,
            ["i", "m", "s", "a", "val_risk", "stopped", "t_solver_ms", "t_val_ms"],
            (
                [r.i, r.m, r.s, r.a, r.validation_risk, str(r.stopped).lower(),
                 r.elapsed_solver * 1e3, r.elapsed_validation * 1e3]
                for r in self.rows
            ),
        )


def validation_size(i: int, p: TramParams) -> int:
    """Validation budget for test number i: ceil(4*i*b*ln(1/delta)/eps^2)."""
    if i < 1:
        raise ValueError("i must be >= 1")
    return math.ceil(4.0 * i * p.b * math.log(1.0 / p.delta) / p.eps_total**2)


def stopping_test(validation_risk: float, p: TramParams) -> bool:
    """True iff the measured risk clears the threshold 1.5 * eps_total."""
    return validation_risk <= 1.5 * p.eps_total


def truncation_at(i: int, m0: int, gamma_m: float, n: int) -> int:
    """m[i] = min(ceil(gamma_m^i * m0), n)."""
    return min(math.ceil(gamma_m**i * m0), n)


def summary_at(i: int, s0: int, gamma_s: float) -> int:
    """s[i] = ceil(gamma_s^i * s0); never undershoots the analytic schedule."""
    return math.ceil(gamma_s**i * s0)


def default_start_sizes(train: Dataset, p: TramParams, solver: SolverConfig):
    """Pilot-derived (m0, s0), inversely proportional to the target risk.

    A cheap single-restart solve on a data prefix supplies the reference
    risk scale eps_ref; then m0 = 1000 * eps_ref / eps, clamped to
    [1, n], and s0 = 100 * eps_ref / eps, at least 1 but not capped at n
    (an s above the prefix size makes build_coreset return the whole
    prefix).
    """
    pilot_n = min(train.n, 1000)
    cfg = replace(solver, restarts=1, seed=stable_seed(p.seed, "pilot"))
    res = solve(uniform_weighted(train.prefix(pilot_n)), cfg)
    eps_ref = max(res.weighted_risk, np.finfo(float).tiny)
    m0 = min(train.n, max(1, math.ceil(1000.0 * eps_ref / p.eps_total)))
    s0 = max(1, math.ceil(100.0 * eps_ref / p.eps_total))
    return m0, s0


def run_tram(
    train: Dataset,
    validation_pool: Dataset,
    p: TramParams,
    solver: SolverConfig,
) -> TramTrace:
    """Run the navigation loop until the validation test passes.

    The validation pool must be disjoint from the training data. The trace
    is marked exhausted (with best-so-far centers) when the pool cannot
    cover the next budget a[i], or after SATURATED_FAILS consecutive failed
    tests once both schedules have saturated at n. `p.k` and `solver.k`
    must agree.
    """
    if p.k != solver.k:
        raise ValueError(f"TramParams.k = {p.k} differs from SolverConfig.k = {solver.k}")
    if train.d != validation_pool.d:
        raise ValueError("train and validation dimensions differ")
    if p.B is None:
        radius = train.bound_radius()
        if radius <= 0:
            raise ValueError(
                "the support radius derived from the training data is 0; "
                "pass TramParams.B"
            )
        p = replace(p, B=radius)
    if p.m0 is None or p.s0 is None:
        m0, s0 = default_start_sizes(train, p, solver)
        p = replace(p, m0=p.m0 or m0, s0=p.s0 or s0)
    if p.m0 > train.n:
        raise ValueError(f"m0 = {p.m0} exceeds the training size {train.n}")

    t_start = time.perf_counter()
    rows: list[TramIteration] = []
    # a passing risk is below every earlier, failing one, so the best
    # round is also the final one when the test passes
    best: tuple[float, Centers] | None = None
    saturated_fails = 0
    i = 0
    while True:
        m_i = truncation_at(i, p.m0, p.gamma_m, train.n)
        s_i = summary_at(i, p.s0, p.gamma_s)
        a_i = validation_size(i + 1, p)

        t0 = time.perf_counter()
        summary = build_coreset(
            train.prefix(m_i),
            CoresetParams(k=p.k, size=s_i, seed=stable_seed(p.seed, "summarize", i)),
        )
        result = solve(summary, replace(solver, seed=stable_seed(p.seed, "solve", i)))
        t_solve = time.perf_counter() - t0

        pool_short = a_i > validation_pool.n
        t0 = time.perf_counter()
        val_risk = empirical_risk(
            validation_pool.prefix(min(a_i, validation_pool.n)), result.centers
        )
        t_val = time.perf_counter() - t0

        stopped = stopping_test(val_risk, p)
        rows.append(
            TramIteration(i, m_i, s_i, a_i, val_risk, stopped, t_solve, t_val)
        )
        if best is None or val_risk < best[0]:
            best = (val_risk, result.centers)
        if m_i >= train.n and s_i >= train.n:
            saturated_fails += 1
        if stopped or pool_short or saturated_fails >= SATURATED_FAILS:
            break
        i += 1

    return TramTrace(
        rows=tuple(rows),
        final_centers=best[1],
        final_validation_risk=best[0],
        exhausted=pool_short or not stopped,
        total_time=time.perf_counter() - t_start,
        params=p,
    )
