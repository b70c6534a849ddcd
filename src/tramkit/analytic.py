"""Numerical simulator of the analytic tradeoff bounds.

Solves, for each data size n (or each risk budget eps), the constrained
programs

  subsampler:  min m^beta        s.t.  eps_model + eps_est(m) <= eps, m <= n
  coreset:     min s^beta + alpha_init*m + alpha_samp*s
               s.t.  (eps_model + eps_est(m)) * (1 + 2*eta(s)) <= eps,
                     m <= n

with eps_model = B^2 d / k^(2/d), eps_est(m) = sigma_bar B^2 sqrt(kd)/sqrt(m)
and eta(s) = A sqrt(k)/sqrt(s). Solver time is normalized so that
t_solver(x) = x^beta. The coreset program backs off to the subsampler
whenever no configuration with genuine summarization room (s < m) beats
it, which keeps both optimal-time curves non-increasing in n and in eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "AnalyticParams",
    "ProcOptimum",
    "eps_model",
    "eps_est",
    "eta_simple",
    "subsampler_optimum",
    "coreset_optimum",
    "CurvePoint",
    "analytic_curves",
]

GRID_POINTS = 400  # per axis, log-spaced, one refinement zoom
_UNBOUNDED_N = 10**15


@dataclass(frozen=True)
class AnalyticParams:
    d: int = 20
    k: int = 20
    sigma_bar: float = 192.0
    alpha_init: float = 100.0
    alpha_samp: float = 100.0
    beta: float = 3.0
    A: float = 5.0
    B: float = 1.0
    eps_total: float = 300.0
    use_sigma: bool = True  # False reproduces the literal printed program

    def __post_init__(self):
        if self.d < 1 or self.k < 1:
            raise ValueError("d and k must be positive integers")
        # each coefficient on its own, and each range written so that NaN fails it
        coeffs = (self.sigma_bar, self.alpha_init, self.alpha_samp, self.A, self.B)
        if not all(0.0 < c < math.inf for c in coeffs):
            raise ValueError("all coefficients must be positive and finite")
        if not 1.0 < self.beta < math.inf:
            raise ValueError("beta must exceed 1 and be finite")
        if not 0.0 < self.eps_total < math.inf:
            raise ValueError("eps_total must be positive and finite")


def eps_model(p: AnalyticParams) -> float:
    """Modeling error bound B^2 * d / k^(2/d)."""
    return p.B * p.B * p.d / p.k ** (2.0 / p.d)


def _est_coeff(p: AnalyticParams) -> float:
    coeff = p.B * p.B * math.sqrt(p.k * p.d)
    return coeff * p.sigma_bar if p.use_sigma else coeff


def eps_est(m, p: AnalyticParams):
    """Estimation error bound sigma_bar * B^2 * sqrt(kd) / sqrt(m)."""
    return _est_coeff(p) / np.sqrt(m)


def eta_simple(s, p: AnalyticParams):
    """Approximation factor in the simplified form A * sqrt(k) / sqrt(s)."""
    return p.A * math.sqrt(p.k) / np.sqrt(s)


@dataclass(frozen=True)
class ProcOptimum:
    """Outcome of one constrained program at a given data size.

    `structurally_infeasible` marks targets below the modeling error,
    unreachable at any data size. `backed_off` (coreset only) marks optima
    inherited from the subsampler for lack of cost-effective summarization
    room.
    """

    feasible: bool
    t: float | None = None
    m: int | None = None
    s: int | None = None
    structurally_infeasible: bool = False
    backed_off: bool = False


def _min_truncation(p: AnalyticParams, risk_budget):
    # smallest real m with eps_est(m) <= risk_budget - eps_model, elementwise
    return (_est_coeff(p) / (risk_budget - eps_model(p))) ** 2


def subsampler_optimum(n: int, p: AnalyticParams) -> ProcOptimum:
    """Closed form: m* = ceil((sigma_bar B^2 sqrt(kd)/(eps - eps_model))^2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if p.eps_total <= eps_model(p):
        return ProcOptimum(feasible=False, structurally_infeasible=True)
    m_star = max(1, math.ceil(_min_truncation(p, p.eps_total)))
    if m_star > n:
        return ProcOptimum(feasible=False)
    return ProcOptimum(feasible=True, t=float(m_star) ** p.beta, m=m_star)


def _coreset_pure_eval(s: np.ndarray, n: int, p: AnalyticParams):
    """Best (t, m) for each integer coreset size, NaN where infeasible.

    For fixed s the cheapest feasible truncation is the smallest m with
    (eps_model + eps_est(m)) * (1 + 2*eta(s)) <= eps_total; only sizes with
    genuine summarization room (s < m) count as coreset configurations.
    """
    budget = p.eps_total / (1.0 + 2.0 * eta_simple(s, p))
    ok = budget > eps_model(p)
    m = np.full(s.shape, np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        m[ok] = np.ceil(_min_truncation(p, budget[ok]))
    ok &= (m <= n) & (s < m)
    t = np.where(
        ok, s.astype(float) ** p.beta + p.alpha_init * m + p.alpha_samp * s, np.nan
    )
    return t, m


def _log_grid(lo: float, hi: float) -> np.ndarray:
    # callers pass 1 <= lo < hi: the master grid, or a zoom inside it
    return np.unique(np.ceil(np.geomspace(lo, hi, GRID_POINTS)).astype(np.int64))


# the s-axis candidates are a FIXED master grid (never a function of n):
# infeasible sizes are masked instead. With per-size values independent of
# n and the feasible mask only loosening as n or eps grows, the returned
# optimum is non-increasing in both, exactly.
_MASTER_S_GRID = _log_grid(1, float(_UNBOUNDED_N))


def coreset_optimum(n: int, p: AnalyticParams) -> ProcOptimum:
    """Grid search over s (exact inner minimization over m) plus one zoom.

    Returns the better of the best pure-coreset configuration and the
    subsampler optimum; the latter case is flagged backed_off.
    """
    subs = subsampler_optimum(n, p)
    if subs.structurally_infeasible:
        return subs

    best = None  # (t, s, m)
    grid = _MASTER_S_GRID
    t, m = _coreset_pure_eval(grid, n, p)
    if np.any(np.isfinite(t)):
        j = int(np.nanargmin(t))
        lo = grid[j - 1] if j > 0 else grid[j]
        hi = grid[j + 1] if j + 1 < grid.size else grid[j]
        zoom = _log_grid(lo, hi)
        tz, mz = _coreset_pure_eval(zoom, n, p)
        if np.any(np.isfinite(tz)) and np.nanmin(tz) < t[j]:
            jz = int(np.nanargmin(tz))
            best = (float(tz[jz]), int(zoom[jz]), int(mz[jz]))
        else:
            best = (float(t[j]), int(grid[j]), int(m[j]))

    if subs.feasible and (best is None or subs.t <= best[0]):
        return ProcOptimum(feasible=True, t=subs.t, m=subs.m, backed_off=True)
    if best is None:
        return ProcOptimum(feasible=False)
    return ProcOptimum(feasible=True, t=best[0], m=best[2], s=best[1])


@dataclass(frozen=True)
class CurvePoint:
    x: float
    subsampler: ProcOptimum
    coreset: ProcOptimum
    regime: str  # data-bounded | intermediate | data-laden


def _regime(core: ProcOptimum, q: AnalyticParams, unbounded: dict) -> str:
    if not core.feasible:
        return "data-bounded"
    if q not in unbounded:  # once per parameter set, for feasible points only
        unbounded[q] = coreset_optimum(_UNBOUNDED_N, q)
    assert unbounded[q].feasible and unbounded[q].t is not None
    if core.t <= unbounded[q].t * (1.0 + 1e-9):
        return "data-laden"
    return "intermediate"


def analytic_curves(
    p: AnalyticParams,
    mode: str,
    xs,
    fixed_n: int = 2000,
) -> list[CurvePoint]:
    """Evaluate both optima across a range of n (data-time mode) or of
    eps_total (risk-time mode, at data size fixed_n)."""
    if mode not in ("data_time", "risk_time"):
        raise ValueError("mode must be 'data_time' or 'risk_time'")
    xs = list(xs)
    if not xs:
        raise ValueError("range must be non-empty")
    points, unbounded = [], {}
    for x in xs:
        if mode == "data_time":
            q, n = p, int(x)
        else:
            q, n = replace(p, eps_total=float(x)), fixed_n
        core = coreset_optimum(n, q)
        points.append(
            CurvePoint(
                x=float(x),
                subsampler=subsampler_optimum(n, q),
                coreset=core,
                regime=_regime(core, q, unbounded),
            )
        )
    return points
