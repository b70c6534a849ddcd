"""Weighted k-means: D^2-weighted seeding plus weighted Lloyd iterations.

Used both as the generic solver run on summaries and as the rough
initializer inside the coreset construction. Everything is deterministic
given (input, config, seed); restarts draw independent substreams keyed by
(seed, restart index), so the best-of-restarts result does not depend on
execution order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import Centers, WeightedSet, assign_nearest, min_sq_dists, weighted_risk
from .rng import derive_rng, mass_pick

__all__ = ["SolverConfig", "SolveResult", "seed_dsquared", "lloyd", "solve"]


@dataclass(frozen=True)
class SolverConfig:
    k: int
    max_iters: int = 100
    rel_tol: float = 1e-4
    restarts: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.rel_tol < 0:
            raise ValueError("rel_tol must be >= 0")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass(frozen=True)
class SolveResult:
    centers: Centers
    weighted_risk: float
    iterations: int
    elapsed: float
    # weighted risk after init and after each Lloyd iteration; used by the
    # monotonicity checks
    history: tuple = ()


def seed_dsquared(ws: WeightedSet, k: int, rng: np.random.Generator) -> Centers:
    """Weighted k-means++ seeding.

    The first center is drawn with probability proportional to weight; each
    subsequent one with probability proportional to weight times squared
    distance to the chosen centers. If fewer than k points carry positive
    mass, the remaining slots duplicate already-chosen centers.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    total = float(ws.weights.sum())
    if total <= 0:
        raise ValueError("all weights are zero")
    pts = ws.points
    chosen = [mass_pick(ws.weights, rng)]
    d2 = np.einsum("ij,ij->i", pts - pts[chosen[0]], pts - pts[chosen[0]])
    while len(chosen) < k:
        mass = ws.weights * d2
        mtot = float(mass.sum())
        if mtot <= 0:
            # no point carries positive D^2 mass: duplicate chosen centers
            need = k - len(chosen)
            chosen.extend(chosen[i % len(chosen)] for i in range(need))
            break
        idx = mass_pick(mass, rng)
        chosen.append(idx)
        diff = pts - pts[idx]
        np.minimum(d2, np.einsum("ij,ij->i", diff, diff), out=d2)
    return Centers(pts[chosen])


def _repair_empty(centers: np.ndarray, empties, pts: np.ndarray, w: np.ndarray) -> None:
    # a dead center is re-placed at the positive-weight point with the
    # largest weighted squared distance to its nearest center, updating
    # distances between repairs so two dead centers never grab one point
    for j in sorted(empties):
        score = w * min_sq_dists(pts, centers)
        score[w <= 0] = -1.0
        centers[j] = pts[int(score.argmax())]


def lloyd(ws: WeightedSet, init: Centers, cfg: SolverConfig) -> SolveResult:
    """Weighted Lloyd iterations from the given initial centers.

    Alternates nearest-center assignment with weighted-mean updates; stops
    when the relative risk improvement drops below cfg.rel_tol or after
    cfg.max_iters iterations. The weighted risk never increases across an
    iteration.
    """
    if ws.d != init.d:
        raise ValueError("dimension mismatch between points and centers")
    t0 = time.perf_counter()
    pts, w = ws.points, ws.weights
    k = init.k
    centers = np.array(init.centers, dtype=np.float64)
    wp = w[:, None] * pts

    labels, d2 = assign_nearest(pts, centers)
    risk = float(w @ d2)
    history = [risk]
    iterations = 0
    for _ in range(cfg.max_iters):
        wsum = np.bincount(labels, weights=w, minlength=k)
        empties = np.flatnonzero(wsum <= 0)
        for dim in range(pts.shape[1]):
            centers[:, dim] = np.bincount(labels, weights=wp[:, dim], minlength=k)
        alive = wsum > 0
        centers[alive] /= wsum[alive, None]
        if empties.size:
            _repair_empty(centers, empties, pts, w)
        labels, d2 = assign_nearest(pts, centers)
        new_risk = float(w @ d2)
        iterations += 1
        improvement = risk - new_risk
        risk = new_risk
        history.append(risk)
        if improvement <= cfg.rel_tol * max(risk, np.finfo(float).tiny):
            break
    return SolveResult(
        centers=Centers(centers),
        weighted_risk=risk,
        iterations=iterations,
        elapsed=time.perf_counter() - t0,
        history=tuple(history),
    )


def solve(ws: WeightedSet, cfg: SolverConfig, rng=None) -> SolveResult:
    """Best of cfg.restarts independent (seed_dsquared -> lloyd) pipelines.

    `rng` may be None (use cfg.seed), an integer seed, or a Generator (one
    integer is drawn from it as the base seed). Restart r always uses the
    substream (base, "restart", r).
    """
    if rng is None:
        base = cfg.seed
    elif isinstance(rng, np.random.Generator):
        base = int(rng.integers(1 << 63))
    else:
        base = int(rng)
    t0 = time.perf_counter()
    best: SolveResult | None = None
    for r in range(cfg.restarts):
        g = derive_rng(base, "restart", r)
        init = seed_dsquared(ws, cfg.k, g)
        res = lloyd(ws, init, cfg)
        if best is None or res.weighted_risk < best.weighted_risk:
            best = res
    assert best is not None
    return SolveResult(
        centers=best.centers,
        weighted_risk=best.weighted_risk,
        iterations=best.iterations,
        elapsed=time.perf_counter() - t0,
        history=best.history,
    )
