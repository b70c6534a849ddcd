"""Weighted k-means: D^2-weighted seeding plus weighted Lloyd iterations.

Used both as the generic solver run on summaries and as the rough
initializer inside the coreset construction. Everything is deterministic
given (input, config); `SolverConfig.seed` is the only seed, and restarts
draw independent substreams keyed by (seed, restart index), so the
best-of-restarts result does not depend on execution order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Centers, WeightedSet, _wrap, assign_nearest, min_sq_dists
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
    # weighted risk after init and after each Lloyd iteration; used by the
    # monotonicity checks
    history: tuple = ()


def seed_dsquared(ws: WeightedSet, k: int, rng: np.random.Generator) -> Centers:
    """Weighted k-means++ seeding.

    The first center is drawn with probability proportional to weight; each
    subsequent one with probability proportional to weight times squared
    distance to the chosen centers. Once no point carries positive D^2
    mass, which happens when there are fewer than k distinct positive-weight
    points, the remaining slots duplicate already-chosen centers.

    One difference, one distance and one mass buffer, allocated per call,
    serve every center. The arithmetic is that of a loop allocating fresh
    arrays per center, so it draws the same indices (`tests/oracles.py`).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    pts, w = ws.points, ws.weights
    chosen = [mass_pick(w, rng)]
    diff = np.empty(pts.shape)
    dist = np.empty(ws.size)
    mass = np.empty(ws.size)
    np.subtract(pts, pts[chosen[0]], out=diff)
    d2 = np.einsum("ij,ij->i", diff, diff)
    while len(chosen) < k:
        np.multiply(w, d2, out=mass)
        if not mass.any():
            # no point carries positive D^2 mass: duplicate chosen centers
            need = k - len(chosen)
            chosen.extend(chosen[i % len(chosen)] for i in range(need))
            break
        idx = mass_pick(mass, rng)
        chosen.append(idx)
        np.subtract(pts, pts[idx], out=diff)
        np.einsum("ij,ij->i", diff, diff, out=dist)
        np.minimum(d2, dist, out=d2)
    return _wrap(Centers, pts[chosen])


def _repair_empty(centers: np.ndarray, empties, pts: np.ndarray, w: np.ndarray, norms) -> None:
    # a dead center is re-placed at the positive-weight point with the
    # largest weighted squared distance to its nearest center, updating
    # distances between repairs so two dead centers never grab one point
    for j in sorted(empties):
        score = w * min_sq_dists(pts, centers, _norms=norms)
        score[w <= 0] = -1.0
        centers[j] = pts[int(score.argmax())]


def lloyd(ws: WeightedSet, init: Centers, cfg: SolverConfig) -> SolveResult:
    """Weighted Lloyd iterations from the given initial centers.

    Alternates nearest-center assignment with weighted-mean updates; stops
    when the relative risk improvement drops below cfg.rel_tol or after
    cfg.max_iters iterations. The weighted risk never increases across an
    iteration.

    Once per call it builds the weighted points as contiguous (d, n) rows,
    so each update's per-coordinate `bincount` streams one row, and the row
    norms that every assignment and empty-cluster repair takes for its tie
    margin. The centers, risk history and iteration count equal, bit for
    bit, those of a loop that assigns with the per-center oracle and sums
    strided columns of (n, d) weighted points (`tests/oracles.py`).
    """
    if ws.d != init.d:
        raise ValueError("dimension mismatch between points and centers")
    pts, w = ws.points, ws.weights
    k = init.k
    centers = np.array(init.centers, dtype=np.float64)
    wpt = np.empty((ws.d, ws.size))
    np.multiply(pts.T, w, out=wpt)
    norms = np.sqrt(np.einsum("ij,ij->i", pts, pts))

    labels, d2 = assign_nearest(pts, centers, _norms=norms)
    risk = float(w @ d2)
    history = [risk]
    iterations = 0
    for _ in range(cfg.max_iters):
        wsum = np.bincount(labels, weights=w, minlength=k)
        empties = np.flatnonzero(wsum <= 0)
        for dim, row in enumerate(wpt):
            centers[:, dim] = np.bincount(labels, weights=row, minlength=k)
        alive = wsum > 0
        centers[alive] /= wsum[alive, None]
        if empties.size:
            _repair_empty(centers, empties, pts, w, norms)
        labels, d2 = assign_nearest(pts, centers, _norms=norms)
        new_risk = float(w @ d2)
        iterations += 1
        improvement = risk - new_risk
        risk = new_risk
        history.append(risk)
        if improvement <= cfg.rel_tol * max(risk, np.finfo(float).tiny):
            break
    # the validating constructor, not _wrap: the means are computed values,
    # and its finiteness check is the only guard if one overflows
    return SolveResult(
        centers=Centers(centers),
        weighted_risk=risk,
        iterations=iterations,
        history=tuple(history),
    )


def solve(ws: WeightedSet, cfg: SolverConfig) -> SolveResult:
    """Best of cfg.restarts independent (seed_dsquared -> lloyd) pipelines.

    Restart r draws its seeding from the substream (cfg.seed, "restart", r);
    ties in risk keep the earliest restart.
    """
    best: SolveResult | None = None
    for r in range(cfg.restarts):
        init = seed_dsquared(ws, cfg.k, derive_rng(cfg.seed, "restart", r))
        res = lloyd(ws, init, cfg)
        if best is None or res.weighted_risk < best.weighted_risk:
            best = res
    assert best is not None
    return best
