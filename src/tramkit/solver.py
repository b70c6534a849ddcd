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

from .core import (
    _BLOCK_ROWS,
    _EPS,
    _TINY,
    Centers,
    WeightedSet,
    _wrap,
    assign_nearest,
    min_sq_dists,
)
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


# Points at or above which each D^2 step screens out the points that the
# new center cannot bring closer. Below it the screen's bookkeeping costs
# more than the full pass it saves (measured on d = 10 mixtures: 10 centers
# break even near 3,000-4,000 points), so the small solve-side seedings
# (s = 50 ... 2000) keep the plain loop.
_SCREEN_MIN_POINTS = 4096


def _dsquared(ws: WeightedSet, k: int, rng: np.random.Generator, owners: bool):
    """Weighted D^2 seeding: `(chosen, d2, owner)`.

    `chosen` holds the k drawn indices into `ws.points`; `d2` each point's
    squared distance to its nearest chosen center, summed as the per-center
    oracle sums it; `owner` that center's position in `chosen`, the first
    to attain the distance (argmin order), or None when `owners` is false
    and the plain loop ran.

    With at least `_SCREEN_MIN_POINTS` points, a step for a new center c
    evaluates only the points that can get strictly closer to it. By the
    triangle inequality, x with owner a gets no closer when |c - a|^2 >=
    4 |x - a|^2. The stored d2 and the gap |c - a|^2 are both einsums of
    exactly rounded differences, so each is within a relative
    (d + 2) * (eps / 2) of exact whatever the coordinates' offset. Skipping
    only where |c - a|^2 / 4 exceeds d2 by a relative (d + 2) * eps thus
    leaves the computed |x - c|^2 >= d2: the plain loop's `np.minimum`
    would keep d2 and the owner. The screen asks four times that margin,
    which also covers rounding the bound, and takes `tiny` off the bound
    for absolute rounding in the subnormal range; an infinite d2 is never
    skipped. Points that pass take the plain loop's difference and einsum,
    so draws, distances and owners are the same bits either way.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    pts, w = ws.points, ws.weights
    n, d = pts.shape
    chosen = [mass_pick(w, rng)]
    screen = n >= _SCREEN_MIN_POINTS
    # the plain loop takes its n < _SCREEN_MIN_POINTS rows at once, the
    # screened steps as many at a time: a difference buffer the size of the
    # points would add megabytes to the peak memory and evict the cache
    rows = min(n, _SCREEN_MIN_POINTS)
    diff = np.empty(rows * d)
    mass = np.empty(n)
    owner = np.zeros(n, dtype=np.intp) if owners or screen else None
    c = pts[chosen[0]]
    if screen:
        d2 = np.empty(n)
        for lo in range(0, n, rows):
            sub = diff[: min(rows, n - lo) * d].reshape(-1, d)
            np.subtract(pts[lo : lo + rows], c, out=sub)
            np.einsum("ij,ij->i", sub, sub, out=d2[lo : lo + rows])
        np.multiply(w, d2, out=mass)
        shrink = 1.0 / (1.0 + 4.0 * (d + 2) * _EPS)
        reach = np.empty(n)
        near = np.empty(n, dtype=bool)
    else:
        full = diff.reshape(n, d)
        np.subtract(pts, c, out=full)
        d2 = np.einsum("ij,ij->i", full, full)
        dist = np.empty(n)
    for j in range(1, k):
        if not screen:
            np.multiply(w, d2, out=mass)
        if not mass.any():
            # no point carries positive D^2 mass: duplicate chosen centers
            chosen.extend(chosen[i % j] for i in range(k - j))
            break
        idx = mass_pick(mass, rng)
        chosen.append(idx)
        c = pts[idx]
        if not screen:
            np.subtract(pts, c, out=full)
            np.einsum("ij,ij->i", full, full, out=dist)
            if owners:
                np.copyto(owner, j, where=dist < d2)
            np.minimum(d2, dist, out=d2)
            continue
        # per earlier center a, the largest d2 that c cannot improve on:
        # |c - a|^2 / 4, less the rounding margin
        gap = pts[chosen[:j]] - c
        bound = np.einsum("ij,ij->i", gap, gap)
        bound *= 0.25
        bound -= _TINY
        bound *= shrink
        np.take(bound, owner, out=reach, mode="clip")
        np.less_equal(reach, d2, out=near)
        sel = np.flatnonzero(near)
        for lo in range(0, sel.size, rows):
            part = sel[lo : lo + rows]
            sub = diff[: part.size * d].reshape(part.size, d)
            # mode="clip" writes straight into out (the indices are in range)
            np.take(pts, part, axis=0, out=sub, mode="clip")
            np.subtract(sub, c, out=sub)
            dist = np.einsum("ij,ij->i", sub, sub)
            closer = dist < d2[part]
            hit = part[closer]
            dist = dist[closer]
            d2[hit] = dist
            owner[hit] = j
            mass[hit] = w[hit] * dist
    return chosen, d2, owner


def seed_dsquared(ws: WeightedSet, k: int, rng: np.random.Generator) -> Centers:
    """Weighted k-means++ seeding.

    The first center is drawn with probability proportional to weight; each
    subsequent one with probability proportional to weight times squared
    distance to the chosen centers. Once no point carries positive D^2
    mass, which happens when there are fewer than k distinct positive-weight
    points, the remaining slots duplicate already-chosen centers.

    With at least 4096 points, each step screens out, by the triangle
    inequality, the points a new center c cannot bring closer: those whose
    squared distance to their nearest chosen center a is below
    |c - a|^2 / 4 by more than a relative margin of 4 (d + 2) eps plus the
    smallest normal float. Every point that can change takes the
    arithmetic of a loop allocating fresh arrays per center, so the draws
    are the same (`tests/oracles.py`).
    """
    chosen = _dsquared(ws, k, rng, owners=False)[0]
    return _wrap(Centers, ws.points[chosen])


def _repair_empty(centers: np.ndarray, empties, pts: np.ndarray, w: np.ndarray, norms) -> None:
    # a dead center is re-placed at the positive-weight point with the
    # largest weighted squared distance to its nearest center, updating
    # distances between repairs so two dead centers never grab one point
    for j in sorted(empties):
        score = w * min_sq_dists(pts, centers, _norms=norms)
        score[w <= 0] = -1.0
        centers[j] = pts[int(score.argmax())]


# Summary size from which Lloyd re-ranks only the points whose label a
# center move can change. Below it the screen's own-center pass costs more
# than the ranking it saves. On prefixes of the fixture data (d = 10,
# k = 10, 2 vCPUs, OpenBLAS on 1 thread) three screened solves took 0.80x
# the plain loop's time at 8,192 points with rel_tol = 0, 1.04x with
# rel_tol = 1e-4 (fewer late iterations repay the early ones) and 0.92x at
# 12,000 points; so small summaries keep the plain loop.
_LLOYD_SCREEN_MIN = 8192


def _reassign(pts, norms, centers, moved, labels, d2, lb) -> None:
    """One screened assignment of `lloyd`, in place: labels, d2, lb.

    `moved` holds the centers the labels and bounds were computed for.
    `lloyd`'s docstring gives the error argument; the points that fail the
    screen are ranked again, at most `_BLOCK_ROWS` gathered rows per
    kernel call.
    """
    n, d = pts.shape
    step = centers - moved
    # the largest move, rounded up: the einsum is within a relative
    # (d + 2) eps / 2 of exact and the square root adds eps / 2
    shift = float(np.sqrt(np.einsum("ij,ij->i", step, step).max()))
    shift = shift * (1.0 + (d + 4) * _EPS) + _TINY
    keep_factor = 1.0 - 2.0 * (d + 2) * _EPS
    rows = min(n, _BLOCK_ROWS)
    diff = np.empty(rows * d)
    bound = np.empty(rows)
    keep = np.empty(n, dtype=bool)
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        m = hi - lo
        # the kernel's gather, difference and einsum: the same bits
        sub = diff[: m * d].reshape(m, d)
        np.take(centers, labels[lo:hi], axis=0, out=sub, mode="clip")
        np.subtract(pts[lo:hi], sub, out=sub)
        np.einsum("ij,ij->i", sub, sub, out=d2[lo:hi])
        # lb - shift, rounded down: the product with 1 - eps takes off
        # more than the subtraction's rounding could add
        b = lb[lo:hi]
        b -= shift
        b *= 1.0 - _EPS
        np.maximum(b, 0.0, out=b)
        t = bound[:m]
        np.square(b, out=t)
        t *= keep_factor
        t -= _TINY
        np.less(d2[lo:hi], t, out=keep[lo:hi])
    stale = np.flatnonzero(~keep)
    for lo in range(0, stale.size, _BLOCK_ROWS):
        part = stale[lo : lo + _BLOCK_ROWS]
        sub = diff[: part.size * d].reshape(part.size, d)
        # mode="clip" writes straight into out (the indices are in range)
        np.take(pts, part, axis=0, out=sub, mode="clip")
        t = bound[: part.size]
        labels[part], d2[part] = assign_nearest(sub, centers, _norms=norms[part], _lb=t)
        lb[part] = t


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

    With at least `_LLOYD_SCREEN_MIN` points, an assignment after the
    first ranks again only the points whose label can change (Hamerly, SDM
    2010). Each point x with label a keeps lb, a lower bound on its
    distance to every other center, which the kernel derives from its own
    scores (see `core._nearest`). When the centers move by at most delta,
    the triangle inequality keeps lb - delta a lower bound. delta is
    rounded up and the difference rounded down, so the bound holds however
    many iterations run. Every point's distance e_a to its own moved
    center is computed as the kernel computes it. The einsum value e_j of
    any other center is within a relative (d + 2) eps / 2 of |x - c_j|^2 >=
    lb^2. So where e_a < lb^2 (1 - 2 (d + 2) eps) - tiny, every e_j exceeds
    e_a strictly (a tie would go to the lower index) and x keeps label a
    and e_a's bits. The factor is four times the einsum's error and also
    covers the rounding of the square and the product; tiny covers the
    absolute rounding of subnormal values. Every other point is ranked by
    the kernel, which also refreshes its lb. So labels, distances and every
    later value are the plain loop's bits.
    """
    if ws.d != init.d:
        raise ValueError("dimension mismatch between points and centers")
    pts, w = ws.points, ws.weights
    k = init.k
    centers = np.array(init.centers, dtype=np.float64)
    wpt = np.empty((ws.d, ws.size))
    np.multiply(pts.T, w, out=wpt)
    norms = np.sqrt(np.einsum("ij,ij->i", pts, pts))
    screen = ws.size >= _LLOYD_SCREEN_MIN
    lb = np.empty(ws.size) if screen else None

    labels, d2 = assign_nearest(pts, centers, _norms=norms, _lb=lb)
    risk = float(w @ d2)
    history = [risk]
    iterations = 0
    for _ in range(cfg.max_iters):
        moved = centers.copy() if screen else None
        wsum = np.bincount(labels, weights=w, minlength=k)
        empties = np.flatnonzero(wsum <= 0)
        for dim, row in enumerate(wpt):
            centers[:, dim] = np.bincount(labels, weights=row, minlength=k)
        alive = wsum > 0
        np.divide(centers, wsum[:, None], out=centers, where=alive[:, None])
        if empties.size:
            _repair_empty(centers, empties, pts, w, norms)
        if screen:
            _reassign(pts, norms, centers, moved, labels, d2, lb)
        else:
            labels, d2 = assign_nearest(pts, centers, _norms=norms)
        new_risk = float(w @ d2)
        iterations += 1
        improvement = risk - new_risk
        risk = new_risk
        history.append(risk)
        if improvement <= cfg.rel_tol * max(risk, _TINY):
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
