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
        # inf stops after one iteration; NaN fails the comparison
        if not self.rel_tol >= 0:
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


# Distance evaluations, points times draws after the first, from which a
# seeding of fewer than `_BLOCK_ROWS` points takes `_dsquared`'s scored
# steps, which screen its points by one GEMV score per step; from
# `_BLOCK_ROWS` points, where the plain step's differences would span more
# than one kernel block, every seeding does. The GEMV and the float32 copy
# of the points pay off only over enough draws: on fixture-data prefixes
# (d = 10) the screen took, as a median ratio to the plain steps' time,
# 0.91x for 20 centers at 1,024 points and 0.76x at 2,500, for 10 centers
# 1.01x at 1,024, 0.96x at 1,500 and 0.92x at 2,048, and for 5 centers
# 1.08x at 2,000 and 1.01x at 4,000.
_SCORE_MIN_EVALS = 18_000

# float32 machine epsilon and smallest normal number, for the D^2 score
_EPS32 = float(np.finfo(np.float32).eps)
_TINY32 = float(np.finfo(np.float32).tiny)


def _dsquared(ws: WeightedSet, k: int, rng: np.random.Generator, owners: bool):
    """Weighted D^2 seeding, one draw sequence from `rng`:
    `(chosen, d2, owner)`.

    `chosen` holds the k indices into `ws.points` drawn; `d2` each point's
    squared distance to its nearest chosen center, summed as the
    per-center oracle sums it; `owner` that center's position in `chosen`,
    the first to attain the distance (argmin order), or None when `owners`
    is false. Once no point carries D^2 mass, the sequence duplicates its
    chosen centers, which changes neither the distances nor the owners.

    A plain step evaluates every point: the difference from the new center
    and its einsum, over the whole array. A seeding of at least
    `_BLOCK_ROWS` points, or with at least `_SCORE_MIN_EVALS` distance
    evaluations, takes scored steps instead: each evaluates only the points
    that a float32 score says the new center may bring closer, with the
    plain step's difference and einsum, so draws, distances and owners are
    the same bits either way.

    A scored step evaluates exactly only the points the new center c may
    bring strictly closer; the plain step would leave every other point's
    d2 and owner as they are. The first pass forms y = x - r for every
    point x, r the first draw, and keeps the rows y, 1 and |y|^2 (1 - 2 s)
    as one float32 (d + 2, n) array, s = 4 (d + 2) eps32. Centred on r, the
    score is as sharp far from the origin as near it. The new center's
    column holds u = c - r and |u|^2 (1 - 2 s), so one float32 GEMV with the
    coefficients (-2 u, |u|^2 (1 - 2 s) - t, 1), t = 2 (d + 2) tiny32,
    scores every point as

        v = |y - u|^2 - 2 s (|y|^2 + |u|^2) - t,

    and the step skips the points with d2 <= v. In units of
    eps32 (|y|^2 + |u|^2), rounding y and u to float32 after their float64
    differences moves 2 y.u by at most about 1; rounding the squared norms
    and the coefficient, by 1; the (d + 2)-term float32 dot product, whose
    terms sum to at most 2 (|y|^2 + |u|^2) + t, errs by d + 2; and the
    float64 einsum of x - c by far less than 1, as |x - c|^2 = |y - u|^2.
    In float32's subnormal range, or under a kernel that flushes it to
    zero, a cast or product errs by up to tiny32 in absolute terms; times
    a factor of size a, that is at most eps32 a^2 + tiny32 / 2^100. So the
    casts of y and u add 2 units, and the products and the squared norms'
    casts (d + 4) tiny32, which t covers. The units add up to less than
    d + 7, and the margin 2 s is 8 (d + 2) of them, so where d2 <= v the
    plain step's einsum is at least d2. Where the centred squared norms
    reach 1e37, and the score could overflow float32, every step is the
    plain step instead; from `_BLOCK_ROWS` points that fallback allocates
    one (n, d) difference buffer.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    pts, w = ws.points, ws.weights
    n, d = pts.shape
    chosen = [mass_pick(w, rng)]
    scored = n >= _BLOCK_ROWS or n * (k - 1) >= _SCORE_MIN_EVALS
    # the kernel's block: a difference buffer the size of the points would
    # add megabytes to the peak memory and evict the cache
    rows = _BLOCK_ROWS
    diff = np.empty((min(n, rows), d))
    d2 = np.empty(n)
    mass = np.empty(n)
    owner = np.zeros(n, dtype=np.intp) if owners else None
    r = pts[chosen[0]]
    if scored:
        keep = 1.0 - 8.0 * (d + 2) * _EPS32
        tiny = 2.0 * (d + 2) * _TINY32
        aug = np.empty((d + 2, n), dtype=np.float32)
        aug[d] = 1.0
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        sub = diff[: hi - lo]
        np.subtract(pts[lo:hi], r, out=sub)
        np.einsum("ij,ij->i", sub, sub, out=d2[lo:hi])
        scored = scored and d2[lo:hi].max() < 1e37
        if scored:
            aug[:d, lo:hi] = sub.T
            np.multiply(d2[lo:hi], keep, out=aug[d + 1, lo:hi])
    np.multiply(w, d2, out=mass)
    if scored:
        coef = np.ones(d + 2, dtype=np.float32)
        reach = np.empty(n, dtype=np.float32)
        near = np.empty(n, dtype=bool)
    else:
        # past one block only under the float32 guard
        full = diff if n <= rows else np.empty((n, d))
        dist = np.empty(n)
    for j in range(1, k):
        idx = mass_pick(mass, rng)
        if idx is None:
            chosen.extend(chosen[i % j] for i in range(k - j))
            break
        chosen.append(idx)
        c = pts[idx]
        if scored:
            # u = c - r and its squared norm are the copy's column idx
            np.multiply(aug[:d, idx], -2.0, out=coef[:d])
            coef[d] = aug[d + 1, idx] - tiny
            np.dot(coef, aug, out=reach)
            np.greater(d2, reach, out=near)
            sel = near.nonzero()[0]
            for lo in range(0, sel.size, rows):
                part = sel[lo : lo + rows]
                sub = diff[: part.size]
                # mode="clip" writes straight into out (the indices are in range)
                np.take(pts, part, axis=0, out=sub, mode="clip")
                np.subtract(sub, c, out=sub)
                got = np.einsum("ij,ij->i", sub, sub)
                closer = got < d2.take(part)
                hit = part[closer]
                got = got[closer]
                d2.put(hit, got)
                if owners:
                    owner.put(hit, j)
                mass.put(hit, w.take(hit) * got)
        else:
            np.subtract(pts, c, out=full)
            np.einsum("ij,ij->i", full, full, out=dist)
            if owners:
                np.copyto(owner, j, where=dist < d2)
            np.minimum(d2, dist, out=d2)
            np.multiply(w, d2, out=mass)
    return chosen, d2, owner


def seed_dsquared(ws: WeightedSet, k: int, rng: np.random.Generator) -> Centers:
    """Weighted k-means++ seeding.

    The first center is drawn with probability proportional to weight; each
    subsequent one with probability proportional to weight times squared
    distance to the chosen centers. Once no point carries positive D^2
    mass, which happens when there are fewer than k distinct positive-weight
    points, the remaining slots duplicate already-chosen centers.

    With at least 4096 points, or at least 18,000 distance evaluations
    (points times k - 1), each step scores every point by one float32 GEMV
    over the points centred on the first draw: its squared distance to the
    new center, less a margin of 8 (d + 2) float32 eps times the centred
    squared norms and 2 (d + 2) times float32's smallest normal number.
    Only the points whose D^2 distance exceeds the score are evaluated.
    Every point that can change takes the arithmetic of a loop allocating
    fresh arrays per center, so the draws are the same (`tests/oracles.py`).
    """
    chosen = _dsquared(ws, k, rng, owners=False)[0]
    return _wrap(Centers, ws.points[chosen])


def _repair_empty(centers: np.ndarray, empties, pts: np.ndarray, w: np.ndarray) -> None:
    # a dead center is re-placed at the positive-weight point with the
    # largest weighted squared distance to its nearest live center. A dead
    # row holds its zero centroid sum, not a center, so it counts only once
    # re-placed: then two dead centers never grab one point
    live = np.ones(len(centers), dtype=bool)
    live[empties] = False
    for j in sorted(empties):
        score = w * min_sq_dists(pts, centers[live])
        score[w <= 0] = -1.0
        centers[j] = pts[int(score.argmax())]
        live[j] = True


# Summary size from which Lloyd re-ranks only the points whose label a
# center move can change, and from which `solve` runs its restarts one by
# one. Below it the screen's own-center pass costs more than the ranking
# it saves. On prefixes of the fixture data (d = 10, k = 10, 2 vCPUs,
# OpenBLAS on 1 thread) 3-restart screened solves took 0.82x the plain
# loop's time at 8,192 points with rel_tol = 0 and 0.96x with
# rel_tol = 1e-4 (fewer late iterations repay the early ones), 0.91x and
# 1.00x at 6,000, and 0.99x and 1.09x at 4,096; so small summaries keep
# the plain loop. There the Lloyd iterations of several restarts run in
# lockstep, since a grouped kernel pass or centroid update pays its
# per-call overhead once for all of them: from the same seeds, lockstep
# Lloyd took, as a median ratio to one restart after another, 0.69-0.93x
# at 1,024 points, 0.85-0.91x at 2,000, 0.91-0.99x at 4,000 and
# 0.93-1.06x at 6,500 and 8,191 (5 restarts with rel_tol = 0 and 2 with
# 1e-4, on fixture prefixes and on coresets of its 48k prefix). From
# the switch on, one-by-one restarts get the screened Lloyd, whose
# per-point bounds serve one set of centers only.
_LLOYD_SCREEN_MIN = 8192


def _reassign(pts, norms, centers, moved, labels, d2, lb) -> tuple[int, bool]:
    """One screened assignment of `lloyd`, in place: labels, d2, lb.
    Returns the number of points that failed the screen, and whether any
    of them changed its label (the others keep theirs).

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
    changed = False
    for lo in range(0, stale.size, _BLOCK_ROWS):
        part = stale[lo : lo + _BLOCK_ROWS]
        sub = diff[: part.size * d].reshape(part.size, d)
        # mode="clip" writes straight into out (the indices are in range)
        np.take(pts, part, axis=0, out=sub, mode="clip")
        t = bound[: part.size]
        lab, d2[part] = assign_nearest(sub, centers, _norms=norms[part], _lb=t)
        changed = changed or not np.array_equal(lab, labels[part])
        labels[part] = lab
        lb[part] = t
    return stale.size, changed


def lloyd(ws: WeightedSet, init: Centers, cfg: SolverConfig) -> SolveResult:
    """Weighted Lloyd iterations from the given initial centers.

    Alternates nearest-center assignment with weighted-mean updates; stops
    when the relative risk improvement drops below cfg.rel_tol or after
    cfg.max_iters iterations. The weighted risk never increases across an
    iteration.

    Once per call it builds the weighted points as contiguous (d, n) rows,
    so each update's per-coordinate `bincount` streams one row, and the row
    norms that every assignment takes for its tie margin. The centers, risk
    history and iteration count equal, bit for bit, those of a loop that
    assigns with the per-center oracle and sums strided columns of (n, d)
    weighted points (`tests/oracles.py`).

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
    the kernel, which also refreshes its lb. The first iteration, and each
    one after an iteration in which more than half of the points failed
    the screen, ranks every point through the kernel instead, refreshing
    every lb: the screen's own-center pass and row gather would cost more
    than they save. So labels, distances and every later value are the
    plain loop's bits.

    The centers an update computes depend on the labels alone. So when an
    iteration that would continue leaves every label as it was, the next
    would repeat its centers, labels and risk and then stop: it is recorded
    (its risk appended, the iteration counted) without being run.
    """
    return _lloyd(ws, np.array(init.centers, dtype=np.float64), 1, cfg)[0]


def _lloyd(ws: WeightedSet, centers: np.ndarray, groups: int, cfg: SolverConfig) -> list:
    """`lloyd` from `groups` stacked sets of initial centers, in lockstep:
    one result per set, in order. `centers`, (groups k, d), is the
    function's own to update.

    Each round takes the sets still running through one kernel pass and
    one update. The weighted points are laid out once per set, so a set's
    centroid sums are one `bincount` per coordinate over labels offset by
    the set's g k: a bin sums its own set's points in point order, the
    same bits as a set alone. Empty clusters are repaired per set, the risk
    is a dot product per set, and a set leaves the round in which it stops.
    One set is the plain `lloyd`; the screen runs for one set only.
    """
    pts, w = ws.points, ws.weights
    n, d = pts.shape
    k = centers.shape[0] // groups
    wpt = np.empty((d, groups, n))
    np.multiply(pts.T[:, None], w, out=wpt)
    wpt = wpt.reshape(d, groups * n)
    wts = np.concatenate([w] * groups)
    norms = np.sqrt(np.einsum("ij,ij->i", pts, pts))
    screen = groups == 1 and n >= _LLOYD_SCREEN_MIN
    lb = np.empty(n) if screen else None

    labels, d2 = assign_nearest(pts, centers, _norms=norms, _groups=groups)
    histories = [[float(w @ row)] for row in d2]
    running = list(range(groups))
    results = [None] * groups
    # the first iteration moves the seeded centers far: rank every point
    stale = n
    for it in range(1, cfg.max_iters + 1):
        g = len(running)
        rank_all = not screen or 2 * stale > n
        moved = None if rank_all else centers.copy()
        flat = labels.reshape(g * n)
        wsum = np.bincount(flat, weights=wts, minlength=g * k)
        empties = (wsum <= 0).nonzero()[0]
        for dim, row in enumerate(wpt):
            centers[:, dim] = np.bincount(flat, weights=row, minlength=g * k)
        alive = wsum > 0
        np.divide(centers, wsum[:, None], out=centers, where=alive[:, None])
        if empties.size:
            grp, empties = np.divmod(empties, k)
            for a in np.unique(grp):
                _repair_empty(centers[a * k : a * k + k], empties[grp == a], pts, w)
        if rank_all:
            ranked, d2 = assign_nearest(pts, centers, _norms=norms, _lb=lb, _groups=g)
            frozen = (ranked == labels).all(axis=1)
            labels = ranked
            stale = 0
        else:
            stale, changed = _reassign(pts, norms, centers, moved, labels[0], d2[0], lb)
            frozen = [not changed]
        stay = []
        for a, r in enumerate(running):
            history = histories[r]
            risk = float(w @ d2[a])
            improvement = history[-1] - risk
            history.append(risk)
            if improvement > cfg.rel_tol * max(risk, _TINY) and it < cfg.max_iters:
                if not frozen[a]:
                    stay.append(a)
                    continue
                # no label changed: the next iteration would repeat these
                # centers, labels and risk, so it is recorded, not run
                history.append(risk)
            # the validating constructor, not _wrap: the means are computed
            # values, and its finiteness check is the only guard if one
            # overflows
            results[r] = SolveResult(
                centers=Centers(centers[a * k : a * k + k]),
                weighted_risk=risk,
                iterations=len(history) - 1,
                history=tuple(history),
            )
        if not stay:
            break
        if len(stay) < g:
            keep = np.array(stay)
            centers = centers.reshape(g, k, d)[keep].reshape(-1, d)
            # the labels index the stacked centers, which move up
            labels = labels[keep] - k * (keep - np.arange(keep.size))[:, None]
            running = [running[a] for a in stay]
            wts, wpt = wts[: keep.size * n], wpt[:, : keep.size * n]
    return results


def solve(ws: WeightedSet, cfg: SolverConfig) -> SolveResult:
    """Best of cfg.restarts independent (seed_dsquared -> lloyd) pipelines.

    Restart r draws its seeding from the substream (cfg.seed, "restart", r);
    ties in risk keep the earliest restart. Every restart is seeded by its
    own `seed_dsquared` call. Below `_LLOYD_SCREEN_MIN` summary points
    several restarts then run their Lloyd iterations in lockstep, sharing
    each kernel pass and centroid update; from it they run one after
    another, each with the screened Lloyd. Either way each restart computes
    the same bits, so the result does not depend on the switch.
    """
    rngs = (derive_rng(cfg.seed, "restart", r) for r in range(cfg.restarts))
    seeds = [seed_dsquared(ws, cfg.k, rng) for rng in rngs]
    if cfg.restarts > 1 and ws.size < _LLOYD_SCREEN_MIN:
        results = _lloyd(ws, np.concatenate([c.centers for c in seeds]), cfg.restarts, cfg)
    else:
        # the public step, whose calls and iterations stay countable
        results = [lloyd(ws, c, cfg) for c in seeds]
    # min keeps the first of equal minima: the earliest restart
    return min(results, key=lambda res: res.weighted_risk)
