"""Foundational geometry and risk evaluation.

The three value types (`Dataset`, `Centers`, `WeightedSet`) never change
after construction and are safe to share across threads: their public
constructors validate a private, read-only, C-ordered copy of what a caller
passes, and `_wrap` takes arrays the library built from validated values
without a copy or a scan. An array the library has just read, and alone
holds, is checked in place by the constructors' rule, with no copy, and
then wrapped. The risk operations are pure functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "Dataset",
    "Centers",
    "WeightedSet",
    "empirical_risk",
    "weighted_risk",
    "min_sq_dists",
    "assign_nearest",
    "uniform_weighted",
]


def _wrap(cls, *arrays: np.ndarray):
    """`cls` over arrays the library built from validated values, one per
    field: no copy and no scan, the arrays are only made read-only."""
    obj = object.__new__(cls)
    for f, arr in zip(fields(cls), arrays):
        arr.setflags(write=False)
        object.__setattr__(obj, f.name, arr)
    return obj


def _as_points(points, name: str, copy: bool = True) -> np.ndarray:
    # C order whatever the caller's layout: einsum's summation order, and
    # so the last bit of a squared distance, follows the layout; copy=False
    # converts only where it must, for arrays no caller holds
    arr = (np.array if copy else np.asarray)(points, dtype=np.float64, order="C")
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name} must be a non-empty (n, d) array")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite coordinates")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Dataset:
    """A dense collection of n points in R^d.

    It stores no support radius: `bound_radius()` is the max point norm,
    and a caller that knows a radius passes it to TRAM as `TramParams.B`.
    """

    points: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", _as_points(self.points, "points"))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def bound_radius(self) -> float:
        """Support radius B: the max point norm, so every point lies in the
        ball of radius B at the origin.

        The squared norms are taken `_BLOCK_ROWS` rows at a time, each row
        summed as `(points**2).sum(axis=1)` sums it, so the scan holds one
        block of squares and B is the same float.
        """
        top = 0.0
        for lo in range(0, self.n, _BLOCK_ROWS):
            block = self.points[lo : lo + _BLOCK_ROWS]
            top = max(top, float((block * block).sum(axis=1).max()))
        return float(np.sqrt(top))

    def prefix(self, m: int) -> "Dataset":
        """Truncation to the first m points (shares memory)."""
        if not 1 <= m <= self.n:
            raise ValueError(f"prefix size {m} outside [1, {self.n}]")
        return _wrap(Dataset, self.points[:m])

    def subset(self, idx) -> "Dataset":
        """The points at the given indices, in that order (a copy)."""
        idx = np.asarray(idx)
        if idx.dtype == bool:
            raise ValueError("subset takes indices, not a boolean mask")
        # take(axis=0) gathers whole rows about twice as fast as fancy indexing
        pts = np.take(self.points, idx, axis=0)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("subset needs a non-empty 1-D index array")
        return _wrap(Dataset, pts)


@dataclass(frozen=True)
class Centers:
    """A set of k candidate centers in R^d."""

    centers: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "centers", _as_points(self.centers, "centers"))

    @property
    def k(self) -> int:
        return self.centers.shape[0]

    @property
    def d(self) -> int:
        return self.centers.shape[1]


@dataclass(frozen=True)
class WeightedSet:
    """Points with nonnegative weights; represents coresets and subsamples."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", _as_points(self.points, "points"))
        w = np.array(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.shape[0] != self.points.shape[0]:
            raise ValueError("weights must be 1-D and match the point count")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights contain non-finite values")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if not np.any(w > 0):
            raise ValueError("at least one weight must be positive")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


def uniform_weighted(data: Dataset) -> WeightedSet:
    """The dataset as a weighted set with weight 1/n per point."""
    return _wrap(WeightedSet, data.points, np.full(data.n, 1.0 / data.n))


# Points per block of the nearest-center kernel: a block's (k, rows) score
# matrix and (rows, d) differences stay small while each GEMM call is large
# enough to amortize its overhead.
_BLOCK_ROWS = 4096

# Near-tie margin of the kernel in units of (d + 2) * eps * (|x| + max|c|)^2;
# twice what the error analysis in `_nearest` needs.
_TIE_SLACK = 4.0

# float64 machine epsilon and smallest normal number, looked up once: each
# np.finfo call costs microseconds, and hot loops take them per block
_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)

# Added to the near-best centers' scores to leave them out of the second
# lowest, and the cap on a squared bound: far below overflow, far above any
# score of a point the fast path ranks.
_BIG = 1e300


def _nearest(points: np.ndarray, centers: np.ndarray, norms=None, lb=None, groups=1):
    """Labels and squared distances of each point's nearest center, per
    group of centers: (groups, n) arrays.

    `centers` stacks `groups` sets of k centers; each point is ranked
    within every set, and its label is the row of `centers` it picked, so
    group g's labels run from g k to g k + k - 1. One group is the plain
    nearest-center assignment.

    Per block of rows, one GEMM scores every center by |c|^2 - 2 x.c. That
    differs from |x - c|^2 by |x|^2, the same for all centers of a point,
    so the lowest score marks the nearest center. The scores and the einsum
    of explicit differences are each within (d + 2) * (eps / 2) *
    (|x| + max|c|)^2 of exact, with max|c| taken over the group. So when
    every other score of the group exceeds the best by more than
    2 * (d + 2) * eps * (|x| + max|c|)^2, the einsum values have the same
    unique minimizer. Every other point (near ties, duplicate centers,
    large coordinate offsets, overflow) is ranked again from explicit
    differences to each of the group's centers, ties going to the lowest
    index.

    The returned distance is always the explicit |x - c_label|^2, summed by
    the same row-wise einsum as a per-center loop of explicit differences.
    So each group's result equals that loop bit for bit
    (`tests/oracles.py`), whatever the other groups and the block size, and
    a point that coincides with its center gets exactly 0.

    `norms`, the row norms |x|, may come from a caller that assigns the
    same points repeatedly (Lloyd); they only set the tie margin. The block
    scratch (the (groups k, rows) scores, which the near-best mask
    overwrites, the margin rows, the (groups, 2, rows) tally, the
    (groups rows, d) gathered centers and their distances) is allocated
    once per call and never shared, so concurrent calls from threads are
    safe. A block has `_BLOCK_ROWS // groups` rows, so the scratch does
    not grow with the number of groups.

    `lb`, if given, is an (n,) array the kernel fills with a lower bound on
    each point's distance to every center but its own, for one group of
    centers: the square root of its second-lowest score plus |x|^2, less
    the tie margin, clamped to [0, _BIG]. The margin, 4 (d + 2) eps
    (|x| + max|c|)^2 plus `tiny`, exceeds the score's error plus the
    rounding of |x|^2, of the two sums and of the square root, at most
    (d + 6) eps (|x| + max|c|)^2, so the bound holds. Points ranked on the
    exact path get 0. The mask then takes a buffer of its own, since the
    scores are still needed.
    """
    # np.atleast_2d only where needed: its Python wrapper costs a few
    # percent of a small assignment
    points = np.asarray(points, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    if points.ndim != 2 or centers.ndim != 2:
        points, centers = np.atleast_2d(points, centers)
    if centers.shape[0] == 0:
        raise ValueError("centers must be a non-empty (k, d) array")
    if points.shape[1] != centers.shape[1]:
        raise ValueError(f"dimension mismatch: {points.shape[1]} != {centers.shape[1]}")
    if lb is not None and groups != 1:
        raise ValueError("lower bounds are kept for one group of centers only")
    n, d = points.shape
    k = centers.shape[0] // groups
    if norms is None:
        norms = np.sqrt(np.einsum("ij,ij->i", points, points))
    neg2c = -2.0 * centers
    cc = np.einsum("ij,ij->i", centers, centers).reshape(groups, k, 1)
    cmax = np.sqrt(np.maximum.reduce(cc, axis=1))
    slack = _TIE_SLACK * (d + 2) * _EPS
    # one (2, k) GEMM per group over the near-best mask counts, per point,
    # the group's centers that score near its best and sums their rows
    tally = np.empty((groups, 2, k))
    tally[:, 0] = 1.0
    tally[:, 1] = np.arange(groups * k).reshape(groups, k)
    labels = np.empty((groups, n), dtype=np.intp)
    d2 = np.empty((groups, n))
    # per-call scratch, since calls may run concurrently; flat, so every
    # block (the short last one too) takes the C-contiguous views that
    # np.dot's out= requires
    step = max(1, _BLOCK_ROWS // groups)
    rows = min(n, step)
    score_buf = np.empty(groups * k * rows)
    tally_buf = np.empty(groups * 2 * rows)
    tol_buf = np.empty(groups * rows)
    diff_buf = np.empty(groups * rows * d)
    mask_buf = score_buf if lb is None else np.empty(k * rows)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        m = hi - lo
        xb = points[lo:hi]
        # (groups k, rows) scores, so each reduction over the centers is a
        # few vector operations across the block, not one short one per point
        scores = score_buf[: groups * k * m].reshape(groups, k, m)
        np.dot(neg2c, xb.T, out=scores.reshape(groups * k, m))
        scores += cc
        # tiny covers absolute rounding in the subnormal range
        tol = tol_buf[: groups * m].reshape(groups, m)
        np.add(norms[lo:hi], cmax, out=tol)
        np.square(tol, out=tol)
        tol *= slack
        tol += _TINY
        if lb is not None:
            bound = lb[lo:hi]
            np.square(norms[lo:hi], out=bound)
            bound -= tol[0]
        # ufunc and ndarray methods, not the np.* functions: their Python
        # wrappers cost as much as the arithmetic of a small block
        tol += np.minimum.reduce(scores, axis=1)
        # the near-best mask, in place of the scores unless `lb` needs
        # them: 1.0 where a center scores within the margin of the best
        mask = mask_buf[: groups * k * m].reshape(groups, k, m)
        np.less_equal(scores, tol[:, None], out=mask)
        count_sum = tally_buf[: groups * 2 * m].reshape(groups, 2, m)
        np.matmul(tally, mask, out=count_sum)
        if lb is not None:
            # where one center is near the best, the lowest of the other
            # scores; elsewhere a value the exact path below replaces
            mask *= _BIG
            scores += mask
            bound += np.minimum.reduce(scores[0], axis=0)
            np.clip(bound, 0.0, _BIG, out=bound)
            np.sqrt(bound, out=bound)
        # the row sum is the label wherever exactly one center is near the
        # best; NaN scores (overflow) match no center and take the exact
        # path too
        lab = labels[:, lo:hi]
        np.copyto(lab, count_sum[:, 1], casting="unsafe")
        close = (count_sum[:, 0] != 1).ravel().nonzero()[0]
        if close.size:
            grp, close = np.divmod(close, m)
            for g in np.unique(grp):
                rank = close[grp == g]
                xc = xb[rank]
                exact = np.empty((rank.size, k))
                for j, c in enumerate(centers[g * k : g * k + k]):
                    diff = xc - c
                    exact[:, j] = np.einsum("ij,ij->i", diff, diff)
                lab[g, rank] = exact.argmin(axis=1) + g * k
            if lb is not None:
                bound[close] = 0.0
        diff = diff_buf[: groups * m * d].reshape(groups, m, d)
        # mode="clip" writes straight into out (the labels are in range)
        centers.take(lab, axis=0, out=diff, mode="clip")
        np.subtract(xb, diff, out=diff)
        diff = diff.reshape(groups * m, d)
        # the block's distances are one run of d2 unless several groups
        # share more than one block
        dst = d2[:, lo:hi]
        if dst.flags.c_contiguous:
            np.einsum("ij,ij->i", diff, diff, out=dst.reshape(groups * m))
        else:
            dst[...] = np.einsum("ij,ij->i", diff, diff).reshape(groups, m)
    return labels, d2


def min_sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Per-point squared distance to the nearest of the given centers.

    The distance is computed from explicit differences to the nearest
    center, which a GEMM ranking with an exact fallback for near ties
    selects (see `_nearest`); coinciding points give exactly 0. A 1-D
    `points` array is one point, and a 1-D `centers` array one center,
    unlike `Dataset` and `Centers`, which read a 1-D array as n points in
    R^1.
    """
    return _nearest(points, centers)[1][0]


def assign_nearest(points: np.ndarray, centers: np.ndarray, *, _norms=None, _lb=None, _groups=None):
    """Nearest-center labels and squared distances.

    Ties break toward the lowest center index (argmin convention); the
    distances are the same values `min_sq_dists` returns. As there, a 1-D
    `points` array is one point and a 1-D `centers` array one center, not
    n points in R^1 as `Dataset` and `Centers` read it. `_norms` is the
    library's own channel for the points' precomputed row norms, `_lb` for
    an array it fills with each point's lower bound on its distance to the
    other centers, and `_groups=G` for G stacked sets of centers ranked in
    one pass, with (G, n) results (see `_nearest`).
    """
    labels, d2 = _nearest(points, centers, _norms, _lb, _groups or 1)
    return (labels, d2) if _groups else (labels[0], d2[0])


def empirical_risk(data: Dataset, c: Centers) -> float:
    """Mean squared distance of the data to its nearest centers.

    numpy's pairwise-summation mean keeps accumulation error negligible
    even for millions of points.
    """
    return float(min_sq_dists(data.points, c.centers).mean())


def weighted_risk(ws: WeightedSet, c: Centers) -> float:
    """Weighted SUM of squared distances (not a mean).

    With uniform weights 1/s this coincides with the empirical risk of the
    same points.
    """
    return float(ws.weights @ min_sq_dists(ws.points, c.centers))
