"""Foundational geometry and risk evaluation.

The three value types (`Dataset`, `Centers`, `WeightedSet`) are immutable
after construction (backing arrays are read-only; a writable array passed
in is copied first, so the caller's array stays as it was) and safe to
share across threads. The risk operations are pure functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Dataset",
    "Centers",
    "WeightedSet",
    "squared_dist",
    "empirical_risk",
    "weighted_risk",
    "min_sq_dists",
    "assign_nearest",
    "uniform_weighted",
]


def _frozen(arr: np.ndarray, source) -> np.ndarray:
    # an array the caller can still write to is copied before it is made
    # read-only: freezing it in place would change the caller's array, and
    # keeping it writable would let the caller change ours
    if arr.flags.writeable and (arr is source or arr.base is not None):
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _as_points(points, name: str) -> np.ndarray:
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name} must be a non-empty (n, d) array")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite coordinates")
    return _frozen(arr, points)


@dataclass(frozen=True)
class Dataset:
    """A dense collection of n points in R^d.

    `ball_radius` is optional support-radius metadata (the data is assumed
    to live in a ball of that radius at the origin); when absent,
    `bound_radius()` falls back to the max point norm.
    """

    points: np.ndarray
    ball_radius: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "points", _as_points(self.points, "points"))
        if self.ball_radius is not None and self.ball_radius <= 0:
            raise ValueError("ball_radius must be positive")

    @classmethod
    def _trusted(cls, points: np.ndarray, ball_radius: float | None = None) -> "Dataset":
        """Wrap a finite (n, d) float64 array without copying or scanning it.

        Only for arrays the library built itself or views of a validated
        Dataset's points; the array is made read-only in place.
        """
        points.setflags(write=False)
        obj = object.__new__(cls)
        object.__setattr__(obj, "points", points)
        object.__setattr__(obj, "ball_radius", ball_radius)
        return obj

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def bound_radius(self) -> float:
        """Support radius B: the stored bound, else max point norm."""
        if self.ball_radius is not None:
            return float(self.ball_radius)
        return float(np.sqrt((self.points**2).sum(axis=1).max()))

    def prefix(self, m: int) -> "Dataset":
        """Truncation to the first m points (shares memory)."""
        if not 1 <= m <= self.n:
            raise ValueError(f"prefix size {m} outside [1, {self.n}]")
        return Dataset._trusted(self.points[:m], self.ball_radius)

    def subset(self, idx) -> "Dataset":
        """The points at the given indices, in that order (a copy)."""
        pts = self.points[np.asarray(idx)]
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("subset needs a non-empty 1-D index array")
        return Dataset._trusted(pts, self.ball_radius)


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
    weights: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        object.__setattr__(self, "points", _as_points(self.points, "points"))
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.shape[0] != self.points.shape[0]:
            raise ValueError("weights must be 1-D and match the point count")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights contain non-finite values")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if not np.any(w > 0):
            raise ValueError("at least one weight must be positive")
        object.__setattr__(self, "weights", _frozen(w, self.weights))

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


def uniform_weighted(data: Dataset) -> WeightedSet:
    """The dataset as a weighted set with weight 1/n per point."""
    w = np.full(data.n, 1.0 / data.n)
    return WeightedSet(data.points, w)


def _check_dims(d_left: int, d_right: int) -> None:
    if d_left != d_right:
        raise ValueError(f"dimension mismatch: {d_left} != {d_right}")


# Points per block of the nearest-center kernel: a block's (k, rows) score
# matrix and (rows, d) differences stay small while each GEMM call is large
# enough to amortize its overhead.
_BLOCK_ROWS = 4096

# Near-tie margin of the kernel in units of (d + 2) * eps * (|x| + max|c|)^2;
# twice what the error analysis in `_nearest` needs.
_TIE_SLACK = 4.0


def _nearest(points: np.ndarray, centers: np.ndarray):
    """Labels and squared distances of each point's nearest center.

    Per block of rows, one GEMM scores every center by |c|^2 - 2 x.c. That
    differs from |x - c|^2 by |x|^2, the same for all centers of a point,
    so the lowest score marks the nearest center. The scores and the einsum
    of explicit differences are each within (d + 2) * (eps / 2) *
    (|x| + max|c|)^2 of exact. So when every other score exceeds the best
    by more than 2 * (d + 2) * eps * (|x| + max|c|)^2, the einsum values
    have the same unique minimizer. Every other point (near ties, duplicate
    centers, large coordinate offsets, overflow) is ranked again from
    explicit differences to every center, ties going to the lowest index.

    The returned distance is always the explicit |x - c_label|^2. So the
    result equals a per-center loop of explicit differences bit for bit,
    and a point that coincides with its center gets exactly 0.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    _check_dims(points.shape[1], centers.shape[1])
    n, d = points.shape
    k = centers.shape[0]
    neg2c = -2.0 * centers
    cc = np.einsum("ij,ij->i", centers, centers)[:, None]
    cmax = np.sqrt(cc.max())
    slack = _TIE_SLACK * (d + 2) * np.finfo(np.float64).eps
    center_ids = np.arange(k)
    labels = np.empty(n, dtype=np.intp)
    d2 = np.empty(n)
    for lo in range(0, n, _BLOCK_ROWS):
        xb = points[lo : lo + _BLOCK_ROWS]
        # (k, rows) scores, so each reduction over the centers is a few
        # vector operations across the block, not one short one per point
        scores = neg2c @ xb.T
        scores += cc
        norms = np.sqrt(np.einsum("ij,ij->i", xb, xb))
        # tiny covers absolute rounding in the subnormal range
        tol = slack * (norms + cmax) ** 2 + np.finfo(np.float64).tiny
        near_best = scores <= scores.min(axis=0) + tol
        # the label wherever exactly one center is near the best; NaN
        # scores (overflow) match no center and take the exact path too
        lab = center_ids @ near_best
        close = np.flatnonzero(near_best.sum(axis=0) != 1)
        if close.size:
            xc = xb[close]
            exact = np.empty((close.size, k))
            for j, c in enumerate(centers):
                diff = xc - c
                exact[:, j] = np.einsum("ij,ij->i", diff, diff)
            lab[close] = exact.argmin(axis=1)
        diff = xb - centers[lab]
        labels[lo : lo + _BLOCK_ROWS] = lab
        d2[lo : lo + _BLOCK_ROWS] = np.einsum("ij,ij->i", diff, diff)
    return labels, d2


def min_sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Per-point squared distance to the nearest of the given centers.

    The distance is computed from explicit differences to the nearest
    center, which a GEMM ranking with an exact fallback for near ties
    selects (see `_nearest`); coinciding points give exactly 0.
    """
    return _nearest(points, centers)[1]


def assign_nearest(points: np.ndarray, centers: np.ndarray):
    """Nearest-center labels and squared distances.

    Ties break toward the lowest center index (argmin convention); the
    distances are the same values `min_sq_dists` returns.
    """
    return _nearest(points, centers)


def squared_dist(x, c: Centers) -> float:
    """min over centers of the squared Euclidean distance to x."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    _check_dims(x.shape[0], c.d)
    return float(min_sq_dists(x.reshape(1, -1), c.centers)[0])


def empirical_risk(data: Dataset, c: Centers) -> float:
    """Mean squared distance of the data to its nearest centers.

    numpy's pairwise-summation mean keeps accumulation error negligible
    even for millions of points.
    """
    _check_dims(data.d, c.d)
    return float(min_sq_dists(data.points, c.centers).mean())


def weighted_risk(ws: WeightedSet, c: Centers) -> float:
    """Weighted SUM of squared distances (not a mean).

    With uniform weights 1/s this coincides with the empirical risk of the
    same points.
    """
    _check_dims(ws.d, c.d)
    return float(ws.weights @ min_sq_dists(ws.points, c.centers))
