"""Independent oracles shared by the test suite.

Everything here is written against the math directly (plain enumeration,
no library calls) so it stays independent of the code paths it checks.
"""

import numpy as np


def brute_force_kmeans(points, weights, k):
    """Exact weighted k-means by enumerating all k^n assignments.

    Returns (best weighted cost, centers of the best partition). The
    weighted cost of an assignment uses each cluster's weighted mean, so
    minimizing over all assignments is the exact optimum. Only viable for
    n <= 12, k <= 3.
    """
    pts = np.asarray(points, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    n, d = pts.shape
    total_assignments = k**n
    base = float(w @ (pts**2).sum(axis=1))
    wp = w[:, None] * pts

    best_cost = np.inf
    best_assign = None
    chunk = 1 << 16
    for start in range(0, total_assignments, chunk):
        codes = np.arange(start, min(start + chunk, total_assignments))
        assign = np.stack(np.unravel_index(codes, (k,) * n), axis=1)  # (M, n)
        cost = np.full(codes.shape[0], base)
        for c in range(k):
            mask = (assign == c).astype(np.float64)
            wc = mask @ w
            sc = mask @ wp
            nz = wc > 0
            cost[nz] -= (sc[nz] ** 2).sum(axis=1) / wc[nz]
        j = int(cost.argmin())
        if cost[j] < best_cost:
            best_cost = float(cost[j])
            best_assign = assign[j]

    centers = []
    for c in range(k):
        members = best_assign == c
        if members.any():
            wc = w[members].sum()
            centers.append((w[members, None] * pts[members]).sum(axis=0) / wc)
    return max(best_cost, 0.0), np.asarray(centers)


def binom_cdf(v, n, p):
    """P(Binomial(n, p) <= v), exact."""
    from math import comb

    return sum(comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(v + 1))


def nearest_center_per_center(points, centers):
    """Nearest-center labels and squared distances, one center at a time.

    The reference the distance kernel must equal bit for bit: explicit
    differences to each center summed by the same row-wise einsum, and the
    first of several equal minima winning.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    cs = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    dists = np.empty((pts.shape[0], cs.shape[0]))
    for j, c in enumerate(cs):
        diff = pts - c
        dists[:, j] = np.einsum("ij,ij->i", diff, diff)
    labels = dists.argmin(axis=1)
    return labels, dists[np.arange(pts.shape[0]), labels]
