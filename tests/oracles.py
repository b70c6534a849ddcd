"""Independent oracles shared by the test suite.

Everything here is written against the math directly (plain enumeration,
no library calls but the seed substreams' addresses) so it stays
independent of the code paths it checks.
"""

import csv
import io

import numpy as np

from tramkit.rng import derive_rng


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


def lloyd_reference(points, weights, init, max_iters, rel_tol):
    """Weighted Lloyd built from the per-center assignment oracle.

    Each iteration takes fresh arrays: a column-wise weighted `bincount`
    update over the (n, d) weighted points, then the solver's repair rule
    for centers left without weight (re-place each, in index order, at the
    positive-weight point of largest weighted squared distance to the
    centers that kept weight or were already re-placed). Points are
    taken C-ordered, the layout whose einsum the kernel reproduces.
    Returns (centers, history, iterations, repairs).
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    centers = np.array(init, dtype=np.float64)
    k = centers.shape[0]
    wp = w[:, None] * pts
    labels, d2 = nearest_center_per_center(pts, centers)
    risk = float(w @ d2)
    history = [risk]
    iterations = repairs = 0
    for _ in range(max_iters):
        wsum = np.bincount(labels, weights=w, minlength=k)
        for dim in range(pts.shape[1]):
            centers[:, dim] = np.bincount(labels, weights=wp[:, dim], minlength=k)
        alive = wsum > 0
        centers[alive] /= wsum[alive, None]
        for j in np.flatnonzero(~alive):
            score = w * nearest_center_per_center(pts, centers[alive])[1]
            score[w <= 0] = -1.0
            centers[j] = pts[int(score.argmax())]
            alive[j] = True
            repairs += 1
        labels, d2 = nearest_center_per_center(pts, centers)
        new_risk = float(w @ d2)
        iterations += 1
        improvement = risk - new_risk
        risk = new_risk
        history.append(risk)
        if improvement <= rel_tol * max(risk, np.finfo(float).tiny):
            break
    return centers, tuple(history), iterations, repairs


def dsquared_reference(points, weights, k, rng):
    """Weighted k-means++ indices, allocating fresh arrays per center.

    Each draw picks index i with probability mass[i] / sum(mass) by
    searching the cumulative sum, scaled by its last entry; a draw that
    rounds up to a subnormal sum takes the first index the sum reaches.
    Once no point carries mass the chosen indices repeat in order. Points
    are taken C-ordered, the layout the library copies every input to.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)

    def pick(mass):
        cdf = np.cumsum(mass)
        u = rng.random() * cdf[-1]
        return int(np.searchsorted(cdf, u, side="right" if u < cdf[-1] else "left"))

    chosen = [pick(w)]
    diff = pts - pts[chosen[0]]
    d2 = np.einsum("ij,ij->i", diff, diff)
    while len(chosen) < k:
        mass = w * d2
        if not mass.any():
            chosen.extend(chosen[i % len(chosen)] for i in range(k - len(chosen)))
            break
        chosen.append(pick(mass))
        diff = pts - pts[chosen[-1]]
        np.minimum(d2, np.einsum("ij,ij->i", diff, diff), out=d2)
    return chosen


def solve_reference(ws, cfg):
    """Best of cfg.restarts (D^2 seeding -> Lloyd) runs, one after another.

    Restart r seeds with `dsquared_reference` from the substream
    (cfg.seed, "restart", r), then runs `lloyd_reference`; the lowest final
    risk wins, ties going to the earliest restart. Returns (centers,
    risk, iterations, history) of the winner.
    """
    pts, w = ws.points, ws.weights
    best = None
    for r in range(cfg.restarts):
        chosen = dsquared_reference(pts, w, cfg.k, derive_rng(cfg.seed, "restart", r))
        centers, history, iterations, _ = lloyd_reference(
            pts, w, pts[chosen], cfg.max_iters, cfg.rel_tol
        )
        if best is None or history[-1] < best[1]:
            best = (centers, history[-1], iterations, history)
    return best


def mixture_reference(spec):
    """The Gaussian mixture of `spec` as one gather plus one noise array.

    Draws, in order from the substream (seed, "synthetic"): Gamma weights,
    normalized; uniform means in the box; multinomial memberships; and,
    for sigma2 > 0, the (n, d) normal noise, added to the gathered means
    whole. Returns (points, means, weights).
    """
    rng = derive_rng(spec.seed, "synthetic")
    g = rng.gamma(spec.dirichlet_alpha, 1.0, size=spec.k_true)
    total = g.sum()
    weights = g / total if total > 0 and np.isfinite(total) else np.full(spec.k_true, 1.0 / spec.k_true)
    means = rng.uniform(*spec.box, size=(spec.k_true, spec.d))
    comp = rng.choice(spec.k_true, size=spec.n, p=weights)
    pts = means[comp]
    if spec.sigma2 > 0:
        pts = pts + rng.normal(0.0, np.sqrt(spec.sigma2), size=(spec.n, spec.d))
    return pts, means, weights


def csv_writer_bytes(points, header=True):
    """The file `csv.writer` makes of the points, one repr per float and an
    x0, x1, ... header: the bytes `save_csv` must write."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    if header:
        writer.writerow([f"x{j}" for j in range(points.shape[1])])
    for row in points:
        writer.writerow([repr(float(v)) for v in row])
    return buf.getvalue().encode()


def near_score_bound(n):
    """n points of one D^2 step whose answer turns on float32 rounding.

    Point 1, x, lies next to the midpoint of a (the other n - 2 points,
    so almost surely the first draw) and point 0, c. Its float64 einsum
    distance to c is below the one to a by a relative 4e-8, less than the
    rounding of a float32 score of |x - c|^2 centred on a, which without
    its margin rounds to above |x - a|^2 and would keep x with a once a and
    then c are drawn.
    """
    a = [2.2322924378479447, 0.5316802214239764, 1.1642001953535577,
         0.188686495364914, 2.1776425913273303, 0.2633036602784603,
         1.1852751250739026, 2.6205678933621965, 1.4169010102500343]
    c = [2.737865800922657, 2.297751353216617, 2.7459718803352975,
         0.382209027146719, 0.2206887159918961, 0.2109787607076542,
         2.606562883041958, 1.9022099380423296, 1.4897150813965592]
    x = [2.485079121908085, 1.4147157961329, 1.9550860457373864,
         0.2854477622214839, 1.1991656438945149, 0.23714121023195872,
         1.8959190111500825, 2.261388912117694, 1.4533080461866352]
    return np.array([c, x] + [a] * (n - 2))
