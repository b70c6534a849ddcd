"""Sensitivity-based coreset construction.

Pipeline: a rough bicriteria clustering (D^2 sampling with more than k
centers) bounds each point's sensitivity; importance sampling proportional
to those bounds yields a small weighted set whose weighted risk is an
unbiased estimate of the empirical risk at any fixed centers. The
analytic approximation factor eta(s) is exposed alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Centers, Dataset, WeightedSet, assign_nearest
from .rng import derive_rng, mass_pick

__all__ = [
    "Bicriteria",
    "CoresetParams",
    "EtaModel",
    "bicriteria_init",
    "sensitivities",
    "build_coreset",
    "eta_bound",
]


@dataclass(frozen=True)
class CoresetParams:
    k: int
    size: int
    seed: int = 0
    bicriteria_factor: int = 2

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.size < 1:
            raise ValueError("size must be >= 1")
        if self.bicriteria_factor < 1:
            raise ValueError("bicriteria_factor must be >= 1")


@dataclass(frozen=True)
class Bicriteria:
    """Rough clustering with bicriteria_factor * k centers.

    `point_costs` keeps the per-point squared distance to the assigned
    center; `cluster_costs` aggregates it per center.
    """

    centers: Centers
    assignment: np.ndarray
    cluster_costs: np.ndarray
    total_cost: float
    point_costs: np.ndarray


@dataclass(frozen=True)
class EtaModel:
    """Coreset approximation factor eta(s) = A*sqrt(dk)/(sqrt(s)-sqrt(dk))."""

    A: float = 5.0
    d: int = 1
    k: int = 1

    def __post_init__(self):
        if self.A <= 0:
            raise ValueError("A must be positive")
        if self.d < 1 or self.k < 1:
            raise ValueError("d and k must be positive integers")


def _dsquared_indices(pts: np.ndarray, count: int, rng: np.random.Generator) -> list[int]:
    # unweighted D^2 sampling; duplicates fill the tail once every point
    # is covered (zero residual mass)
    n = pts.shape[0]
    chosen = [int(rng.integers(n))]
    diff = pts - pts[chosen[0]]
    d2 = np.einsum("ij,ij->i", diff, diff)
    while len(chosen) < count:
        total = float(d2.sum())
        if total <= 0:
            need = count - len(chosen)
            chosen.extend(chosen[i % len(chosen)] for i in range(need))
            break
        idx = mass_pick(d2, rng)
        chosen.append(idx)
        diff = pts - pts[idx]
        np.minimum(d2, np.einsum("ij,ij->i", diff, diff), out=d2)
    return chosen


def bicriteria_init(data: Dataset, p: CoresetParams, rng=None) -> Bicriteria:
    """D^2-sample bicriteria_factor * k rough centers and assign every point.

    One sampling sweep plus one assignment pass; linear in n for fixed k, d.
    """
    if rng is None:
        rng = derive_rng(p.seed, "bicriteria")
    count = p.bicriteria_factor * p.k
    idx = _dsquared_indices(data.points, count, rng)
    centers = data.points[idx]
    labels, point_costs = assign_nearest(data.points, centers)
    cluster_costs = np.bincount(labels, weights=point_costs, minlength=count)
    return Bicriteria(
        centers=Centers(centers),
        assignment=labels,
        cluster_costs=cluster_costs,
        total_cost=float(point_costs.sum()),
        point_costs=point_costs,
    )


def sensitivities(data: Dataset, b: Bicriteria) -> np.ndarray:
    """Per-point sensitivity upper bounds from a bicriteria clustering.

    sigma(x) = d^2(x, B)/total_cost + 1/|cluster(x)|, with the distance
    term taken as 0 when total_cost is 0. Large for outliers, 1/|cluster|
    within tight clusters; always >= 1/n and sums to at least 1.
    """
    if b.assignment.shape[0] != data.n:
        raise ValueError("bicriteria clustering was not computed from this data")
    sizes = np.bincount(b.assignment, minlength=b.centers.k)
    sigma = 1.0 / sizes[b.assignment]
    if b.total_cost > 0:
        sigma = sigma + b.point_costs / b.total_cost
    return sigma


def build_coreset(data: Dataset, p: CoresetParams, rng=None) -> WeightedSet:
    """Importance-sample a coreset of p.size points with unbiased weights.

    Samples i.i.d. with probability q(x) = sigma(x)/sum(sigma) and assigns
    weight 1/(size * q * n), so for any fixed centers the expected weighted
    risk over draws equals the empirical risk of `data`. With p.size >= n
    the construction degenerates to the full data at uniform weight 1/n.
    """
    if rng is None:
        rng = derive_rng(p.seed, "coreset")
    n = data.n
    if p.size >= n:
        return WeightedSet(data.points, np.full(n, 1.0 / n))
    b = bicriteria_init(data, p, rng)
    sigma = sensitivities(data, b)
    q = sigma / sigma.sum()
    idx = rng.choice(n, size=p.size, replace=True, p=q)
    weights = 1.0 / (p.size * q[idx] * n)
    return WeightedSet(data.points[idx], weights)


def eta_bound(s: int, m: EtaModel) -> float:
    """Approximation factor A*sqrt(dk)/(sqrt(s) - sqrt(dk)).

    Defined only beyond the pole at s = d*k; smaller coresets carry no
    approximation guarantee.
    """
    dk = m.d * m.k
    if s <= dk:
        raise ValueError(f"coreset size {s} must exceed d*k = {dk}")
    root_dk = math.sqrt(dk)
    return m.A * root_dk / (math.sqrt(s) - root_dk)
