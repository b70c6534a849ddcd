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

from .core import Centers, Dataset, WeightedSet, _wrap, uniform_weighted
from .rng import derive_rng
from .solver import _dsquared

__all__ = [
    "Bicriteria",
    "CoresetParams",
    "EtaModel",
    "bicriteria_init",
    "sensitivities",
    "build_coreset",
    "eta_bound",
]

# the bicriteria clustering draws this many times k rough centers
BICRITERIA_FACTOR = 2


@dataclass(frozen=True)
class CoresetParams:
    k: int
    size: int
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.size < 1:
            raise ValueError("size must be >= 1")


@dataclass(frozen=True, eq=False)
class Bicriteria:
    """Rough clustering with BICRITERIA_FACTOR * k centers.

    `point_costs` keeps the per-point squared distance to the assigned
    center; `total_cost` is their sum.
    """

    centers: Centers
    assignment: np.ndarray
    total_cost: float
    point_costs: np.ndarray


@dataclass(frozen=True)
class EtaModel:
    """Coreset approximation factor eta(s) = A*sqrt(dk)/(sqrt(s)-sqrt(dk))."""

    A: float = 5.0
    d: int = 1
    k: int = 1

    def __post_init__(self):
        if not self.A > 0:
            raise ValueError("A must be positive")
        if self.d < 1 or self.k < 1:
            raise ValueError("d and k must be positive integers")


def bicriteria_init(data: Dataset, p: CoresetParams, rng) -> Bicriteria:
    """D^2-sample BICRITERIA_FACTOR * k rough centers and assign every point.

    The centers are those `seed_dsquared` draws on the data at uniform
    weights (the first center uniformly at random). One pass: the seeding's
    own distances and owners are the assignment, so each point goes to the
    first center attaining its squared distance, as an argmin over the
    centers would. Linear in n for fixed k, d.
    """
    ws = uniform_weighted(data)
    chosen, point_costs, labels = _dsquared(ws, BICRITERIA_FACTOR * p.k, rng, owners=True)
    return Bicriteria(
        centers=_wrap(Centers, data.points[chosen]),
        assignment=labels,
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


def build_coreset(data: Dataset, p: CoresetParams) -> WeightedSet:
    """Importance-sample a coreset of p.size points with unbiased weights.

    Samples i.i.d. with probability q(x) = sigma(x)/sum(sigma) and assigns
    weight 1/(size * q * n), so for any fixed centers the expected weighted
    risk over draws equals the empirical risk of `data`. With p.size >= n
    the construction degenerates to the full data at uniform weight 1/n.
    Randomness comes from the substream (p.seed, "coreset").
    """
    n = data.n
    if p.size >= n:
        return uniform_weighted(data)
    rng = derive_rng(p.seed, "coreset")
    b = bicriteria_init(data, p, rng)
    sigma = sensitivities(data, b)
    q = sigma / sigma.sum()
    idx = rng.choice(n, size=p.size, replace=True, p=q)
    # sigma >= 1/n and sum(sigma) <= 2k + 1, so q >= 1/(n * (2k + 1)) on
    # every index and the weights are finite and positive
    pts = np.take(data.points, idx, axis=0)
    return _wrap(WeightedSet, pts, 1.0 / (p.size * q[idx] * n))


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
