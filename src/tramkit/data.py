"""Synthetic mixture data, CSV ingestion, and train/validation splitting."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset
from .rng import derive_rng

__all__ = [
    "SyntheticSpec",
    "SyntheticResult",
    "gen_synthetic",
    "load_csv",
    "save_csv",
    "save_mixture_meta",
    "split_validation",
]


@dataclass(frozen=True)
class SyntheticSpec:
    """Gaussian-mixture generator: k_true spherical components with means
    uniform in `box`^d and mixture weights from an exchangeable
    Dirichlet(dirichlet_alpha) draw (heavy-tailed cluster sizes for small
    alpha)."""

    n: int
    d: int = 100
    k_true: int = 100
    box: tuple[float, float] = (0.0, 100.0)
    sigma2: float = 5.0
    dirichlet_alpha: float = 1.0 / 20.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.d < 1 or self.k_true < 1:
            raise ValueError("n, d, k_true must be positive")
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be nonnegative")
        if self.dirichlet_alpha <= 0:
            raise ValueError("dirichlet_alpha must be positive")
        if not self.box[1] > self.box[0]:
            raise ValueError("box must be a (low, high) interval")


@dataclass(frozen=True)
class SyntheticResult:
    data: Dataset
    means: np.ndarray  # (k_true, d) ground-truth component means
    weights: np.ndarray  # (k_true,) mixture weights, sum 1


def _dirichlet(alpha: float, k: int, rng: np.random.Generator) -> np.ndarray:
    # normalized independent Gamma(alpha, 1) draws; robust at small alpha
    g = rng.gamma(alpha, 1.0, size=k)
    total = g.sum()
    if total <= 0 or not np.isfinite(total):
        return np.full(k, 1.0 / k)
    return g / total


def gen_synthetic(spec: SyntheticSpec) -> SyntheticResult:
    """Sample a mixture dataset; deterministic given spec.seed.

    Mixture weights are drawn once per spec; component memberships are
    multinomial draws against those weights (no exact quotas).
    """
    rng = derive_rng(spec.seed, "synthetic")
    lo, hi = spec.box
    weights = _dirichlet(spec.dirichlet_alpha, spec.k_true, rng)
    means = rng.uniform(lo, hi, size=(spec.k_true, spec.d))
    comp = rng.choice(spec.k_true, size=spec.n, p=weights)
    pts = means[comp]
    if spec.sigma2 > 0:
        pts = pts + rng.normal(0.0, math.sqrt(spec.sigma2), size=(spec.n, spec.d))
    return SyntheticResult(data=Dataset._trusted(pts), means=means, weights=weights)


def load_csv(path, has_header: bool = False) -> Dataset:
    """Parse a rectangular numeric CSV into a Dataset.

    Rejects ragged rows, non-numeric fields, and non-finite values with an
    error naming the offending row (1-based, counting the header if any).
    """
    rows: list[list[float]] = []
    d = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if has_header and lineno == 1:
                continue
            if not row or (len(row) == 1 and row[0].strip() == ""):
                continue  # tolerate blank lines
            try:
                values = [float(f) for f in row]
            except ValueError as exc:
                raise ValueError(f"{path}: row {lineno}: non-numeric field ({exc})") from None
            if any(not math.isfinite(v) for v in values):
                raise ValueError(f"{path}: row {lineno}: non-finite value")
            if d is None:
                d = len(values)
            elif len(values) != d:
                raise ValueError(
                    f"{path}: row {lineno}: expected {d} fields, got {len(values)}"
                )
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    # every row was checked finite and rectangular above
    return Dataset._trusted(np.asarray(rows, dtype=np.float64))


def save_csv(data: Dataset, path, header: bool = True) -> None:
    """Write one point per row; repr-formatted floats round-trip exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow([f"x{j}" for j in range(data.d)])
        for row in data.points:
            writer.writerow([repr(float(v)) for v in row])


def save_mixture_meta(result: SyntheticResult, path) -> None:
    """Ground-truth sidecar: one row per component (weight, mean coords)."""
    d = result.means.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["weight"] + [f"mu{j}" for j in range(d)])
        for w, mu in zip(result.weights, result.means):
            writer.writerow([repr(float(w))] + [repr(float(v)) for v in mu])


def split_validation(data: Dataset, fraction: float, seed: int = 0):
    """Random disjoint (train, validation) partition.

    Validation receives floor(fraction * n) points; errors if either part
    would be empty. Deterministic given seed.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    n_val = int(fraction * data.n)
    n_train = data.n - n_val
    if n_val < 1 or n_train < 1:
        raise ValueError(
            f"fraction {fraction} yields an empty part for n={data.n}"
        )
    perm = derive_rng(seed, "split").permutation(data.n)
    return data.subset(perm[n_val:]), data.subset(perm[:n_val])
