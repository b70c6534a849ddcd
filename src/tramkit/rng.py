"""Deterministic named RNG substreams.

All randomness in the library flows from a single 64-bit seed. Substreams
are addressed by (seed, *labels) so results never depend on call order or
scheduling: the same address always yields the same stream.
"""

from __future__ import annotations

import hashlib
import math
import operator

import numpy as np

MASK63 = (1 << 63) - 1


def stable_seed(*parts) -> int:
    """Map (seed, label, index, ...) to a stable 63-bit integer.

    Uses SHA-256 of the repr of the parts, so the mapping is identical
    across platforms and Python processes (unlike hash()). numpy integer
    parts hash as the equal Python int, whose repr does not depend on the
    integer type or the numpy version.
    """
    parts = tuple(operator.index(p) if isinstance(p, np.integer) else p for p in parts)
    digest = hashlib.sha256(repr(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & MASK63


def derive_rng(*parts) -> np.random.Generator:
    """A fresh Generator for the substream addressed by the given parts."""
    return np.random.default_rng(stable_seed(*parts))


def mass_pick(mass: np.ndarray, rng: np.random.Generator) -> int | None:
    """Index drawn with probability mass[i]/sum(mass), or None, without a
    draw, when every mass is 0; mass must be >= 0.

    Equivalent to Generator.choice(p=mass/mass.sum()) but without its
    per-call validation and normalization, which dominate tight sampling
    loops. The draw is scaled by the cumulative sum's own last entry, so it
    lands below it and the index is in range with positive mass; only a
    subnormal sum can round the draw up to itself, and that draw takes the
    last index with positive mass. Masses whose sum overflows (coordinates
    near 1e154 and above square to inf in D^2 sampling) raise ValueError.
    """
    # the ndarray methods, not np.cumsum and np.searchsorted: their Python
    # wrappers cost as much as the search on a small summary
    cdf = mass.cumsum()
    total = float(cdf[-1])
    if not math.isfinite(total):
        raise ValueError(f"the masses overflow: their cumulative sum ends in {total}")
    if total == 0.0:
        return None
    idx = int(cdf.searchsorted(rng.random() * total, side="right"))
    return idx if idx < cdf.size else int(cdf.searchsorted(total))
