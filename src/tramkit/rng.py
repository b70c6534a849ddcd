"""Deterministic named RNG substreams.

All randomness in the library flows from a single 64-bit seed. Substreams
are addressed by (seed, *labels) so results never depend on call order or
scheduling: the same address always yields the same stream.
"""

from __future__ import annotations

import hashlib
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


def mass_pick(mass: np.ndarray, rng: np.random.Generator) -> int:
    """Index drawn with probability mass[i]/sum(mass); mass must be >= 0
    with a positive sum.

    Equivalent to Generator.choice(p=mass/mass.sum()) but without its
    per-call validation and normalization, which dominate tight sampling
    loops. The draw is scaled by the cumulative sum's own last entry, so it
    always lands below it and the index is in range with positive mass.
    """
    cdf = np.cumsum(mass)
    return int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
