"""A canary for numpy's random streams: one pinned draw per `Generator`
method that tramkit's bits rest on.

numpy keeps only the bit generators' raw streams stable across versions
(NEP 19); the `Generator` methods may change their algorithms. Every
sample, summary, seeding, split and synthetic mixture in tramkit comes
from the methods below, so a numpy that changes one of them changes the
digests in `test_digests.py`. Each test here pins a sha256 of one method's
output on a fixed `default_rng` seed, at the argument shapes tramkit uses,
so such a numpy fails the test that names the method. `random_raw` is
pinned beside them: if it fails too, the bit generator itself changed.

Like the digests, each pin holds for the numpy version it was taken with,
and every test fails on another version, naming both.
"""

import hashlib
import math

import numpy as np
import pytest

PINNED_NUMPY = "2.4.6"

SEED = 5

# fixed probability vectors, built without drawing, so that each test
# depends on one method alone: sensitivity-like over a coreset's 48,000
# points, and mixture-like over 10 components
Q = np.arange(48_000) % 97 + 1.0
Q /= Q.sum()
W = np.arange(1, 11.0) ** 2
W /= W.sum()


def _digest(values) -> str:
    h = hashlib.sha256()
    if isinstance(values, np.ndarray):
        if values.dtype.kind in "iu":
            values = values.astype(np.int64)
        h.update(f"{values.dtype}{values.shape}".encode())
        h.update(np.ascontiguousarray(values).tobytes())
    else:
        h.update(repr(values).encode())
    return h.hexdigest()[:16]


# method, where tramkit calls it -> (the draw, its pinned digest)
DRAWS = {
    # `_run_cell`'s sample of n from the reference: numpy's tail shuffle,
    # taken when the population exceeds 10,000 and size exceeds 1/50 of it
    "choice_no_replace_tail": (
        lambda g: g.choice(60_000, size=50_000, replace=False),
        "ee3f398370e85005",
    ),
    # `_run_cell`'s uniform summary of s from the sample: Floyd's algorithm
    "choice_no_replace_floyd": (
        lambda g: g.choice(50_000, size=50, replace=False),
        "fed164894abca89d",
    ),
    # `build_coreset`'s sensitivity sampling
    "choice_p_replace": (
        lambda g: g.choice(48_000, size=1_000, replace=True, p=Q),
        "36d3d765566b2222",
    ),
    # `gen_synthetic`'s component memberships
    "choice_p": (lambda g: g.choice(10, size=60_000, p=W), "75448e41ce3629c4"),
    # `gen_synthetic`'s mixture weights, means and noise
    "gamma": (lambda g: g.gamma(1 / 20, 1.0, size=10), "b9c64d4f9c6fbf82"),
    "uniform": (lambda g: g.uniform(0.0, 100.0, size=(10, 10)), "762d4f379cf81a6c"),
    "normal": (
        lambda g: g.normal(0.0, math.sqrt(5.0), size=(60_000, 10)),
        "f858ad686b520b28",
    ),
    # `split_validation`'s shuffle
    "permutation": (lambda g: g.permutation(60_000), "6a722af6d8e271f8"),
    # `mass_pick`'s one uniform per D^2 draw
    "random": (lambda g: [g.random() for _ in range(1_000)], "7cdfe0a3e68e9426"),
    # the bit generator's own stream, which NEP 19 keeps stable
    "random_raw": (lambda g: g.bit_generator.random_raw(1_000), "4edbeec220144bf4"),
}


@pytest.mark.parametrize("method", list(DRAWS))
def test_generator_stream_is_pinned(method):
    if np.__version__ != PINNED_NUMPY:
        pytest.fail(
            f"the streams were pinned with numpy {PINNED_NUMPY}, and this is numpy "
            f"{np.__version__}, whose {method} may differ: re-pin them"
        )
    draw, pinned = DRAWS[method]
    assert _digest(draw(np.random.default_rng(SEED))) == pinned
