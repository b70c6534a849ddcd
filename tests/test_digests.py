"""Same seed, same bits: pinned sha256 digests of risk outputs.

Every other test compares the program with an oracle in `oracles.py`, so a
mistake shared by both passes both. These tests compare it with the bits
it produced when the digests were pinned, on small fixture-like data:
sweep cells, TRAM navigations, `solve` on each side of the Lloyd screen's
switch, D^2 seeding and bicriteria on each side of their former size
switches, and a coreset.

numpy may change its `Generator` streams between versions (NEP 19), so
the digests hold for the numpy version they were pinned with, and every
test fails on another version, naming both. A change that alters the
draws on purpose updates the pinned values and explains each one.

Each digest must also come from Fortran-ordered inputs and from numpy
integer seeds: the promise is the same result for the same values.
"""

import hashlib

import numpy as np
import pytest

from tramkit import (
    CoresetParams,
    Dataset,
    SolverConfig,
    SweepGrid,
    TramParams,
    WeightedSet,
    bicriteria_init,
    build_coreset,
    run_sweep,
    run_tram,
    seed_dsquared,
    solve,
)
from tramkit.data import SyntheticSpec, gen_synthetic, split_validation
from tramkit.rng import derive_rng

PINNED_NUMPY = "2.4.6"

# (seed type, memory layout of every input array)
VARIANTS = {
    "int_C": (int, np.ascontiguousarray),
    "int32_F": (np.int32, np.asfortranarray),
    "int64_F": (np.int64, np.asfortranarray),
}

SEED = 5


def _fixture_points():
    # the benchmark fixture's mixture (d = 10, 10 components, seed 27),
    # at a third of its size
    spec = SyntheticSpec(n=20_000, d=10, k_true=10, seed=27)
    return gen_synthetic(spec).data.points


POINTS = _fixture_points()
WEIGHTS = derive_rng(SEED, "digest-weights").uniform(0.5, 2.0, size=len(POINTS))


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            if part.dtype.kind in "iu":
                part = part.astype(np.int64)
            h.update(f"{part.dtype}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _sweep(seed, layout):
    data = Dataset(layout(POINTS[:5000]))
    solver = SolverConfig(k=10, restarts=2, seed=seed, rel_tol=0.0)
    rows = []
    for proc in ("uniform", "coreset"):
        grid = SweepGrid((1000, 2500), (100, 400), proc, solver, repeats=2, seed=seed)
        for r in run_sweep(data, grid).records:
            rows.append((r.procedure, r.n, r.s, r.repeats, r.mean_risk, r.std_risk))
    return _digest(*rows)


def _tram(seed, layout):
    data = Dataset(layout(POINTS))
    solver = SolverConfig(k=10, restarts=2, seed=seed, rel_tol=0.0)
    rows = []
    for nav in range(3):
        r = seed + nav
        train, pool = split_validation(data, 0.2, seed=r)
        trace = run_tram(train, pool, TramParams(eps_total=32.0, delta=0.1, k=10, seed=r), solver)
        rows.append((trace.params.m0, trace.params.s0, trace.exhausted, trace.final_validation_risk))
        rows += [(t.i, t.m, t.s, t.a, t.validation_risk, t.stopped) for t in trace.rows]
    return _digest(*rows)


def _solve(seed, layout):
    # 8,191 and 8,192 points: each side of the Lloyd screen's switch
    parts = []
    for n in (8191, 8192):
        ws = WeightedSet(layout(POINTS[:n]), WEIGHTS[:n])
        for restarts in (1, 3):
            res = solve(ws, SolverConfig(k=10, max_iters=30, restarts=restarts, seed=seed))
            parts += [res.centers.centers, res.weighted_risk, res.iterations, res.history]
    return _digest(*parts)


def _seed_dsquared(seed, layout):
    # 4,095 and 4,096 points, and each side of 18,000 distance evaluations
    # (1,636 and 1,637 points for 12 centers)
    parts = []
    for n in (4095, 4096, 1636, 1637):
        ws = WeightedSet(layout(POINTS[:n]), WEIGHTS[:n])
        for s in range(seed, seed + 3):
            parts.append(seed_dsquared(ws, 12, np.random.default_rng(s)).centers)
    return _digest(*parts)


def _bicriteria(seed, layout):
    # the same sizes; k = 6 draws 12 centers
    parts = []
    for n in (4095, 4096, 1636, 1637, 20_000):
        data = Dataset(layout(POINTS[:n]))
        for s in range(seed, seed + 3):
            b = bicriteria_init(data, CoresetParams(k=6, size=10), derive_rng(s, "b"))
            parts += [b.centers.centers, b.assignment, b.point_costs, b.total_cost]
    return _digest(*parts)


def _coreset(seed, layout):
    parts = []
    for n, size in ((3000, 200), (20_000, 1000)):
        ws = build_coreset(Dataset(layout(POINTS[:n])), CoresetParams(k=10, size=size, seed=seed))
        parts += [ws.points, ws.weights]
    return _digest(*parts)


CASES = {
    "sweep": (_sweep, "15de559c925617cc"),
    "tram": (_tram, "94f6c3a4f41f0392"),
    "solve": (_solve, "76920bccfdf71779"),
    "seed_dsquared": (_seed_dsquared, "31bde378973c13a1"),
    "bicriteria_init": (_bicriteria, "593282b186d3c256"),
    "build_coreset": (_coreset, "85340fab7e2f589b"),
}


@pytest.mark.parametrize("variant", list(VARIANTS))
@pytest.mark.parametrize("case", list(CASES))
def test_pinned_digest(case, variant):
    if np.__version__ != PINNED_NUMPY:
        pytest.fail(
            f"the digests were pinned with numpy {PINNED_NUMPY}, and this is numpy "
            f"{np.__version__}, whose random streams may differ: re-pin them"
        )
    run, pinned = CASES[case]
    seed_type, layout = VARIANTS[variant]
    assert run(seed_type(SEED), layout) == pinned
