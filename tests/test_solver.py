import math

import numpy as np
import pytest

from tramkit import (
    Centers,
    Dataset,
    SolverConfig,
    WeightedSet,
    empirical_risk,
    lloyd,
    seed_dsquared,
    solve,
    uniform_weighted,
    weighted_risk,
)
from tramkit.rng import derive_rng

from oracles import brute_force_kmeans


def test_seeding_single_point():
    ws = WeightedSet([[5.0, 5.0]], [1.0])
    c = seed_dsquared(ws, 1, np.random.default_rng(0))
    assert np.array_equal(c.centers, [[5.0, 5.0]])


def test_seeding_excludes_zero_weight():
    ws = WeightedSet([[0.0], [1.0]], [1.0, 0.0])
    for seed in range(20):
        c = seed_dsquared(ws, 1, np.random.default_rng(seed))
        assert c.centers[0, 0] == 0.0


def test_seeding_two_points_covers_both():
    ws = WeightedSet([[0.0], [10.0]], [0.5, 0.5])
    for seed in range(20):
        c = seed_dsquared(ws, 2, np.random.default_rng(seed))
        assert sorted(c.centers.ravel()) == [0.0, 10.0]


def test_seeding_duplicates_when_short_on_mass():
    ws = WeightedSet([[1.0], [1.0]], [1.0, 1.0])
    c = seed_dsquared(ws, 3, np.random.default_rng(1))
    assert c.k == 3
    assert np.all(c.centers == 1.0)


def test_all_zero_weights_rejected():
    with pytest.raises(ValueError):
        WeightedSet([[0.0], [1.0]], [0.0, 0.0])


def test_lloyd_moves_to_weighted_mean():
    ws = uniform_weighted(Dataset([[0.0], [2.0]]))
    res = lloyd(ws, Centers([[5.0]]), SolverConfig(k=1))
    assert res.centers.centers[0, 0] == pytest.approx(1.0)
    assert res.weighted_risk == pytest.approx(1.0)


def test_lloyd_fixed_point_stops_after_one_iteration():
    ws = uniform_weighted(Dataset([[0.0], [2.0]]))
    res = lloyd(ws, Centers([[0.0], [2.0]]), SolverConfig(k=2))
    assert res.weighted_risk == 0.0
    assert res.iterations == 1


def test_lloyd_restart_hits_bruteforce_often():
    # 12 points in 2-D, k=2: single seeded runs land on the optimum on a
    # large fraction of 100 restarts, never below it
    rng = np.random.default_rng(42)
    pts = np.vstack([rng.normal(0, 0.4, (6, 2)), rng.normal(4, 0.4, (6, 2))])
    ws = uniform_weighted(Dataset(pts))
    opt, _ = brute_force_kmeans(pts, np.full(12, 1 / 12), 2)
    hits = 0
    for seed in range(100):
        res = solve(ws, SolverConfig(k=2, restarts=1, seed=seed))
        assert res.weighted_risk >= opt - 1e-12
        if res.weighted_risk <= opt * (1 + 1e-9):
            hits += 1
    assert hits >= 80


def test_lloyd_monotone_risk_history():
    rng = np.random.default_rng(5)
    for trial in range(25):
        n = int(rng.integers(5, 30))
        pts = rng.random((n, 2))
        w = rng.uniform(0.05, 1.0, n)
        ws = WeightedSet(pts, w)
        init = seed_dsquared(ws, 3, np.random.default_rng(trial))
        res = lloyd(ws, init, SolverConfig(k=3, rel_tol=0.0, max_iters=40))
        hist = np.asarray(res.history)
        assert np.all(np.diff(hist) <= 1e-12)


def test_solve_determinism():
    rng = np.random.default_rng(9)
    ws = WeightedSet(rng.random((30, 2)), rng.uniform(0.1, 1.0, 30))
    cfg = SolverConfig(k=3, restarts=4, seed=123)
    a = solve(ws, cfg)
    b = solve(ws, cfg)
    assert np.array_equal(a.centers.centers, b.centers.centers)
    assert a.weighted_risk == b.weighted_risk
    assert a.iterations == b.iterations


def test_solve_restarts_return_min():
    rng = np.random.default_rng(10)
    ws = WeightedSet(rng.random((25, 2)), np.full(25, 1 / 25))
    singles = [
        lloyd(
            ws, seed_dsquared(ws, 3, derive_rng(77, "restart", r)), SolverConfig(k=3)
        ).weighted_risk
        for r in range(5)
    ]
    combined = solve(ws, SolverConfig(k=3, restarts=5, seed=77))
    assert combined.weighted_risk == pytest.approx(min(singles), rel=1e-12)


def test_solve_matches_bruteforce_on_tiny_instances():
    # n=10, k=3, d=2, restarts=20: within 1e-9 of the optimum nearly always
    ok = 0
    trials = 100
    for t in range(trials):
        rng = np.random.default_rng(1000 + t)
        pts = rng.random((10, 2))
        ws = uniform_weighted(Dataset(pts))
        opt, _ = brute_force_kmeans(pts, np.full(10, 0.1), 3)
        res = solve(ws, SolverConfig(k=3, restarts=20, seed=t))
        assert res.weighted_risk >= opt - 1e-12
        if res.weighted_risk <= opt + 1e-9 * max(opt, 1.0):
            ok += 1
    assert ok >= 95


def test_solve_uniform_weights_match_empirical_risk():
    rng = np.random.default_rng(12)
    pts = rng.random((40, 3))
    data = Dataset(pts)
    res = solve(uniform_weighted(data), SolverConfig(k=4, restarts=2, seed=5))
    assert res.weighted_risk == pytest.approx(
        empirical_risk(data, res.centers), rel=1e-9
    )


def test_seeding_statistical_ceiling():
    # classical k-means++ guarantee: E[seed-only risk] <= 8(ln k + 2) OPT
    rng = np.random.default_rng(21)
    pts = rng.random((12, 2))
    k = 3
    ws = uniform_weighted(Dataset(pts))
    opt, _ = brute_force_kmeans(pts, np.full(12, 1 / 12), k)
    risks = []
    for seed in range(500):
        c = seed_dsquared(ws, k, np.random.default_rng(seed))
        risks.append(weighted_risk(ws, c))
    assert np.mean(risks) <= 8.0 * (math.log(k) + 2.0) * opt


def test_empty_cluster_repair_recovers_split():
    pts = np.array([[0.0], [0.1], [10.0], [10.1]])
    ws = uniform_weighted(Dataset(pts))
    # identical centers force every point into cluster 0 at first assignment
    res = lloyd(ws, Centers([[5.0], [5.0]]), SolverConfig(k=2, rel_tol=0.0))
    opt, _ = brute_force_kmeans(pts, np.full(4, 0.25), 2)
    assert res.weighted_risk == pytest.approx(opt, rel=1e-12)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(k=0)
    with pytest.raises(ValueError):
        SolverConfig(k=1, restarts=0)
    with pytest.raises(ValueError):
        SolverConfig(k=1, rel_tol=-1.0)
