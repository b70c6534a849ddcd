import numpy as np
import pytest

from tramkit import (
    Centers,
    CoresetParams,
    Dataset,
    EtaModel,
    SolverConfig,
    WeightedSet,
    bicriteria_init,
    build_coreset,
    empirical_risk,
    eta_bound,
    sensitivities,
    solve,
    weighted_risk,
)
from tramkit.rng import derive_rng

from oracles import brute_force_kmeans


def test_bicriteria_single_point():
    b = bicriteria_init(
        Dataset([[2.0, 3.0]]), CoresetParams(k=2, size=1), derive_rng(0, "bicriteria")
    )
    assert b.centers.k == 4  # BICRITERIA_FACTOR * k duplicated centers
    assert np.all(b.centers.centers == [2.0, 3.0])
    assert b.total_cost == 0.0


def test_bicriteria_exact_cover_has_zero_cost():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(4, 2))  # exactly factor*k distinct points
    b = bicriteria_init(
        Dataset(pts), CoresetParams(k=2, size=2), derive_rng(3, "bicriteria")
    )
    assert b.total_cost == pytest.approx(0.0, abs=1e-12)


def test_bicriteria_beats_single_centroid():
    rng = np.random.default_rng(1)
    centers = rng.uniform(0, 20, size=(4, 2))
    pts = centers[rng.integers(0, 4, 1000)] + rng.normal(0, 0.5, (1000, 2))
    data = Dataset(pts)
    b = bicriteria_init(data, CoresetParams(k=4, size=10), derive_rng(7, "bicriteria"))
    centroid_cost = empirical_risk(data, Centers(pts.mean(axis=0, keepdims=True)))
    assert b.total_cost <= centroid_cost * data.n
    assert b.total_cost == b.point_costs.sum()
    assert b.assignment.min() >= 0 and b.assignment.max() < b.centers.k


def test_sensitivities_identical_points():
    n = 8
    data = Dataset(np.ones((n, 2)))
    b = bicriteria_init(data, CoresetParams(k=2, size=2), derive_rng(0, "bicriteria"))
    sigma = sensitivities(data, b)
    assert np.allclose(sigma, 1.0 / n)


def test_sensitivities_singleton_cluster():
    # nine coincident points plus one isolated point that lands on its own
    # bicriteria center: the singleton's cluster term alone is 1
    pts = np.vstack([np.zeros((9, 2)), [[100.0, 0.0]]])
    data = Dataset(pts)
    b = bicriteria_init(data, CoresetParams(k=1, size=1), derive_rng(2, "bicriteria"))
    assert b.total_cost == pytest.approx(0.0, abs=1e-9)
    sigma = sensitivities(data, b)
    sizes = np.bincount(b.assignment, minlength=b.centers.k)
    singleton = b.assignment[9]
    assert sizes[singleton] == 1
    assert sigma[9] == pytest.approx(1.0)
    assert np.allclose(sigma[:9], 1.0 / 9.0)


def test_sensitivities_bounds_on_random_instance():
    rng = np.random.default_rng(4)
    data = Dataset(rng.normal(size=(60, 3)))
    b = bicriteria_init(data, CoresetParams(k=3, size=5), derive_rng(5, "bicriteria"))
    sigma = sensitivities(data, b)
    # independent recomputation from the bicriteria fields
    sizes = np.bincount(b.assignment, minlength=b.centers.k)
    for j in range(data.n):
        expected = b.point_costs[j] / b.total_cost + 1.0 / sizes[b.assignment[j]]
        assert sigma[j] == pytest.approx(expected, rel=1e-12)
    assert np.all(sigma >= 1.0 / data.n)
    assert sigma.sum() >= 1.0


def test_degenerate_coreset_is_exact():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(30, 2))
    data = Dataset(pts)
    ws = build_coreset(data, CoresetParams(k=3, size=30, seed=1))
    assert ws.size == data.n
    for trial in range(20):
        cs = Centers(rng.normal(size=(3, 2)))
        assert weighted_risk(ws, cs) == pytest.approx(
            empirical_risk(data, cs), rel=1e-12
        )


def test_unbiasedness_monte_carlo():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(50, 2)) * np.array([3.0, 1.0])
    data = Dataset(pts)
    cs = Centers(rng.normal(size=(3, 2)))
    target = empirical_risk(data, cs)
    draws = 2000
    vals = np.empty(draws)
    for t in range(draws):
        ws = build_coreset(data, CoresetParams(k=3, size=10, seed=t))
        vals[t] = weighted_risk(ws, cs)
    se = vals.std(ddof=1) / np.sqrt(draws)
    assert abs(vals.mean() - target) <= 2.0 * se


def test_weight_sum_expectation_is_one():
    rng = np.random.default_rng(12)
    data = Dataset(rng.normal(size=(40, 2)))
    draws = 2000
    sums = np.empty(draws)
    for t in range(draws):
        ws = build_coreset(data, CoresetParams(k=2, size=8, seed=t))
        sums[t] = ws.weights.sum()
    se = sums.std(ddof=1) / np.sqrt(draws)
    assert abs(sums.mean() - 1.0) <= 2.0 * se


def test_variance_reduction_with_outlier():
    rng = np.random.default_rng(13)
    pts = np.vstack([rng.normal(0, 1, (99, 2)), [[60.0, 60.0]]])
    data = Dataset(pts)
    cs = Centers([[0.0, 0.0], [10.0, 10.0]])
    draws, s = 2000, 12
    core_vals, unif_vals = np.empty(draws), np.empty(draws)
    for t in range(draws):
        ws = build_coreset(data, CoresetParams(k=2, size=s, seed=t))
        core_vals[t] = weighted_risk(ws, cs)
        g = derive_rng("uniform-draw", t)
        idx = g.choice(data.n, size=s, replace=False)
        unif = WeightedSet(pts[idx], np.full(s, 1.0 / s))
        unif_vals[t] = weighted_risk(unif, cs)
    assert core_vals.var() < unif_vals.var()


def test_sensitivities_reject_foreign_bicriteria():
    rng = np.random.default_rng(20)
    data = Dataset(rng.normal(size=(40, 2)))
    other = Dataset(rng.normal(size=(25, 2)))
    b = bicriteria_init(other, CoresetParams(k=2, size=5), derive_rng(0, "bicriteria"))
    with pytest.raises(ValueError):
        sensitivities(data, b)


def test_coreset_determinism():
    rng = np.random.default_rng(14)
    data = Dataset(rng.normal(size=(70, 2)))
    p = CoresetParams(k=3, size=15, seed=99)
    a, b = build_coreset(data, p), build_coreset(data, p)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.weights, b.weights)


def test_definition_style_solve_quality():
    # solving on a coreset of size n-2 stays within (1+1) x the exact
    # optimum of the truncation in at least 90% of seeded trials
    ok, trials = 0, 200
    for t in range(trials):
        rng = np.random.default_rng(3000 + t)
        n, k = 12, 2
        pts = rng.random((n, 2))
        data = Dataset(pts)
        opt, _ = brute_force_kmeans(pts, np.full(n, 1.0 / n), k)
        ws = build_coreset(data, CoresetParams(k=k, size=n - 2, seed=t))
        res = solve(ws, SolverConfig(k=k, restarts=5, seed=t))
        risk = empirical_risk(data, res.centers)
        if risk <= 2.0 * max(opt, 1e-15):
            ok += 1
    assert ok >= 0.9 * trials


def test_eta_bound_examples():
    m = EtaModel(A=1.0, d=5, k=4)
    assert eta_bound(4 * 5 * 4, m) == pytest.approx(1.0, rel=1e-12)
    assert eta_bound(10**6 * 20, m) < eta_bound(10**2 * 20, m)
    with pytest.raises(ValueError):
        eta_bound(5 * 4, m)


def test_eta_model_validation():
    with pytest.raises(ValueError):
        EtaModel(A=0.0, d=1, k=1)
