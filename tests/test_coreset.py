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

from oracles import brute_force_kmeans, near_score_bound, nearest_center_per_center


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


def _bicriteria_cases():
    gen = np.random.default_rng(35)
    means = gen.uniform(0, 100, size=(6, 3))
    pts = means[gen.integers(0, 6, size=5000)] + 3.0 * gen.normal(size=(5000, 3))
    few = np.repeat(np.array([[0.0, 1.0], [3.0, 3.0], [-2.0, 5.0]]), 1500, axis=0)
    # integer coordinates: many points equidistant from two centers
    lattice = np.indices((70, 70)).reshape(2, -1).T.astype(float)
    unit = gen.normal(size=(5000, 3))
    # x, next to the midpoint of a and c, is closer to c by the einsums,
    # although |c - a|^2 / 4 rounds to more than |x - a|^2: a triangle
    # inequality bound needs its rounding margin here
    a = [0.6661037295833403, 2.316294035093577, 1.8916991661263431,
         1.3347469514350123, 1.5299734501953228, 2.948281103707867,
         0.9445886215634766, 1.0048647575909548, 2.3018484079483956]
    c = [3.187344188669577, 0.9383350849081329, 1.034660340607715,
         0.6188875812349226, 0.6480054443342677, -0.06653128384803852,
         0.24556354677612124, 0.2220852635858076, 2.0491824903742746]
    x = [1.9267239591264587, 1.6273145600008554, 1.4631797533670297,
         0.9768172663349678, 1.0889894472647956, 1.4408749099299134,
         0.5950760841697991, 0.6134750105883812, 2.1755154491613355]
    near_midpoint = np.array([c, x] + [a] * 4094)
    # from 4,096 points, and from 18,000 distance evaluations (points times
    # the 11 draws after the first), each D^2 step screens points by a
    # float32 score centred on the first draw
    score_at = 1637
    cases = {
        "mixture": (pts, 6),
        "below_screen_size": (pts[:4095], 6),
        "at_screen_size": (pts[:4096], 6),
        "offset_1e8": (pts + 1e8, 6),
        "scale_1e-20": (pts * 1e-20, 6),
        # squared distances in float32's subnormal range
        "scale_1e-23": (pts * 1e-23, 6),
        "scale_1e-160": (pts * 1e-160, 6),
        "duplicated_points": (np.repeat(pts[:500], 10, axis=0), 6),
        "fewer_distinct_points_than_2k": (few, 4),
        "integer_lattice_ties": (lattice, 6),
        "integer_lattice_ties_below_screen_size": (lattice[:4095], 6),
        "rounding_at_the_screen_bound": (near_midpoint, 1),
        "rounding_at_the_score_bound": (near_score_bound(4096), 1),
        "below_score_size": (pts[: score_at - 1], 6),
        "at_score_size": (pts[:score_at], 6),
        "scored_offset_1e8": (pts[:2000] + 1e8, 6),
        "scored_scale_1e-20": (pts[:2000] * 1e-20, 6),
        "scored_scale_1e-23": (pts[:2000] * 1e-23, 6),
        "scored_scale_1e-160": (pts[:2000] * 1e-160, 6),
        # centred squared norms past float32's range: every point is
        # evaluated at every step
        "centred_norms_past_float32": (pts[:2000] * 1e19, 6),
        "norms_past_1e300": (pts[:2000] * 1e149, 6),
        # the guard trips past the first block: one (n, d) difference buffer
        "centred_norms_past_float32_after_one_block": (np.vstack([pts[:4096], pts[4096:] * 1e19]), 6),
    }
    # data far from the origin, at unit spread: the score is centred, so it
    # still screens
    for offset in (1e6, 1e7, 1e8):
        for n in (2000, 5000):
            cases[f"unit_spread_offset_{offset:.0e}_{n}"] = (unit[:n] + offset, 6)
    return cases


@pytest.mark.parametrize("case", list(_bicriteria_cases()))
def test_bicriteria_equals_nearest_center_oracle_bit_for_bit(case):
    pts, k = _bicriteria_cases()[case]
    for seed in range(3):
        b = bicriteria_init(Dataset(pts), CoresetParams(k=k, size=10), derive_rng(seed, "b"))
        labels, d2 = nearest_center_per_center(pts, b.centers.centers)
        assert np.array_equal(b.assignment, labels)
        assert np.array_equal(b.point_costs, d2)
        assert b.total_cost == float(d2.sum())


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


def test_coreset_weights_make_the_risk_unbiased_property():
    # the exact expectation over one draw: point i is drawn with probability
    # q_i and weighs 1 / (s q_i n), so s * sum_i q_i w_i d2_i must be the
    # empirical risk, at any centers, up to rounding
    pytest.importorskip("hypothesis")
    import math

    from hypothesis import given, settings
    from hypothesis import strategies as st
    from hypothesis.extra.numpy import arrays

    coord = st.floats(-100.0, 100.0, allow_nan=False)

    @settings(max_examples=60, deadline=None)
    @given(
        st.tuples(st.integers(2, 40), st.integers(1, 3), st.integers(1, 4)).flatmap(
            lambda ndk: st.tuples(
                arrays(np.float64, ndk[:2], elements=coord),
                arrays(np.float64, (ndk[2], ndk[1]), elements=coord),
                st.integers(1, ndk[0] - 1),
            )
        ),
        st.integers(0, 2**32 - 1),
    )
    def unbiased(pcs, seed):
        pts, centers, s = pcs
        data = Dataset(pts)
        n = data.n
        p = CoresetParams(k=centers.shape[0], size=s, seed=seed)
        # build_coreset's own bicriteria stream, so its weights are these
        sigma = sensitivities(data, bicriteria_init(data, p, derive_rng(seed, "coreset")))
        q = sigma / sigma.sum()
        w = 1.0 / (s * q * n)
        d2 = nearest_center_per_center(pts, centers)[1]
        risk = empirical_risk(data, Centers(centers))
        assert math.isclose(s * float(np.sum(q * w * d2)), risk, rel_tol=1e-12)
        weight_at = {row.tobytes(): wi for row, wi in zip(data.points, w)}
        ws = build_coreset(data, p)
        assert all(weight_at[row.tobytes()] == wi for row, wi in zip(ws.points, ws.weights))

    unbiased()


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


@pytest.mark.parametrize(
    "k, size, message",
    [(0, 10, "k must be >= 1"), (2, 0, "size must be >= 1")],
    ids=["k", "size"],
)
def test_coreset_params_validation(k, size, message):
    with pytest.raises(ValueError, match=message):
        CoresetParams(k=k, size=size)


def test_eta_model_validation():
    with pytest.raises(ValueError):
        EtaModel(A=0.0, d=1, k=1)
    for d, k in ((0, 1), (1, 0)):
        with pytest.raises(ValueError, match="d and k must be positive integers"):
            EtaModel(d=d, k=k)
