import math
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

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
import tramkit.solver as solver_module
from tramkit.core import _BLOCK_ROWS, assign_nearest
from tramkit.data import SyntheticSpec, gen_synthetic
from tramkit.rng import derive_rng
from tramkit.solver import _LLOYD_SCREEN_MIN, _reassign

from oracles import (
    brute_force_kmeans,
    dsquared_reference,
    lloyd_reference,
    near_score_bound,
    nearest_center_per_center,
    solve_reference,
)


def test_seeding_single_point():
    ws = WeightedSet([[5.0, 5.0]], [1.0])
    c = seed_dsquared(ws, 1, np.random.default_rng(0))
    assert np.array_equal(c.centers, [[5.0, 5.0]])


def test_seeding_needs_a_center():
    ws = WeightedSet([[5.0, 5.0]], [1.0])
    with pytest.raises(ValueError, match="k must be >= 1"):
        seed_dsquared(ws, 0, np.random.default_rng(0))


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


@pytest.mark.parametrize("seed", [0, 1])
def test_seeding_overflowing_masses_raise(seed):
    # the squared distances overflow to inf, and so does the D^2 cdf
    ws = WeightedSet([[0.0], [1e200], [3e200]], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="overflow"):
        seed_dsquared(ws, 3, np.random.default_rng(seed))


def test_all_zero_weights_rejected():
    with pytest.raises(ValueError):
        WeightedSet([[0.0], [1.0]], [0.0, 0.0])


def test_lloyd_moves_to_weighted_mean():
    ws = uniform_weighted(Dataset([[0.0], [2.0]]))
    res = lloyd(ws, Centers([[5.0]]), SolverConfig(k=1))
    assert res.centers.centers[0, 0] == pytest.approx(1.0)
    assert res.weighted_risk == pytest.approx(1.0)


def test_lloyd_rejects_centers_of_another_dimension():
    ws = uniform_weighted(Dataset([[0.0, 1.0], [2.0, 3.0]]))
    with pytest.raises(ValueError, match="dimension mismatch: 2 != 3"):
        lloyd(ws, Centers([[0.0, 1.0, 2.0]]), SolverConfig(k=1))


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


def test_lloyd_risk_history_never_increases_property():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st
    from hypothesis.extra.numpy import arrays

    coord = st.floats(-100.0, 100.0, allow_nan=False)
    weight = st.floats(0.0, 10.0, allow_nan=False)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 40).flatmap(
            lambda n: st.tuples(
                arrays(np.float64, (n, 2), elements=coord),
                arrays(np.float64, n, elements=weight).filter(lambda w: w.max() > 0),
            )
        ),
        st.integers(1, 5),
        st.integers(0, 2**32 - 1),
    )
    def never_increases(pw, k, seed):
        ws = WeightedSet(*pw)
        init = seed_dsquared(ws, k, np.random.default_rng(seed))
        res = lloyd(ws, init, SolverConfig(k=k, rel_tol=0.0, max_iters=30))
        hist = np.asarray(res.history)
        # a rise only by rounding: a mean of n values is off by about
        # n eps |x|, which moves the risk by a few n d eps of total weight
        # times the largest squared coordinate
        scale = ws.weights.sum() * np.abs(ws.points).max() ** 2
        assert np.all(np.diff(hist) <= 1e-12 * scale)

    never_increases()


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


def test_empty_cluster_repair_scores_against_live_centers_only():
    # ties go to the first copy of 10, so the second wins no point. Its row
    # then holds a zero centroid sum, which must not count as a center at
    # the origin: the farthest point from the live centers 6.73 and 20.1
    # is 0, not 10.2
    pts = np.array([[0.0], [10.0], [10.2], [20.0], [20.2]])
    init = np.array([[10.0], [10.0], [20.0]])
    ws = WeightedSet(pts, np.full(5, 0.2))
    res = lloyd(ws, Centers(init), SolverConfig(k=3, max_iters=1))
    assert res.centers.centers[1, 0] == 0.0
    assert res.weighted_risk == pytest.approx(4.5418, abs=1e-4)
    centers, history, _, repairs = lloyd_reference(pts, ws.weights, init, 1, 1e-4)
    assert repairs == 1
    assert np.array_equal(res.centers.centers, centers)
    assert res.history == history


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(k=0)
    with pytest.raises(ValueError):
        SolverConfig(k=1, restarts=0)
    for rel_tol in (-1.0, math.nan):
        with pytest.raises(ValueError, match="rel_tol must be >= 0"):
            SolverConfig(k=1, rel_tol=rel_tol)
    # inf stops after one iteration
    ws = uniform_weighted(Dataset([[0.0], [1.0], [9.0], [10.0]]))
    assert lloyd(ws, Centers([[0.0], [1.0]]), SolverConfig(k=2, rel_tol=math.inf)).iterations == 1
    with pytest.raises(ValueError, match="max_iters must be >= 1"):
        SolverConfig(k=1, max_iters=0)


def _mixture(seed, n, d, k_true, spread=3.0):
    rng = np.random.default_rng(seed)
    means = rng.uniform(0, 100, size=(k_true, d))
    return means[rng.integers(0, k_true, size=n)] + spread * rng.normal(size=(n, d))


def _lloyd_cases():
    # (points, weights, initial centers, rel_tol, max_iters); all but n_1
    # and one_below_screen_size reach the size from which Lloyd screens
    # points by their bounds
    n = 3 * _BLOCK_ROWS + 7
    pts = _mixture(31, n, 6, 8)
    uniform = np.full(n, 1.0 / n)
    w = np.random.default_rng(32).exponential(size=n)
    w[::5] = 0.0
    init = pts[[0, 1, 2, 3, 4, 5, 6, 7]]
    # the second copy of a duplicated center and one far from every point
    # win no point at the first assignment
    dup = np.vstack([pts[:3], pts[:2], pts[3:5] + 1e3])
    tiny = np.array([[2.0, -1.0]])
    fixture = gen_synthetic(SyntheticSpec(n=12_000, d=10, k_true=10, seed=27)).data.points
    # every point three times, and centers on points, two of them twice:
    # exact ties between duplicated centers
    twice = np.repeat(pts[: n // 3], 3, axis=0)
    on_points = twice[[0, 0, 3, 6, 9, 9, 12, 15]]
    below, at = _LLOYD_SCREEN_MIN - 1, _LLOYD_SCREEN_MIN
    return {
        "mixture": (pts, uniform, init, 1e-6, 25),
        "fixture_like_to_convergence": (fixture, np.ones(len(fixture)), fixture[30:40], 0.0, 100),
        "weights_with_zeros": (pts, w, init, 0.0, 25),
        "empty_cluster_repair": (pts, w, dup, 0.0, 25),
        "duplicated_points_and_centers": (twice, np.ones(len(twice)), on_points, 0.0, 25),
        "offset_1e6": (pts + 1e6, w, init + 1e6, 0.0, 25),
        "offset_1e8": (pts + 1e8, w, init + 1e8, 0.0, 25),
        "one_below_screen_size": (pts[:below], w[:below], init, 0.0, 25),
        "at_screen_size": (pts[:at], w[:at], init, 0.0, 25),
        "k_1": (pts, uniform, pts[:1], 0.0, 25),
        "n_1": (tiny, np.ones(1), np.vstack([tiny, tiny + 1.0]), 0.0, 25),
        "fortran_ordered": (np.asfortranarray(pts), uniform, init, 0.0, 25),
    }


_REPAIRING_CASES = ("empty_cluster_repair", "duplicated_points_and_centers", "n_1")


@pytest.mark.parametrize("case", list(_lloyd_cases()))
def test_lloyd_equals_per_center_reference_bit_for_bit(case):
    pts, w, init, rel_tol, max_iters = _lloyd_cases()[case]
    ws = WeightedSet(pts, w)
    # every layout is copied to C order
    assert ws.points.flags.c_contiguous
    cfg = SolverConfig(k=init.shape[0], max_iters=max_iters, rel_tol=rel_tol)
    res = lloyd(ws, Centers(init), cfg)
    centers, history, iterations, repairs = lloyd_reference(pts, w, init, max_iters, rel_tol)
    assert res.history == history
    assert res.iterations == iterations
    assert np.array_equal(res.centers.centers, centers)
    assert (repairs > 0) == (case in _REPAIRING_CASES)
    if case == "fixture_like_to_convergence":
        assert iterations >= 60


def _count_passes(monkeypatch, n):
    """The kinds of the assignment passes Lloyd makes over n points, in
    order: "full" for a kernel call on every point, "screened" for a
    bound-screened reassignment."""
    passes = []
    kernel, reassign = solver_module.assign_nearest, solver_module._reassign

    def counted_kernel(points, *args, **kwargs):
        if len(points) == n:
            passes.append("full")
        return kernel(points, *args, **kwargs)

    def counted_reassign(*args):
        passes.append("screened")
        return reassign(*args)

    monkeypatch.setattr(solver_module, "assign_nearest", counted_kernel)
    monkeypatch.setattr(solver_module, "_reassign", counted_reassign)
    return passes


def _four_far_clusters(n):
    # one center per cluster: the first update moves each to its cluster's
    # mean, and no label changes after that
    corners = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0], [100.0, 100.0]])
    return corners[np.arange(n) % 4] + np.random.default_rng(n).normal(size=(n, 2))


@pytest.mark.parametrize("case", ["plain", "screened", "to_convergence"])
def test_lloyd_records_the_iteration_after_labels_freeze_without_running_it(monkeypatch, case):
    if case == "to_convergence":
        # the labels freeze after 77 iterations, in a screened pass
        pts, w, init, rel_tol, max_iters = _lloyd_cases()["fixture_like_to_convergence"]
    else:
        pts = _four_far_clusters(100 if case == "plain" else _LLOYD_SCREEN_MIN)
        w, init, rel_tol, max_iters = np.ones(len(pts)), pts[:4], 1e-4, 100
    passes = _count_passes(monkeypatch, len(pts))
    res = lloyd(WeightedSet(pts, w), Centers(init), SolverConfig(k=len(init), max_iters=max_iters, rel_tol=rel_tol))
    centers, history, iterations, _ = lloyd_reference(pts, w, init, max_iters, rel_tol)
    assert (res.iterations, res.history) == (iterations, history)
    assert np.array_equal(res.centers.centers, centers)
    assert history[-1] == history[-2]
    # one pass for the initial centers and one per iteration run: the last
    # iteration, which only repeats the one before, is not run
    assert len(passes) == iterations
    if case == "to_convergence":
        assert iterations > 2 and passes[-1] == "screened"
    else:
        assert iterations == 2


def test_lockstep_restarts_skip_the_repeated_iteration(monkeypatch):
    pts = _four_far_clusters(200)
    ws = WeightedSet(pts, np.ones(len(pts)))
    cfg = SolverConfig(k=4, restarts=3, rel_tol=1e-4, seed=2)
    passes = _count_passes(monkeypatch, len(pts))
    res = solve(ws, cfg)
    centers, risk, iterations, history = solve_reference(ws, cfg)
    assert (res.weighted_risk, res.iterations, res.history) == (risk, iterations, history)
    assert np.array_equal(res.centers.centers, centers)
    # every restart seeds one center per cluster and freezes in its first
    # iteration: one grouped pass for the seeds and one for that iteration
    assert iterations == 2
    assert passes == ["full", "full"]


def test_solve_runs_restarts_in_lockstep_below_the_lloyd_screen(monkeypatch):
    # 2,000 points: no Lloyd screen, so the first kernel pass ranks the
    # three restarts' seeds together
    pts = _mixture(37, 2000, 4, 6)
    groups = []
    kernel = solver_module.assign_nearest

    def counted_kernel(points, *args, _groups=None, **kwargs):
        groups.append(_groups)
        return kernel(points, *args, _groups=_groups, **kwargs)

    monkeypatch.setattr(solver_module, "assign_nearest", counted_kernel)
    solve(WeightedSet(pts, np.ones(len(pts))), SolverConfig(k=6, restarts=3, rel_tol=1e-4, seed=1))
    assert groups[0] == 3


def _below_exactly(value):
    """The largest double at most the exact rational `value`."""
    x = float(value)
    return x if Fraction(x) <= value else float(np.nextafter(x, -np.inf))


def _line_instance(offset):
    """1-D points and centers at `offset`; in one dimension every distance
    is the exact rational |x - c|."""
    gen = np.random.default_rng(70)
    line = np.concatenate([[1.0, 0.625, 3.0, 3.0], gen.uniform(-1.0, 6.0, 200)])
    return line[:, None] + offset, np.array([[0.0], [1.25], [2.5], [5.0]]) + offset


def _assert_bounds_hold(pts, centers, labels, lb):
    for x, a, bound in zip(pts[:, 0], labels, lb):
        for j, c in enumerate(centers[:, 0]):
            if j != a:
                assert Fraction(bound) <= abs(Fraction(x) - Fraction(c))


@pytest.mark.parametrize("offset", [0.0, 2.0**20])
def test_kernel_bounds_stay_below_every_other_distance(offset):
    # far from the origin the scores' rounding is large against the
    # distances, and only the margin keeps the bounds valid
    pts, centers = _line_instance(offset)
    lb = np.empty(len(pts))
    labels, _ = assign_nearest(pts, centers, _lb=lb)
    assert lb.max() > 0
    _assert_bounds_hold(pts, centers, labels, lb)


@pytest.mark.parametrize("move", [(0, 2.0**-60), (2, 0.75)])
def test_screened_step_keeps_labels_and_bounds(move):
    # every bound starts at the exact distance to the nearest other
    # center, as tight as a valid bound can be. Moving center 0 by 2^-60
    # toward the point at 1.0 leaves that point's bound 1.0 within half a
    # unit in the last place of its new distance, so only rounding the
    # bound down keeps it valid; moving center 2 by 0.75 changes labels.
    pts, before = _line_instance(0.0)
    after = before.copy()
    after[move[0], 0] += move[1]
    labels, d2 = nearest_center_per_center(pts, before)
    lb = np.array(
        [
            _below_exactly(min(abs(Fraction(x) - Fraction(c)) for j, c in enumerate(before[:, 0]) if j != a))
            for x, a in zip(pts[:, 0], labels)
        ]
    )
    old_labels = labels.copy()
    _, changed = _reassign(pts, np.abs(pts[:, 0]), after, before, labels, d2, lb)
    want_labels, want_d2 = nearest_center_per_center(pts, after)
    assert changed == (not np.array_equal(old_labels, want_labels))
    assert np.array_equal(labels, want_labels)
    assert np.array_equal(d2, want_d2)
    _assert_bounds_hold(pts, after, labels, lb)


def _solve_cases(n):
    """(points, weights, config) per case, for n summary points."""
    pts = _mixture(35, n, 4, 6)
    w = np.random.default_rng(36).exponential(size=n)
    w[::5] = 0.0
    uniform = np.ones(n)
    # seven centers among three distinct points: every restart duplicates
    few = np.repeat(np.array([[0.0, 1.0], [3.0, 3.0], [-2.0, 5.0]]), [n // 3, n // 3, n - 2 * (n // 3)], axis=0)
    # a and b lie 2^-537 apart, so each one's squared distance to the other
    # is the smallest subnormal; times b's weight 0.3 it rounds to 0, times
    # a's weight 1 it does not. A restart that draws a before b runs out of
    # D^2 mass one center short and duplicates one, which Lloyd must then
    # repair; one that draws b first ends on a and repairs nothing.
    far = np.repeat(np.array([[10.0, 0.0], [0.0, 10.0], [-10.0, 0.0], [0.0, -10.0]]), (n - 2) // 4 + 1, axis=0)
    pair = np.vstack([[[0.0, 0.0], [2.0**-537, 0.0]], far[: n - 2]])
    pair_w = np.ones(n)
    pair_w[1] = 0.3
    cfg = SolverConfig
    return {
        "restarts_1": (pts, uniform, cfg(k=8, restarts=1, rel_tol=0.0, max_iters=40, seed=1)),
        "restarts_2": (pts, uniform, cfg(k=8, restarts=2, rel_tol=1e-4, seed=2)),
        "restarts_5": (pts, uniform, cfg(k=8, restarts=5, rel_tol=0.0, max_iters=40, seed=3)),
        "restarts_5_stop_apart": (pts, uniform, cfg(k=8, restarts=5, rel_tol=1e-4, seed=4)),
        "zero_weights": (pts, w, cfg(k=8, restarts=5, rel_tol=1e-4, seed=5)),
        "one_restart_repairs": (pair, pair_w, cfg(k=6, restarts=5, rel_tol=0.0, max_iters=5, seed=0)),
        "fewer_distinct_points_than_k": (few, uniform, cfg(k=7, restarts=3, rel_tol=0.0, max_iters=5, seed=6)),
        "k_1": (pts, w, cfg(k=1, restarts=5, seed=7)),
        "max_iters_1": (pts, w, cfg(k=8, restarts=5, max_iters=1, seed=8)),
    }


def _restart_runs(pts, w, cfg):
    """(iterations, repairs) of each restart, from the oracles."""
    runs = []
    for r in range(cfg.restarts):
        chosen = dsquared_reference(pts, w, cfg.k, derive_rng(cfg.seed, "restart", r))
        _, _, iterations, repairs = lloyd_reference(pts, w, pts[chosen], cfg.max_iters, cfg.rel_tol)
        runs.append((iterations, repairs))
    return runs


@pytest.mark.parametrize("n", [1023, 1024, _LLOYD_SCREEN_MIN - 1, _LLOYD_SCREEN_MIN])
@pytest.mark.parametrize("case", list(_solve_cases(10)))
def test_solve_equals_reference_bit_for_bit(case, n):
    # below the Lloyd screen's switch several restarts run in lockstep,
    # from it one by one
    pts, w, cfg = _solve_cases(n)[case]
    ws = WeightedSet(pts, w)
    res = solve(ws, cfg)
    centers, risk, iterations, history = solve_reference(ws, cfg)
    assert np.array_equal(res.centers.centers, centers)
    assert res.weighted_risk == risk
    assert res.iterations == iterations
    assert res.history == history
    runs = _restart_runs(ws.points, ws.weights, cfg)
    stops, repairs = {it for it, _ in runs}, [rep > 0 for _, rep in runs]
    if case == "restarts_5_stop_apart":
        assert len(stops) > 1
    if case == "one_restart_repairs":
        assert any(repairs) and not all(repairs)
    if case == "fewer_distinct_points_than_k":
        assert all(repairs)


@pytest.mark.parametrize("n", [2000, _LLOYD_SCREEN_MIN - 1, _LLOYD_SCREEN_MIN])
def test_solve_seeds_every_restart_through_seed_dsquared(monkeypatch, n):
    # one public seeding per restart on both sides of the Lloyd switch, so
    # a tracer that wraps seed_dsquared sees every one. At 2,000 points and
    # k = 10 each seeding is score-screened (18,000 distance evaluations)
    ws = uniform_weighted(Dataset(_mixture(70, n, 5, 10)))
    cfg = SolverConfig(k=10, restarts=3, max_iters=20, rel_tol=0.0, seed=9)
    calls = []

    def counting(*args):
        calls.append(args)
        return seed_dsquared(*args)

    monkeypatch.setattr(solver_module, "seed_dsquared", counting)
    res = solve(ws, cfg)
    assert len(calls) == cfg.restarts
    # below the switch Lloyd runs the restarts in lockstep: the best of
    # them equals the best of the restarts run alone, bit for bit
    runs = [
        lloyd(ws, seed_dsquared(ws, cfg.k, derive_rng(cfg.seed, "restart", r)), cfg)
        for r in range(cfg.restarts)
    ]
    best = min(runs, key=lambda run: run.weighted_risk)
    assert len({run.history for run in runs}) == cfg.restarts
    assert np.array_equal(res.centers.centers, best.centers.centers)
    assert res.weighted_risk == best.weighted_risk
    assert res.iterations == best.iterations
    assert res.history == best.history


def _seeding_cases():
    # from 4,096 points, and from 18,000 distance evaluations (points times
    # the draws after the first), each D^2 step screens points by a float32
    # score centred on the first draw
    pts = _mixture(33, 5000, 4, 6)
    w = np.random.default_rng(34).uniform(size=5000)
    w[::3] = 0.0
    few = np.repeat(np.array([[0.0, 1.0], [3.0, 3.0], [-2.0, 5.0]]), [4, 1, 6], axis=0)
    many_few = np.repeat(few, 500, axis=0)
    # integer coordinates: exact distances, many points equidistant from
    # two chosen centers
    lattice = np.indices((70, 70)).reshape(2, -1).T.astype(float)
    unit = np.random.default_rng(36).normal(size=(5000, 4))
    below, at = 4095, 4096
    score_at = 1637  # 11 draws after the first
    cases = {
        "mixture": (pts, np.full(5000, 1.0 / 5000), 12),
        "zero_weights": (pts, w, 12),
        "fewer_distinct_points_than_k": (few, np.ones(len(few)), 7),
        "fortran_ordered": (np.asfortranarray(pts), w, 12),
        "offset_1e6": (pts + 1e6, w, 12),
        "offset_1e8": (pts + 1e8, w, 12),
        "scale_1e-20": (pts * 1e-20, w, 12),
        # squared distances in float32's subnormal range
        "scale_1e-23": (pts * 1e-23, w, 12),
        "scale_1e-160": (pts * 1e-160, w, 12),
        "duplicated_points": (np.repeat(pts[:500], 10, axis=0), w, 12),
        "fewer_distinct_points_than_k_screened": (many_few, np.ones(len(many_few)), 7),
        "integer_lattice_ties": (lattice, np.ones(len(lattice)), 12),
        "one_below_screen_size": (pts[:below], w[:below], 12),
        "at_screen_size": (pts[:at], w[:at], 12),
        "one_below_score_size": (pts[: score_at - 1], w[: score_at - 1], 12),
        "at_score_size": (pts[:score_at], w[:score_at], 12),
        "scored_offset_1e8": (pts[:2000] + 1e8, w[:2000], 12),
        "scored_scale_1e-20": (pts[:2000] * 1e-20, w[:2000], 12),
        "scored_scale_1e-23": (pts[:2000] * 1e-23, w[:2000], 12),
        "scored_scale_1e-160": (pts[:2000] * 1e-160, w[:2000], 12),
        "scored_duplicated_points": (np.repeat(pts[:200], 10, axis=0), w[:2000], 12),
        "scored_integer_lattice_ties": (lattice[:2000], np.ones(2000), 12),
        "scored_fewer_distinct_points_than_k": (many_few[:3500], np.ones(3500), 7),
        # centred squared norms past float32's range: every point is
        # evaluated at every step
        "centred_norms_past_float32": (pts[:2000] * 1e19, w[:2000], 12),
        "norms_past_1e300": (pts[:2000] * 1e149, w[:2000], 12),
        # the guard trips past the first block: one (n, d) difference buffer
        "centred_norms_past_float32_after_one_block": (np.vstack([pts[:at], pts[at:] * 1e19]), w, 12),
        "rounding_at_the_score_bound": (near_score_bound(4096), np.ones(4096), 3),
    }
    # data far from the origin, at unit spread: the score is centred, so it
    # still screens
    for offset in (1e6, 1e7, 1e8):
        for n in (2000, 5000):
            cases[f"unit_spread_offset_{offset:.0e}_{n}"] = (unit[:n] + offset, w[:n], 12)
    return cases


@pytest.mark.parametrize("case", list(_seeding_cases()))
def test_seed_dsquared_picks_the_reference_indices(case):
    pts, w, k = _seeding_cases()[case]
    ws = WeightedSet(pts, w)
    for seed in range(20):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        chosen = dsquared_reference(pts, w, k, ref_rng)
        assert np.array_equal(seed_dsquared(ws, k, rng).centers, pts[chosen])
        assert w[chosen].min() > 0
        # both consumed the same number of draws
        assert rng.random() == ref_rng.random()


def _layout_split_instance():
    """Points, weights and a seed whose second D^2 draw, in a loop that sums
    in the caller's layout, picks differently for the same values in C and
    Fortran order; None where the two layouts sum alike.

    Point 1's squared distance to point 0 differs in the last bit between
    the layouts. Point 2 lies at distance exactly 1, and its weight puts
    the second draw between the two values; point 0's weight makes it the
    first draw.
    """
    gen = np.random.default_rng(60)
    for _ in range(50):
        pts = np.zeros((3, 10))
        pts[1] = gen.normal(size=10) * 10
        pts[2, 0] = 1.0
        d2 = {}
        for order in "CF":
            diff = np.asarray(pts, order=order) - pts[0]
            d2[order] = np.einsum("ij,ij->i", diff, diff)[1]
        if d2["C"] != d2["F"]:
            break
    else:
        return None
    for seed in range(100):
        rng = np.random.default_rng(seed)
        u0, u1 = rng.random(), rng.random()
        if u0 >= 0.5:
            continue
        b = d2["C"] * (1 - u1) / u1
        for _ in range(64):
            picks = {
                o: np.searchsorted(np.cumsum([0.0, a, b]), u1 * (a + b), side="right")
                for o, a in d2.items()
            }
            if picks["C"] != picks["F"]:
                return pts, np.array([4 * (1 + b), 1.0, b]), seed
            b = np.nextafter(b, np.inf if picks["C"] == 2 else -np.inf)
    return None


def test_seed_dsquared_does_not_depend_on_memory_layout():
    instance = _layout_split_instance()
    if instance is None:
        pytest.skip("einsum sums C and Fortran rows alike here")
    pts, w, seed = instance
    got = [
        seed_dsquared(WeightedSet(layout(pts), w), 2, np.random.default_rng(seed)).centers
        for layout in (np.ascontiguousarray, np.asfortranarray)
    ]
    assert np.array_equal(got[0], got[1])


def test_kernel_and_solve_are_thread_safe():
    # per-call scratch: concurrent calls on different inputs must each get
    # the serial result, which shared buffers would mix up. The last two
    # inputs are below the size from which solve runs its restarts one by
    # one, so their restarts share grouped kernel calls.
    inputs = []
    for i, n in enumerate([2 * _BLOCK_ROWS + 3] * 4 + [_LLOYD_SCREEN_MIN - 1] * 2):
        pts = _mixture(40 + i, n, 5, 6)
        cs = _mixture(50 + i, 6, 5, 6)
        inputs.append((pts, cs, uniform_weighted(Dataset(pts))))
    cfg = SolverConfig(k=6, max_iters=15, rel_tol=0.0, restarts=2)

    def work(i):
        pts, cs, ws = inputs[i]
        labels, d2 = assign_nearest(pts, cs)
        res = solve(ws, cfg)
        return labels, d2, res.centers.centers, res.history

    serial = [work(i) for i in range(len(inputs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(work, i % len(inputs)) for i in range(3 * len(inputs))]
            results = [f.result(timeout=300) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for i, got in enumerate(results):
        want = serial[i % len(inputs)]
        for a, b in zip(got[:3], want[:3]):
            assert np.array_equal(a, b)
        assert got[3] == want[3]
