import tracemalloc

import numpy as np
import pytest

from tramkit import (
    Centers,
    Dataset,
    WeightedSet,
    empirical_risk,
    uniform_weighted,
    weighted_risk,
)
from tramkit.core import _BLOCK_ROWS, assign_nearest, min_sq_dists

from oracles import nearest_center_per_center

B = _BLOCK_ROWS


def test_empirical_risk_two_points():
    data = Dataset([[0.0, 0.0], [2.0, 0.0]])
    assert empirical_risk(data, Centers([[1.0, 0.0]])) == 1.0


def test_empirical_risk_identity():
    assert empirical_risk(Dataset([[0.0]]), Centers([[0.0]])) == 0.0


def test_empirical_risk_1d_mean():
    data = Dataset([[0.0], [1.0], [2.0]])
    assert empirical_risk(data, Centers([[1.0]])) == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_empty_dataset_rejected():
    with pytest.raises(ValueError):
        Dataset(np.empty((0, 2)))


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        Dataset([[0.0, np.nan]])
    with pytest.raises(ValueError):
        Centers([[np.inf]])


def test_weighted_risk_uniform_matches_empirical():
    ws = WeightedSet([[0.0], [2.0]], [0.5, 0.5])
    assert weighted_risk(ws, Centers([[1.0]])) == 1.0


def test_weighted_risk_ignores_zero_weight():
    ws = WeightedSet([[0.0], [2.0]], [1.0, 0.0])
    assert weighted_risk(ws, Centers([[0.0]])) == 0.0


def test_weighted_risk_against_scalar_recomputation():
    # independent oracle: plain python loop over points and centers
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(6, 2))
    w = rng.uniform(0.1, 2.0, size=6)
    cs = rng.normal(size=(3, 2))
    expected = 0.0
    for j in range(6):
        best = min(sum((pts[j][t] - c[t]) ** 2 for t in range(2)) for c in cs)
        expected += w[j] * best
    got = weighted_risk(WeightedSet(pts, w), Centers(cs))
    assert got == pytest.approx(expected, rel=1e-12)


def test_weight_validation():
    with pytest.raises(ValueError):
        WeightedSet([[0.0], [1.0]], [0.0, 0.0])
    with pytest.raises(ValueError):
        WeightedSet([[0.0], [1.0]], [1.0, -0.1])
    with pytest.raises(ValueError):
        WeightedSet([[0.0], [1.0]], [1.0])
    with pytest.raises(ValueError, match="weights contain non-finite values"):
        WeightedSet([[0.0], [1.0]], [1.0, np.inf])


def test_dataset_reads_a_1d_array_as_points_in_r1():
    # n points in R^1, where min_sq_dists reads a 1-D array as one point
    data = Dataset([0.0, 1.0, 4.0])
    assert data.points.shape == (3, 1) and (data.n, data.d) == (3, 1)
    assert empirical_risk(data, Centers([[1.0]])) == pytest.approx(10.0 / 3.0, rel=1e-15)
    assert min_sq_dists(np.array([0.0, 1.0, 4.0]), np.zeros((1, 3))).shape == (1,)


def test_centers_and_weighted_set_report_their_dimension():
    # a 1-D array is centers in R^1 here too
    assert (Centers([[0.0, 1.0, 2.0]]).d, Centers([0.0, 1.0]).d) == (3, 1)
    ws = WeightedSet(np.zeros((4, 5)), np.ones(4))
    assert (ws.size, ws.d) == (4, 5)


def test_weighted_set_requires_weights():
    # a missing weights argument is a call error, not a shape complaint
    with pytest.raises(TypeError):
        WeightedSet([[0.0], [1.0]])


def test_uniform_weighting_equivalence():
    rng = np.random.default_rng(3)
    for trial in range(20):
        n = int(rng.integers(1, 40))
        pts = rng.normal(size=(n, 3))
        cs = Centers(rng.normal(size=(4, 3)))
        data = Dataset(pts)
        assert weighted_risk(uniform_weighted(data), cs) == pytest.approx(
            empirical_risk(data, cs), rel=1e-12
        )


def test_adding_a_center_never_increases_risk():
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(30, 2))
    data = Dataset(pts)
    base = rng.normal(size=(3, 2))
    extra = np.vstack([base, rng.normal(size=(1, 2))])
    assert empirical_risk(data, Centers(extra)) <= empirical_risk(data, Centers(base))
    x = rng.normal(size=(5, 2))
    assert np.all(min_sq_dists(x, extra) <= min_sq_dists(x, base))


def test_translation_equivariance():
    rng = np.random.default_rng(13)
    pts = rng.normal(size=(25, 3))
    cs = rng.normal(size=(4, 3))
    shift = rng.normal(size=3) * 10
    r0 = empirical_risk(Dataset(pts), Centers(cs))
    r1 = empirical_risk(Dataset(pts + shift), Centers(cs + shift))
    assert r1 == pytest.approx(r0, rel=1e-9)
    w = rng.uniform(0.1, 1.0, size=25)
    w0 = weighted_risk(WeightedSet(pts, w), Centers(cs))
    w1 = weighted_risk(WeightedSet(pts + shift, w), Centers(cs + shift))
    assert w1 == pytest.approx(w0, rel=1e-9)


def test_types_are_immutable():
    data = Dataset([[1.0, 2.0]])
    with pytest.raises(ValueError):
        data.points[0, 0] = 5.0


def test_bound_radius_defaults_to_max_norm():
    data = Dataset([[3.0, 4.0], [0.0, 1.0]])
    assert data.bound_radius() == pytest.approx(5.0)


@pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 10_000])
@pytest.mark.parametrize("d", [1, 10])
def test_bound_radius_equals_the_whole_array_formula(n, d):
    x = np.random.default_rng(n + d).normal(3.0, 50.0, size=(n, d))
    assert Dataset(x).bound_radius() == float(np.sqrt((x**2).sum(axis=1).max()))


def test_bound_radius_scans_one_block_at_a_time():
    d = 10
    data = Dataset(np.random.default_rng(4).normal(size=(12 * B, d)))
    data.bound_radius()
    tracemalloc.start()
    try:
        data.bound_radius()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one block of squares and its row sums, plus small objects; the
    # squares of every point would take 12 blocks
    assert peak <= B * (d + 1) * 8 + 4096


def test_prefix_and_subset():
    data = Dataset([[0.0], [1.0], [2.0]])
    assert data.prefix(2).n == 2
    assert np.array_equal(data.subset([2, 0]).points.ravel(), [2.0, 0.0])
    with pytest.raises(ValueError):
        data.prefix(4)
    with pytest.raises(ValueError):
        data.subset(np.array([], dtype=np.intp))
    # a mask would gather rows 0 and 1, not select the true ones
    with pytest.raises(ValueError):
        data.subset(np.array([True, False, True]))


def test_dataset_leaves_caller_array_writable_and_unshared():
    a = np.ones((3, 2))
    w = np.full(3, 1.0 / 3)
    data = Dataset(a)
    WeightedSet(a, w)
    assert a.flags.writeable and w.flags.writeable
    a[0, 0] = 5.0
    assert data.points[0, 0] == 1.0
    # a read-only view of a writable base is copied too
    base, wbase = np.ones((3, 2)), np.full(3, 1.0 / 3)
    view, wview = base[:], wbase[:]
    view.setflags(write=False)
    wview.setflags(write=False)
    ws = WeightedSet(view, wview)
    held = [Dataset(view).points, Centers(view).centers, ws.points, ws.weights]
    want = [x.copy() for x in held]
    base[0, 0] = 5.0
    wbase[0] = 5.0
    assert all(np.array_equal(x, y) for x, y in zip(held, want))


def test_prefix_shares_memory():
    data = Dataset(np.arange(12.0).reshape(6, 2))
    part = data.prefix(4)
    assert np.shares_memory(part.points, data.points)
    assert not part.points.flags.writeable


def _assert_matches_oracle(pts, cs):
    want_labels, want_d2 = nearest_center_per_center(pts, cs)
    labels, d2 = assign_nearest(pts, cs)
    assert np.array_equal(labels, want_labels)
    assert np.array_equal(d2, want_d2)
    assert np.array_equal(min_sq_dists(pts, cs), want_d2)
    return labels, d2


@pytest.mark.parametrize("k", [1, 2, 10, 20])
@pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 3 * B + 7])
def test_kernel_matches_per_center_oracle(n, k):
    rng = np.random.default_rng(1000 * k + n)
    pts = rng.uniform(0, 100, size=(n, 5))
    cs = rng.uniform(0, 100, size=(k, 5))
    _assert_matches_oracle(pts, cs)


def test_kernel_coinciding_points_give_exact_zero():
    rng = np.random.default_rng(21)
    cs = rng.normal(size=(10, 4)) * 50
    pts = np.vstack([rng.normal(size=(B, 4)) * 50, cs, cs[::-1]])
    labels, d2 = _assert_matches_oracle(pts, cs)
    assert np.all(d2[B:] == 0.0)
    assert np.array_equal(labels[B:], np.r_[np.arange(10), np.arange(10)[::-1]])


def test_kernel_equidistant_centers_lowest_index_wins():
    # every point of an integer lattice against integer centers: many
    # exact ties, each of which the lowest center index must win
    g = np.arange(-4.0, 5.0)
    pts = np.stack(np.meshgrid(g, g, g), axis=-1).reshape(-1, 3)
    cs = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [2, 2, 0]], float)
    labels, _ = _assert_matches_oracle(pts, cs)
    origin = np.flatnonzero((pts == 0).all(axis=1))[0]
    assert labels[origin] == 0


def test_kernel_duplicate_centers_pick_first_copy():
    rng = np.random.default_rng(22)
    base = rng.normal(size=(4, 3))
    cs = np.vstack([base, base[2], base[0]])
    labels, _ = _assert_matches_oracle(rng.normal(size=(B + 3, 3)), cs)
    assert labels.max() <= 3


@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_kernel_near_ties_follow_explicit_differences(offset):
    # points a hair off the bisector of two centers, where the GEMM scores'
    # rounding exceeds the true gap and only explicit differences rank right
    rng = np.random.default_rng(23)
    pts = rng.normal(size=(B + 11, 6)) * 50
    pts[:, 0] = rng.uniform(-1e-9, 1e-9, size=B + 11)
    cs = np.zeros((3, 6))
    cs[0, 0], cs[1, 0], cs[2, 0] = -1.0, 1.0, 1e3
    _assert_matches_oracle(pts + offset, cs + offset)


def test_kernel_large_offsets_unit_spread():
    rng = np.random.default_rng(23)
    pts = 1e6 + rng.normal(size=(B + 11, 6))
    cs = 1e6 + rng.normal(size=(10, 6))
    _, d2 = _assert_matches_oracle(pts, cs)
    assert np.all(d2 < 100.0)


def test_kernel_one_dimensional_input():
    rng = np.random.default_rng(24)
    cs = rng.normal(size=(7, 1))
    _assert_matches_oracle(rng.normal(size=(B + 5, 1)), cs)
    # a 1-D array is a single point
    x = rng.normal(size=3)
    cs3 = rng.normal(size=(5, 3))
    labels, d2 = _assert_matches_oracle(x, cs3)
    assert labels.shape == d2.shape == (1,)


def test_kernel_result_does_not_depend_on_memory_layout():
    rng = np.random.default_rng(25)
    pts = rng.normal(size=(B + 9, 10)) * 30
    cs = rng.normal(size=(10, 10)) * 30
    labels, d2 = assign_nearest(np.asfortranarray(pts), cs)
    want_labels, want_d2 = nearest_center_per_center(pts, cs)
    assert np.array_equal(labels, want_labels)
    assert np.array_equal(d2, want_d2)


@pytest.mark.parametrize("kernel", [assign_nearest, min_sq_dists])
def test_kernel_rejects_empty_centers(kernel):
    pts = np.random.default_rng(26).normal(size=(5, 3))
    with pytest.raises(ValueError, match="non-empty"):
        kernel(pts, np.empty((0, 3)))
