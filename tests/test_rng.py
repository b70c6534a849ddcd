import numpy as np

from tramkit.rng import mass_pick, stable_seed


class _TopDraw:
    """Generator stub whose uniform draw is the largest double below 1."""

    def random(self):
        return np.nextafter(1.0, 0.0)


def test_mass_pick_top_draw_stays_in_range():
    mass = np.random.default_rng(0).uniform(size=1000)
    mass[-3:] = 0.0
    # the sequential cumsum ends below the pairwise sum: scaling the draw
    # by the latter used to step past the last index
    assert np.cumsum(mass)[-1] < mass.sum()
    idx = mass_pick(mass, _TopDraw())
    assert 0 <= idx < mass.shape[0]
    assert mass[idx] > 0


def test_mass_pick_subnormal_total_stays_in_range():
    # one unit of the smallest subnormal: every draw of at least 1/2
    # rounds the scaled draw up to the total, which used to return index 3
    mass = np.array([0.0, 2.0**-1074, 0.0])
    for seed in range(20):
        assert mass_pick(mass, np.random.default_rng(seed)) == 1


def test_mass_pick_without_mass_takes_no_draw():
    rng, twin = np.random.default_rng(5), np.random.default_rng(5)
    assert mass_pick(np.zeros(4), rng) is None
    assert rng.random() == twin.random()


def test_stable_seed_numpy_integers_match_python_ints():
    for cast in (np.int64, np.int32, np.uint8, np.intp):
        assert stable_seed(cast(1), "a", cast(7)) == stable_seed(1, "a", 7)


def test_stable_seed_python_int_stream_is_pinned():
    assert stable_seed(0, "restart", 1) == 625221052342883666
