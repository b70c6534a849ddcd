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


def test_stable_seed_numpy_integers_match_python_ints():
    for cast in (np.int64, np.int32, np.uint8, np.intp):
        assert stable_seed(cast(1), "a", cast(7)) == stable_seed(1, "a", 7)


def test_stable_seed_python_int_stream_is_pinned():
    assert stable_seed(0, "restart", 1) == 625221052342883666
