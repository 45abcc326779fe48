import numpy as np
import pytest

from lprim.corpus import _cantor_values

LEVELS = (1, 2, 3, 7, 8, 9, 16, 52)


def exact_cantor(x, level):
    """sigma(x) from the exact ternary digits of the double x, cut after
    ``level`` digits as the library cuts them: the first digit 1 at place j
    ends the sum with 2^-j; with no digit 1 the midpoint value is taken."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    num, den = float(x).as_integer_ratio()
    total = 0.0  # a sum of distinct powers of 2 down to 2^-53: exact
    for j in range(1, level + 1):
        num *= 3
        d, num = divmod(num, den)
        if d:
            total += 2.0 ** -j
        if d == 1:
            return total
    return total + 2.0 ** -(level + 1)


def near_cantor_set(rng, count):
    """Points of the Cantor set (30 digits 0 or 2) moved by up to 3^-k."""
    digits = 2.0 * rng.integers(0, 2, size=(count, 30))
    points = digits @ 3.0 ** -np.arange(1, 31)
    k = rng.integers(1, 34, size=count)
    return np.clip(points + rng.uniform(-1.0, 1.0, count) * 3.0 ** -k, 1e-300, 1.0 - 2**-53)


def sample_points():
    rng = np.random.default_rng(20121208)
    special = [0.25, 0.75, 1.0 / 3.0, 2.0 / 3.0]
    ulps = [np.nextafter(v, d) for v in special for d in (0.0, 1.0)]
    return np.concatenate([special, ulps, rng.random(10_000), near_cantor_set(rng, 2_000)])


class TestCantorValues:
    def test_exact_outside_unit_interval(self):
        xs = np.array([-np.inf, -3.0, -1e-300, 0.0, 1.0, 1.0 + 2**-52, 7.5, np.inf])
        for level in LEVELS:
            got = _cantor_values(xs, level)
            assert got.tolist() == [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0]

    @pytest.mark.parametrize("level", LEVELS)
    def test_matches_exact_digits(self, level):
        xs = sample_points()
        want = np.array([exact_cantor(x, level) for x in xs])
        assert np.abs(_cantor_values(xs, level) - want).max() <= 1e-10

    def test_shape_kept(self):
        xs = np.linspace(-0.5, 1.5, 12).reshape(3, 4)
        assert _cantor_values(xs, 52).shape == (3, 4)
        assert _cantor_values(np.float64(0.25), 52).shape == ()
