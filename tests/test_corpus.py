import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from lprim import lpspace, quadrature
from lprim.corpus import _cantor_values, cantor_primitive
from lprim.expr import Call, FunctionExpr, combine
from lprim.parser import parse_expr
from lprim.quadrature import cantor_moments, integrate_line, lp_norm

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


# -- the self-similar rule ----------------------------------------------------

K, N = quadrature._SS_NODES - 1, quadrature._SS_TERMS - 1  # the moments the rule uses
# integral over [0, 1] of u^i sigma(u)^j for i + j <= 2: sigma's symmetry gives
# 1/2, the second moment 3/8 of the Cantor measure gives (1 - 3/8)/2 = 5/16,
# and the self-similarity gives 3/10
LOW = {(0, 0): Fraction(1), (1, 0): Fraction(1, 2), (2, 0): Fraction(1, 3),
       (0, 1): Fraction(1, 2), (1, 1): Fraction(5, 16), (0, 2): Fraction(3, 10)}


def level_sum_moments(K, N, L=10):
    """(m, bound): m[k][n], the integral over [0, 1] of t^k sigma^n, by a
    level sum, and a bound on its error; both exact rationals.

    sigma is constant on the middle thirds removed at levels 1..L, where
    t^k integrates in closed form.  On each of the 2^L cells left,
    [X/3^L, (X + 1)/3^L] with sigma = (C + sigma(u))/2^L, the terms of
    t^k sigma^n of order at most 2 in (3^-L u, 2^-L sigma(u)) take the
    integrals LOW, and the rest, bounded with u, sigma(u) <= 1, is the
    bound.  Every sum over cells or gaps is a sum of integers."""
    cells = [(0, 0)]  # (X, C) at the current level
    m = [[Fraction(0)] * (N + 1) for _ in range(K + 1)]
    for level in range(1, L + 1):
        gaps = [(3 * X + 1, 2 * C + 1) for X, C in cells]  # left end * 3^level, sigma * 2^level
        for k in range(K + 1):
            ints = [(a + 1) ** (k + 1) - a ** (k + 1) for a, _ in gaps]
            for n in range(N + 1):
                total = sum(i * g ** n for i, (_, g) in zip(ints, gaps))
                m[k][n] += Fraction(total, (k + 1) * 3 ** (level * (k + 1)) * 2 ** (level * n))
        cells = [(3 * X + d, 2 * C + (d > 0)) for X, C in cells for d in (0, 2)]
    bound = [[Fraction(0)] * (N + 1) for _ in range(K + 1)]
    for k in range(K + 1):
        for n in range(N + 1):
            scale = 3 ** (L * k) * 2 ** (L * n)
            low = [(i, j) for i, j in LOW if i <= k and j <= n]
            terms = [sum(math.comb(k, i) * math.comb(n, j) * X ** (k - i) * C ** (n - j)
                         for X, C in cells) for i, j in low]
            m[k][n] += Fraction(sum(t * LOW[i, j] for t, (i, j) in zip(terms, low)),
                                scale * 3 ** L)
            # the whole expansion at u = sigma(u) = 1, less its low terms (times 3^-L)
            whole = sum((X + 1) ** k * (C + 1) ** n for X, C in cells)
            bound[k][n] = Fraction(whole - sum(terms), scale * 3 ** L)
    return m, bound


def centred(rows):
    """Moments of t^k turned into moments of v^k, v = 2t - 1."""
    return [[sum(math.comb(k, i) * 2 ** i * (-1) ** (k - i) * rows[i][n] for i in range(k + 1))
             for n in range(len(rows[0]))] for k in range(len(rows))]


class TestCantorMoments:
    def test_closed_forms(self):
        M = cantor_moments(K, N)
        assert M[0, 0] == 1.0
        assert M[0, 1] == pytest.approx(0.5, abs=1e-15)  # integral of sigma
        assert 0.5 * (M[1, 1] + M[0, 1]) == pytest.approx(5 / 16, abs=1e-15)  # of t sigma
        assert M[0, 2] == pytest.approx(0.3, abs=1e-15)  # of sigma^2
        for k in range(K + 1):  # sigma^0: the integral of v^k over [0, 1]
            assert M[k, 0] == pytest.approx((1 + (-1) ** k) / (2 * (k + 1)), abs=1e-15)

    def test_against_level_sum(self):
        m, bound = level_sum_moments(K, N)
        with mpmath.workdps(30):
            want = [[mpmath.mpf(x.numerator) / x.denominator for x in row] for row in centred(m)]
            # centred's sums with every sign taken positive bound its error
            slack = [[sum(math.comb(k, i) * 2 ** i * bound[i][n] for i in range(k + 1))
                      for n in range(N + 1)] for k in range(K + 1)]
            slack = [[mpmath.mpf(x.numerator) / x.denominator for x in row] for row in slack]
            M = cantor_moments(K, N)
            for k in range(K + 1):
                for n in range(N + 1):
                    assert abs(M[k, n] - want[k][n]) <= slack[k][n] + 2e-15, (k, n)
        # the level sum is tight where it matters: low orders are exact
        assert slack[0][1] == slack[1][1] == slack[0][2] == 0


# the multiplier densities of the benchmark pool; each is >= 0 on [0, 1]
DENSITIES = {
    "gauss": "exp(-x^2)",
    "expabs": "exp(-abs(x))",
    "box_m1_2": "indicator(-1,2)",
    "lorentz": "(x^2+1)^(-1)",
    "cosgauss": "cos(x)*exp(-x^2)",
    "xgauss": "x*exp(-x^2)",
}
_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)


def cantor_bracket(weight, power, level=16):
    """Bounds on the integral over [0, 1] of weight(x) sigma(x)^power, as
    the benchmark's oracle makes them: the removed middle thirds of levels
    1..level summed by 8-point Gauss-Legendre, and sigma between its values
    at the ends of each interval left.  ``weight`` must be >= 0 on [0, 1]."""
    lefts, total = np.zeros(1), 0.0
    for k in range(1, level + 1):
        width = 3.0 ** -k
        xs = (lefts + width)[:, None] + 0.5 * width * (_GL_X + 1.0)
        sig = (np.arange(lefts.size) + 0.5) / lefts.size
        total += math.fsum((sig ** power * 0.5 * width * (weight(xs) @ _GL_W)).tolist())
        lefts = np.stack([lefts, lefts + 2.0 * width], axis=1).ravel()
    width = 3.0 ** -level
    part = 0.5 * width * (weight(lefts[:, None] + 0.5 * width * (_GL_X + 1.0)) @ _GL_W)
    idx = np.arange(lefts.size)
    return (total + math.fsum(((idx / lefts.size) ** power * part).tolist()),
            total + math.fsum((((idx + 1) / lefts.size) ** power * part).tolist()))


def assert_bracketed(value, err_est, lo, hi):
    assert lo <= value <= hi
    assert abs(value - 0.5 * (lo + hi)) <= err_est + 0.5 * (hi - lo)


class TestCantorAnswers:
    """Every Cantor norm and pool pairing against the bracket oracle."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_norm(self, p):
        F = cantor_primitive().expr
        lo, hi = cantor_bracket(lambda x: np.exp(-p * x * x), p)
        tail = 0.5 * math.sqrt(math.pi / p) * math.erfc(math.sqrt(p))  # over (1, oo)
        res = integrate_line(abs(F) if p == 1.0 else abs(F).power(p))
        assert res.converged
        assert_bracketed(res.value, res.err_est, lo + tail, hi + tail)
        norm = lpspace.PrimitiveDistribution(F, p).norm
        assert (lo + tail) ** (1 / p) <= norm <= (hi + tail) ** (1 / p)

    @pytest.mark.parametrize("name", sorted(DENSITIES))
    def test_pairing(self, name):
        F, g = cantor_primitive().expr, parse_expr(DENSITIES[name])
        lo, hi = cantor_bracket(lambda x: np.exp(-x * x) * g.values(x), 1.0)
        upper = 2.0 if name == "box_m1_2" else math.inf
        tail = quad(lambda x: math.exp(-x * x) * g(x), 1.0, upper, epsabs=1e-15, epsrel=1e-13)[0]
        res = integrate_line(F * g)
        assert res.converged
        assert_bracketed(res.value, res.err_est, lo + tail, hi + tail)
        pair = lpspace.pair(lpspace.PrimitiveDistribution(F, 2.0), lpspace.Multiplier(g, 2.0))
        assert -(hi + tail) <= pair <= -(lo + tail)


@pytest.fixture
def rule_calls(monkeypatch):
    """The self-similar rule's calls, recorded as they happen."""
    calls = []
    rule = quadrature._self_similar

    def counted(*args):
        calls.append(args)
        return rule(*args)

    monkeypatch.setattr(quadrature, "_self_similar", counted)
    return calls


def jumps(level):
    """The ends of the cells of depth ``level``, where sigma cut after
    ``level`` digits jumps to its midpoint values."""
    lefts = np.zeros(1)
    for k in range(1, level + 1):
        lefts = np.concatenate([lefts, lefts + 2.0 * 3.0 ** -k])
    return tuple(np.concatenate([lefts, lefts + 3.0 ** -level]))


class TestCantorFallback:
    """Where the rule does not apply, Gauss-Kronrod answers, and both agree."""

    @pytest.mark.parametrize("level", range(1, 7))
    def test_levels(self, level, rule_calls):
        # Gauss-Kronrod needs sigma's jumps as cuts: without them it misses
        # by up to 3e-6 at levels 5 and 6
        F = cantor_primitive(level).expr
        for p in (1.0, 1.5):
            by_rule = lp_norm(F, p)
            assert len(rule_calls) == 1
            by_gk = lp_norm(F, p, extra_splits=jumps(level))
            assert len(rule_calls) == 1
            assert by_rule == pytest.approx(by_gk, rel=1e-8)
            rule_calls.clear()

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_affine_copy_and_inner_cut(self, p, rule_calls):
        F = cantor_primitive().expr
        by_rule = lp_norm(F, p)
        assert len(rule_calls) == 1
        shifted = F.affine(1.0, -0.25)
        assert shifted.similar is None and shifted.kinks == (0.25, 1.25)
        assert lp_norm(shifted, p) == pytest.approx(by_rule, rel=1e-8)
        assert lp_norm(F, p, extra_splits=(0.5,)) == pytest.approx(by_rule, rel=1e-8)
        assert len(rule_calls) == 1


class TestSimilarMetadata:
    def test_degrees(self):
        F = cantor_primitive().expr
        r, sigma = F.similar
        assert r == 1.0 and sigma.cantor_level == 52
        g = parse_expr("exp(-x^2)")
        assert g.similar == (0.0, None)
        assert abs(F).power(1.5).similar == (1.5, sigma)
        assert (F * g).similar == (1.0, sigma)
        assert (F * F).similar == (2.0, sigma)
        assert (-F).similar == (1.0, sigma)
        assert (F.power(2.0) * (g * F.power(-1.0))).similar == (1.0, sigma)
        assert combine(Call("sgn", F.root), F).similar == (0.0, sigma)  # sgn(F) = 1 on (0, 1]

    def test_no_degree(self):
        F, g = cantor_primitive().expr, parse_expr("exp(-x^2)")
        assert (F + g).similar is None  # a mixed degree
        assert (F * cantor_primitive().expr).similar is None  # two Cantor nodes
        assert (F * F.affine(1.0, 0.5)).similar is None
        assert parse_expr("exp(-x^2)").affine(1.0, 3.0).similar == (0.0, None)


class TestCantorWork:
    """Evaluation counts do not depend on the machine: each benchmark
    Cantor request stays far below the million points of Gauss-Kronrod."""

    @pytest.fixture
    def points(self, monkeypatch):
        count = [0]
        values = FunctionExpr.values

        def counted(self, xs):
            count[0] += np.size(xs)
            return values(self, xs)

        monkeypatch.setattr(FunctionExpr, "values", counted)
        return count

    def test_norm(self, points):
        assert lpspace.PrimitiveDistribution(cantor_primitive().expr, 1.5).norm > 0.0
        assert points[0] <= 20_000

    def test_pairing(self, points):
        f = lpspace.PrimitiveDistribution(cantor_primitive().expr, 2.0)
        assert lpspace.pair(f, lpspace.Multiplier(parse_expr("exp(-x^2)"), 2.0)) < 0.0
        assert points[0] <= 20_000
