import math

import numpy as np
import pytest

from lprim.errors import ConvergenceError, ExponentError
from lprim.higher import (
    IteratedMultiplier,
    NthDistribution,
    intermediate_identity_check,
    norm_comparison_example,
    pair_n,
    pair_polynomial,
)
from lprim.parser import parse_expr
from lprim.quadrature import DEFAULT_CONFIG, QuadConfig


class TestIteratedMultiplier:
    def test_first_iterate_is_primitive(self):
        # g = chi_(0,1): G_1(x) = min(max(x,0),1) for x >= 0
        mult = IteratedMultiplier(parse_expr("indicator(0,1)"), math.inf, 2)
        G1 = mult.iterate(1)
        assert G1(0.5) == pytest.approx(0.5, abs=1e-10)
        assert G1(3.0) == pytest.approx(1.0, abs=1e-10)
        assert G1(-1.0) == pytest.approx(0.0, abs=1e-10)

    def test_second_iterate_cauchy_formula(self):
        # G_2(x) = int_0^x (x-t) g(t) dt; for g = chi_(0,1) and x >= 1:
        # G_2(x) = x - 1/2
        mult = IteratedMultiplier(parse_expr("indicator(0,1)"), math.inf, 2)
        G2 = mult.iterate(2)
        assert G2(2.0) == pytest.approx(1.5, abs=1e-9)
        assert G2(0.5) == pytest.approx(0.125, abs=1e-9)
        # g vanishes on (-1, 0)
        assert G2(-1.0) == pytest.approx(0.0, abs=1e-12)

    def test_iterates_of_two_sided_exponential(self):
        # g = e^{-|x|}: closed forms of G_1, G_2, G_3 on both sides of 0
        mult = IteratedMultiplier(parse_expr("exp(-abs(x))"), 2.0, 3)
        xs = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
        a, s, e = np.abs(xs), np.sign(xs), np.exp(-np.abs(xs))
        closed = {1: s * (1.0 - e), 2: a - 1.0 + e, 3: s * (0.5 * xs**2 - a + 1.0 - e)}
        for k, want in closed.items():
            np.testing.assert_allclose(mult.iterate(k)(xs), want, rtol=0.0, atol=1e-12)


class TestPairN:
    def test_order_one_matches_first_order_pairing(self):
        F = parse_expr("exp(-x^2)")
        g = parse_expr("exp(-abs(x))")
        fn = NthDistribution(F, 2.0, 1)
        # order-1 n-th pairing reduces to (-1) int F g
        assert pair_n(fn, _NthMult(g, 2.0, 1)) == pytest.approx(
            -_int_line(F * g), abs=1e-10
        )

    def test_sign_alternates_with_order(self):
        F = parse_expr("exp(-x^2)")
        g = parse_expr("exp(-x^2)")
        v1 = pair_n(NthDistribution(F, 2.0, 1), _NthMult(g, 2.0, 1))
        v2 = pair_n(NthDistribution(F, 2.0, 2), _NthMult(g, 2.0, 2))
        assert v1 == pytest.approx(-v2, abs=1e-10)

    def test_holder_analogue(self):
        F = parse_expr("exp(-x^2)")
        g = parse_expr("indicator(-2,2)")
        f = NthDistribution(F, 2.0, 2)
        G = _NthMult(g, 2.0, 2)
        assert abs(pair_n(f, G)) <= f.norm * G.norm + 1e-8

    def test_order_mismatch_rejected(self):
        F = parse_expr("exp(-x^2)")
        with pytest.raises(ExponentError):
            pair_n(NthDistribution(F, 2.0, 2), _NthMult(F, 2.0, 3))


class TestPolynomials:
    def test_low_degree_annihilated(self):
        f = NthDistribution(parse_expr("exp(-x^2)"), 2.0, 3)
        assert pair_polynomial(f, [1.0, -2.0, 0.5]) == 0.0

    def test_high_degree_rejected(self):
        f = NthDistribution(parse_expr("exp(-x^2)"), 2.0, 2)
        with pytest.raises(ExponentError):
            pair_polynomial(f, [0.0, 0.0, 1.0])

    def test_polynomial_shift_invariance(self):
        # adding an annihilated polynomial to the multiplier's base point
        # data cannot change the pairing: compare g against g plus the
        # derivative-of-order-n of a degree (n-1) polynomial, which is zero
        F = parse_expr("exp(-x^2)")
        g = parse_expr("exp(-x^2)")
        f = NthDistribution(F, 2.0, 2)
        base = pair_n(f, _NthMult(g, 2.0, 2))
        again = pair_n(f, _NthMult(g, 2.0, 2)) + pair_polynomial(f, [3.0, -1.0])
        assert again == pytest.approx(base, abs=1e-8)


class TestIntermediateIdentity:
    @pytest.mark.parametrize("n,m", [(2, 1), (3, 2), (3, 0)])
    def test_identity_holds(self, n, m):
        F = parse_expr("exp(-x^2)")
        g = parse_expr("exp(-x^2)")
        lhs, rhs = intermediate_identity_check(F, g, n, m)
        assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_m_range_enforced(self):
        with pytest.raises(ExponentError):
            intermediate_identity_check(
                parse_expr("exp(-x^2)"), parse_expr("exp(-x^2)"), 2, 3
            )


class TestNormComparison:
    @pytest.mark.parametrize("m", [1, 10])
    def test_norm_collapse(self, m):
        l1, alexiewicz = norm_comparison_example(m)
        assert l1 == pytest.approx(4.0, abs=1e-8)
        assert alexiewicz == pytest.approx(2.0 / m, abs=1e-8)


def _int_line(e):
    from lprim.quadrature import integrate_line

    return integrate_line(e).value


def _NthMult(g, q, order):
    return IteratedMultiplier(g, q, order)


class TestLazyNorm:
    def test_norm_integrated_on_first_read_only(self, norm_calls):
        f = NthDistribution(parse_expr("exp(-x^2)"), 2.0, 3)
        assert norm_calls == []
        first = f.norm
        assert f.norm == first == pytest.approx((math.pi / 2) ** 0.25, abs=1e-10)
        assert norm_calls == [DEFAULT_CONFIG]

    def test_norm_uses_the_given_configuration(self, norm_calls):
        cfg = QuadConfig(abs_tol=1e-7, rel_tol=1e-7)
        f = NthDistribution(parse_expr("indicator(0,1)"), 2.0, 1, cfg=cfg)
        assert f.norm == pytest.approx(1.0, abs=1e-7)
        assert norm_calls == [cfg]

    def test_given_norm_taken_as_is(self, norm_calls):
        assert NthDistribution(parse_expr("exp(-x^2)"), 2.0, 2, 1.5).norm == 1.5
        assert NthDistribution(parse_expr("exp(-x^2)"), 2.0, 2, norm=1.0).norm == 1.0
        assert norm_calls == []

    def test_order_checked_and_membership_on_read(self):
        with pytest.raises(ExponentError):
            NthDistribution(parse_expr("exp(-x^2)"), 2.0, 0)
        f = NthDistribution(parse_expr("1+0*x"), 1.0, 2)
        with pytest.raises(ConvergenceError):
            f.norm
