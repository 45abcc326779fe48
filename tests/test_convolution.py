import math

import pytest

from lprim.convolution import (
    approx_identity,
    conv_lq,
    conv_multiplier,
    incompatibility_exhibit,
    star,
)
from lprim.errors import ExponentError, LprimError
from lprim.expr import FunctionExpr
from lprim.lpspace import Multiplier, PrimitiveDistribution
from lprim.parser import parse_expr
from lprim.quadrature import lp_norm


def dist(src, p):
    return PrimitiveDistribution(parse_expr(src), p)


class TestReflect:
    def test_values_and_metadata(self):
        F = parse_expr("indicator(0,1)")
        R = F.affine(-1.0, 0.5)
        # F(0.5 - y) = chi_(0,1)(0.5 - y) = chi_(-0.5,0.5)(y)
        assert R.support == (-0.5, 0.5)
        import numpy as np

        ys = np.array([-0.4, 0.0, 0.4, 0.8])
        vals = R.values(ys)
        assert list(vals) == [1.0, 1.0, 1.0, 0.0]


class TestMultiplierProduct:
    def test_gaussian_oracle(self):
        # f = (e^{-x^2})', G with density g = e^{-x^2}:
        # (f*G)(x) = int e^{-(x-y)^2} e^{-y^2} dy = sqrt(pi/2) e^{-x^2/2}
        f = dist("exp(-x^2)", 2.0)
        G = Multiplier(parse_expr("exp(-x^2)"), 2.0)
        for x in (0.0, 1.0, -2.0):
            expected = math.sqrt(math.pi / 2) * math.exp(-x * x / 2)
            assert conv_multiplier(f, G, x) == pytest.approx(expected, abs=1e-10)

    def test_exponent_mismatch(self):
        f = dist("exp(-x^2)", 2.0)
        with pytest.raises(ExponentError):
            conv_multiplier(f, Multiplier(parse_expr("exp(-x^2)"), 3.0), 0.0)


class TestYoungProduct:
    def test_density_oracle_at_zero(self):
        # f = chi_(0,1)', g = -2x e^{-x^2}: density (f*g)(x) = g(x) - g(x-1)
        f = dist("indicator(0,1)", 1.0)
        g = parse_expr("-2*x*exp(-x^2)")
        res = conv_lq(f, g, 1.0, tol=1e-8)

        def gv(x):
            return -2 * x * math.exp(-x * x)

        for x in (0.0, 0.7, 1.5):
            assert res.density_at(x) == pytest.approx(gv(x) - gv(x - 1), abs=1e-7)

    def test_young_inequality(self):
        f = dist("indicator(0,1)", 1.0)
        g = parse_expr("exp(-abs(x))")
        res = conv_lq(f, g, 2.0, tol=1e-7)
        assert res.payload.norm <= res.diagnostics["young_bound"] + 1e-8
        tails = [t for (_, _, t) in res.diagnostics["cauchy_tail"]]
        assert tails[0] >= tails[1] >= tails[2]

    def test_bad_exponents_rejected(self):
        f = dist("indicator(0,1)", 3.0)
        with pytest.raises(ExponentError):
            conv_lq(f, parse_expr("exp(-x^2)"), 1.0)


    def test_exponential_tail_kept(self):
        # ||chi_(0,1) * e^{-|x|}||_1 = 2: the product's tails beyond the
        # sampled interval are integrated, not cut
        f = dist("indicator(0,1)", 1.0)
        res = conv_lq(f, parse_expr("exp(-abs(x))"), 1.0)
        assert abs(res.payload.norm - 2.0) <= 1e-8

    def test_jump_density_refused(self):
        # (chi_(0,1) * chi_(0,2))' jumps; the a.e. derivative of chi_(0,2)
        # would report density 0 at x = 0.5 where it is 1
        f = dist("indicator(0,1)", 1.0)
        res = conv_lq(f, parse_expr("indicator(0,2)"), 1.0)
        assert res.diagnostics["density"] is None
        with pytest.raises(LprimError):
            res.density_at(0.5)

    def test_work_count(self, monkeypatch):
        # one integral family per sampling pass, not one integral per point
        f = dist("indicator(0,1)", 1.0)
        g = parse_expr("exp(-x^2)")
        calls = []
        values = FunctionExpr.values

        def counted(self, xs):
            calls.append(1)
            return values(self, xs)

        monkeypatch.setattr(FunctionExpr, "values", counted)
        conv_lq(f, g, 2.0)
        assert len(calls) <= 200


class TestStarProduct:
    def test_oracle_value(self):
        # F = chi_(0,1), G = e^{-x^2}: (F*G)'s distribution; primitive at 0
        # is int_{-1}^{0} G = int e^{-t^2} chi over (-1,0)... checked via
        # density: (f star g) has density int F(x-y) g'(y) dy
        f = dist("indicator(0,1)", 1.0)
        g = dist("exp(-x^2)", 1.0)
        res = star(f, g)
        # density(0) = int chi_(0,1)(-y) (-2y e^{-y^2}) dy = 1 - e^{-1}
        assert res.density_at(0.0) == pytest.approx(1 - math.exp(-1), abs=1e-8)

    def test_continuous_factor_density(self):
        # the tent is continuous, so f star g has density F * G' = G(x) - G(x-1)
        f = dist("indicator(0,1)", 1.0)
        g = dist("indicator(-1,1)*(1-abs(x))", 1.0)
        res = star(f, g)

        def tent(x):
            return max(0.0, 1.0 - abs(x))

        for x in (-0.5, 0.25, 0.5, 1.5):
            assert res.density_at(x) == pytest.approx(tent(x) - tent(x - 1.0), abs=1e-8)

    def test_commutative(self):
        f = dist("indicator(0,1)", 1.0)
        g = dist("exp(-x^2)", 1.0)
        a = star(f, g).payload
        b = star(g, f).payload
        assert lp_norm(a.F - b.F, 1.0) == pytest.approx(0.0, abs=1e-8)

    def test_banach_algebra_bound(self):
        f = dist("indicator(0,1)", 1.0)
        g = dist("exp(-x^2)", 1.0)
        res = star(f, g)
        assert res.payload.norm <= res.diagnostics["algebra_bound"] + 1e-8

    def test_needs_p1(self):
        with pytest.raises(ExponentError):
            star(dist("exp(-x^2)", 2.0), dist("indicator(0,1)", 1.0))


class TestApproxIdentity:
    def test_errors_decrease(self):
        F = parse_expr("indicator(0,1)")
        g = parse_expr("exp(-x^2)")
        errs = approx_identity(F, g, [1.0, 0.5, 0.25], p=2.0, tol=1e-7)
        assert errs[0] > errs[1] > errs[2]


class TestIncompatibility:
    def test_products_differ(self):
        fg, fsg, gap = incompatibility_exhibit()
        assert gap > 0.1
