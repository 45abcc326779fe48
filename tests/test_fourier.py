import cmath
import math
import random

import pytest

from lprim.convolution import conv_lq
from lprim.errors import ExponentError, IntegrabilityError
from lprim.fourier import (
    ComplexValue,
    dfhat_vs_hatdf_exhibit,
    exchange_identity,
    fourier,
    fourier_n,
    fourier_primitive,
    inner_product,
    parseval_check,
    translation_modulation,
)
from lprim.higher import NthDistribution
from lprim.lpspace import PrimitiveDistribution
from lprim.parser import parse_expr


def dist(src, p):
    return PrimitiveDistribution(parse_expr(src), p)


class TestPrimitiveTransform:
    def test_gaussian_oracle(self):
        F = parse_expr("exp(-x^2)")
        for s in (0.0, 1.0, 3.0, -2.0):
            expected = math.sqrt(math.pi) * math.exp(-s * s / 4)
            got = fourier_primitive(F, s)
            assert got.re == pytest.approx(expected, abs=1e-10)
            assert got.im == pytest.approx(0.0, abs=1e-10)

    def test_box_oracle(self):
        F = parse_expr("indicator(0,1)")
        for s in (1.0, math.pi, 4.5):
            expected = (1 - cmath.exp(-1j * s)) / (1j * s)
            got = fourier_primitive(F, s).as_complex()
            assert got == pytest.approx(expected, abs=1e-10)

    def test_high_frequency_branch(self):
        # |s| >= 50 engages the integration-by-parts path; it must agree
        # with the closed form and keep shrinking
        F = parse_expr("exp(-x^2)")
        v60 = abs(fourier_primitive(F, 60.0))
        v10 = abs(fourier_primitive(F, 10.0))
        # the closed form sqrt(pi) e^{-900} underflows double precision;
        # the computed value must be tiny and far below the s=10 value
        assert v60 < 1e-18
        assert v60 < v10 * 1e-6


class TestDistributionTransform:
    def test_delta_pair_closed_form(self):
        # f = (chi_(-1,1))' = delta_{-1} - delta_1, f^(s) = 2i sin(s)
        f = dist("indicator(-1,1)", 1.0)
        rng = random.Random(3)
        for _ in range(10):
            s = rng.uniform(-8.0, 8.0)
            got = fourier(f, s).as_complex()
            assert got == pytest.approx(2j * math.sin(s), abs=1e-9)

    def test_needs_p1(self):
        with pytest.raises(ExponentError):
            fourier(dist("exp(-x^2)", 2.0), 1.0)

    def test_convolution_theorem(self):
        # h = f * g (Young, r = 1) satisfies h^ = f^ g^
        f = dist("indicator(0,1)", 1.0)
        g = parse_expr("-2*x*exp(-x^2)")
        h = conv_lq(f, g, 1.0, tol=1e-9).payload
        G = parse_expr("exp(-x^2)")
        rng = random.Random(5)
        for _ in range(10):
            s = rng.uniform(-6.0, 6.0)
            lhs = fourier(h, s).as_complex()
            ghat = (1j * s * fourier_primitive(G, s).as_complex())
            rhs = fourier(f, s).as_complex() * ghat
            assert lhs == pytest.approx(rhs, abs=1e-6)


class TestHigherOrder:
    def test_order_two_closed_form(self):
        f = NthDistribution(parse_expr("exp(-x^2)"), 1.0, 2)
        for s in (1.0, 2.5):
            expected = (1j * s) ** 2 * math.sqrt(math.pi) * math.exp(-s * s / 4)
            assert fourier_n(f, s).as_complex() == pytest.approx(expected, abs=1e-9)

    def test_little_o_growth(self):
        # |f^(s)| / s^n -> 0
        f = NthDistribution(parse_expr("exp(-x^2)"), 1.0, 2)
        ratios = [abs(fourier_n(f, s)) / s ** 2 for s in (2.0, 6.0, 12.0)]
        assert ratios[0] > ratios[1] > ratios[2]


class TestIdentities:
    def test_translation_modulation(self):
        f = dist("indicator(-1,1)", 1.0)
        lhs, rhs, gap = translation_modulation(f, 0.7, 2.3)
        assert gap <= 1e-9

    def test_exchange_identity(self):
        f = dist("exp(-x^2)", 1.0)
        g = parse_expr("exp(-x^2)")
        lhs, rhs = exchange_identity(f, g)
        assert abs(lhs - rhs) <= 1e-8

    def test_exchange_rejects_heavy_weight(self):
        f = dist("exp(-x^2)", 1.0)
        with pytest.raises(IntegrabilityError):
            exchange_identity(f, parse_expr("(x^2+1)^(-1)"))


class TestParseval:
    def test_gaussian_pair(self):
        f = dist("exp(-x^2)", 2.0)
        g = PrimitiveDistribution(f.F.affine(1.0, -1.0), 2.0)
        lhs, rhs = parseval_check(f, g)
        assert lhs == pytest.approx(rhs, abs=1e-6)
        # oracle: int e^{-x^2} e^{-(x-1)^2} dx = sqrt(pi/2) e^{-1/2}
        assert lhs == pytest.approx(math.sqrt(math.pi / 2) * math.exp(-0.5), abs=1e-10)

    def test_box_gaussian_pair(self):
        f = dist("indicator(-1,1)", 2.0)
        g = dist("exp(-x^2)", 2.0)
        lhs, rhs = parseval_check(f, g)
        assert lhs == pytest.approx(rhs, abs=1e-4)
        assert lhs == pytest.approx(math.sqrt(math.pi) * math.erf(1.0), abs=1e-10)

    def test_inner_product_exponents(self):
        with pytest.raises(ExponentError):
            inner_product(dist("exp(-x^2)", 1.0), dist("exp(-x^2)", 2.0))


class TestExhibit:
    def test_derivative_of_transform_differs(self):
        out = dfhat_vs_hatdf_exhibit()
        assert out["differ"] and out["max_gap"] > 0.5
        # at s = pi: (F^)'(pi) = -2/pi while (DF)^(pi) = 0
        row = next(r for r in out["rows"] if abs(r[0] - math.pi) < 1e-12)
        assert row[1].re == pytest.approx(-2.0 / math.pi, abs=1e-10)
        assert abs(row[2]) == pytest.approx(0.0, abs=1e-12)
