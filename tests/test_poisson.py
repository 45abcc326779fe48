import math

import numpy as np
import pytest

from lprim.errors import ExponentError, LprimError
from lprim.higher import NthDistribution
from lprim.lpspace import PrimitiveDistribution
from lprim.parser import parse_expr
from lprim.poisson import (
    HalfPlanePoint,
    _kernel_expr,
    _kernel_n,
    boundary_convergence,
    extension_n,
    harmonic_extension,
    harmonicity_residual,
    kernel_dx,
    poisson_kernel,
)
from lprim.quadrature import integrate_line


class TestKernel:
    def test_unit_mass(self):
        for y in (0.25, 1.0, 4.0):
            assert integrate_line(_kernel_expr(y)).value == pytest.approx(
                1.0, abs=1e-10
            )

    def test_values(self):
        assert poisson_kernel(HalfPlanePoint(0.0, 1.0)) == pytest.approx(
            1 / math.pi
        )
        assert poisson_kernel(HalfPlanePoint(1.0, 1.0)) == pytest.approx(
            1 / (2 * math.pi)
        )

    def test_kernel_dx_odd(self):
        pt = HalfPlanePoint(0.5, 1.0)
        d1 = kernel_dx(pt, 1)
        # closed form: d/dx of (y/pi)/(x^2+y^2) at x=0.5, y=1
        x, y = 0.5, 1.0
        expected = -(y / math.pi) * 2 * x / (x * x + y * y) ** 2
        assert d1 == pytest.approx(expected, abs=1e-12)

    def test_kernel_dx_closed_forms(self):
        # d^n/dx^n of (y/pi)/r with r = x^2 + y^2, n = 0..4
        def closed(x, y, n):
            c, r = y / math.pi, x * x + y * y
            return (c / r, -2 * c * x / r ** 2, c * (6 * x * x - 2 * y * y) / r ** 3,
                    24 * c * x * (y * y - x * x) / r ** 4,
                    24 * c * (5 * x ** 4 - 10 * x * x * y * y + y ** 4) / r ** 5)[n]

        xs = (-3.0, -0.7, 0.0, 0.25, 1.9)
        for n in range(5):
            for y in (0.05, 0.3, 1.0, 4.0):
                want = [closed(x, y, n) for x in xs]
                got = [kernel_dx(HalfPlanePoint(x, y), n) for x in xs]
                assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
                assert _kernel_n(y, n).values(np.array(xs)) == pytest.approx(
                    want, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("y", (0.05, 0.7, 3.0))
    def test_kernel_n_against_complex_closed_form(self, y):
        # Phi_y^(n)(x) = ((-1)^n n!/pi) Im[(x+iy)^(n+1)] / (x^2+y^2)^(n+1)
        xs = np.linspace(-6.0, 6.0, 1201)
        for n in range(5):
            want = ((-1) ** n * math.factorial(n) / math.pi
                    * np.imag((xs + 1j * y) ** (n + 1)) / (xs * xs + y * y) ** (n + 1))
            got = _kernel_n(y, n).values(xs)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (y, n)

    def test_kernel_metadata(self):
        # the power-2 tag sets the tail rule of every Poisson integral
        K = _kernel_expr(0.7)
        assert (K.singularities, K.kinks, K.support, K.decay) == ((), (), None, ("power", 2.0))
        assert _kernel_n(0.7, 3).decay == ("power", 2.0)

    def test_upper_half_plane_only(self):
        with pytest.raises(LprimError):
            HalfPlanePoint(0.0, -1.0)


class TestExtension:
    def test_indicator_midline(self):
        # U_y(1/2) for F = chi_(0,1): symmetric, equals
        # (1/pi)(arctan((1/2)/y) - arctan((-1/2)/y))
        F = parse_expr("indicator(0,1)")
        for y in (0.2, 1.0):
            expected = (math.atan(0.5 / y) - math.atan(-0.5 / y)) / math.pi
            got = harmonic_extension(F, HalfPlanePoint(0.5, y))
            assert got == pytest.approx(expected, abs=1e-9)

    def test_zero_datum_gives_zero(self):
        F = parse_expr("0*indicator(0,1)")
        for pt in (HalfPlanePoint(0.0, 0.5), HalfPlanePoint(3.0, 2.0)):
            assert harmonic_extension(F, pt) == 0.0
            assert extension_n(NthDistribution(F, 1.0, 2), pt) == 0.0

    def test_extension_n_matches_finite_difference(self):
        # d/dx U_y computed via the differentiated kernel must match a
        # centered difference of U_y itself
        F = parse_expr("exp(-x^2)")
        f = NthDistribution(F, 2.0, 1)
        pt = HalfPlanePoint(0.3, 0.8)
        h = 1e-4
        fd = (
            harmonic_extension(F, HalfPlanePoint(pt.x + h, pt.y))
            - harmonic_extension(F, HalfPlanePoint(pt.x - h, pt.y))
        ) / (2 * h)
        val = extension_n(f, pt)
        assert val == pytest.approx(fd, abs=max(1e-5, 1e-3 * abs(fd)))

    def test_order_cap(self):
        f = NthDistribution(parse_expr("exp(-x^2)"), 1.0, 5)
        with pytest.raises(ExponentError):
            extension_n(f, HalfPlanePoint(0.0, 1.0))


class TestHarmonicity:
    def test_residual_second_order(self):
        f = PrimitiveDistribution(parse_expr("exp(-x^2)"), 2.0)
        pt = HalfPlanePoint(0.2, 1.0)
        r1 = abs(harmonicity_residual(f, pt, 0.2))
        r2 = abs(harmonicity_residual(f, pt, 0.1))
        # halving h divides the residual by about 4
        assert r1 / r2 == pytest.approx(4.0, rel=0.15)

    def test_stencil_guard(self):
        f = PrimitiveDistribution(parse_expr("exp(-x^2)"), 2.0)
        with pytest.raises(LprimError):
            harmonicity_residual(f, HalfPlanePoint(0.0, 0.1), 0.1)


class TestBoundaryConvergence:
    def test_gaussian_p2(self):
        f = PrimitiveDistribution(parse_expr("exp(-x^2)"), 2.0)
        norms, contraction_ok = boundary_convergence(f, [1.0, 0.5, 0.2])
        assert norms[0] > norms[1] > norms[2]
        assert contraction_ok

    def test_indicator_p1(self):
        f = PrimitiveDistribution(parse_expr("indicator(0,1)"), 1.0)
        norms, contraction_ok = boundary_convergence(f, [0.5, 0.2])
        assert norms[0] > norms[1]
        assert contraction_ok
