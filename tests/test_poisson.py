import cmath
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import wofz

from lprim import poisson
from lprim.errors import ConvergenceError, ExponentError, LprimError
from lprim.expr import Wrapped
from lprim.higher import NthDistribution
from lprim.lpspace import PrimitiveDistribution
from lprim.parser import parse_expr
from lprim.poisson import (
    HalfPlanePoint,
    _extension_values,
    _kernel_expr,
    _kernel_n,
    boundary_convergence,
    boundary_gaps,
    extension_expr,
    extension_n,
    extension_result,
    harmonic_extension,
    harmonicity_residual,
    kernel_dx,
    poisson_kernel,
)
from lprim.quadrature import DEFAULT_CONFIG, convolve, extent, integrate_line


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


    def test_gap_norms_start_their_tails_at_the_window(self, monkeypatch):
        # U_y is sampled on [-R, R]: the norms of U_y - F take [-R, R] as
        # their core and no more, and U_y's direct evaluator, a family of
        # angle integrals, sees only the points of the tails beyond it
        made, seen = [], []
        sampled = poisson.sampled_expr

        def spy(fn, lo, hi, outside=None, **kw):
            def recorded(xs):
                seen.append(np.array(xs))
                return outside(xs)

            made.append(sampled(fn, lo, hi, outside=recorded, **kw))
            return made[-1]

        monkeypatch.setattr(poisson, "sampled_expr", spy)
        F = parse_expr("indicator(-1,1)")
        boundary_gaps(PrimitiveDistribution(F, 1.0), [1.0])
        (U,) = made
        lo, hi = U.window
        assert (U - F).window == (lo, hi) and extent(U - F) == (lo, hi)
        xs = np.concatenate(seen)
        assert xs.size and np.all((xs < lo) | (xs > hi))


# closed forms of d^n/dx^n (Phi_y * F)(x), z = x + iy
def _box_closed(x, y, n):
    """F = indicator(-1,1): U = (1/pi) Im[log(z - 1) - log(z + 1)]."""
    z = complex(x, y)
    if n == 0:
        return (cmath.log(z - 1) - cmath.log(z + 1)).imag / math.pi
    c = (-1) ** (n - 1) * math.factorial(n - 1)
    return (c * ((z - 1) ** -n - (z + 1) ** -n)).imag / math.pi


def _gauss_closed(x, y, n):
    """F = exp(-x^2): U = Re w(z), with w' = -2 z w + 2i/sqrt(pi) and
    w^(k+1) = -2 z w^(k) - 2k w^(k-1) for k >= 1."""
    z = complex(x, y)
    ws = [complex(wofz(z))]
    for k in range(n):
        ws.append(-2 * z * ws[k] - (2 * k * ws[k - 1] if k else -2j / math.sqrt(math.pi)))
    return ws[n].real


def _counted(src, count):
    """parse_expr(src) with its metadata, adding the points it evaluates to count[0]."""
    F = parse_expr(src)

    def values(xs):
        count[0] += xs.size
        return F.values(xs)

    return replace(F, root=Wrapped(values))


class TestAngleRule:
    """u = integral of w_n(theta) F(x - y tan(theta)) over (-pi/2, pi/2)."""

    @pytest.mark.parametrize("src, closed", [("indicator(-1,1)", _box_closed),
                                             ("exp(-x^2)", _gauss_closed)])
    def test_against_closed_forms(self, src, closed):
        F = parse_expr(src)
        eps = np.finfo(float).eps
        for n in range(5):
            for y in (0.01, 0.05, 1.0, 10.0):
                U = _extension_values(F, y, n, DEFAULT_CONFIG)
                for x in np.linspace(-5.0, 5.0, 11):
                    want = closed(x, y, n)
                    try:
                        got = U.at(x)
                    except ConvergenceError:
                        # refused only where the rounding of the weight,
                        # n!/(pi y^n) eps, passes the absolute tolerance
                        assert math.factorial(n) / (math.pi * y ** n) * eps > 1e-10, (n, y, x)
                        continue
                    assert abs(got - want) <= 1e-9 + 1e-7 * abs(want), (n, y, x, got, want)

    @pytest.mark.parametrize("src", ["abs(x)^(-1/2)*exp(-x^2)", "(x^2+1)^(-1/4)",
                                     "exp(-abs(x))", "exp(-(x-50)^2)"])
    def test_against_the_line_convolution(self, src):
        F = parse_expr(src)
        xs = np.array([-3.0, -0.7, 0.0, 0.4, 1.3, 2.5, 49.2, 50.0, 51.5])
        compared = 0
        for n in range(3):
            for y in (0.05, 0.5, 3.0):
                got = _extension_values(F, y, n, DEFAULT_CONFIG)(xs)
                try:
                    ref = convolve(_kernel_n(y, n), F, xs)
                except LprimError:
                    continue  # the line rule refuses (x^2+1)^(-1/4) at small y
                ok = ref.converged
                compared += ok.sum()
                assert np.all(np.abs(got - ref.value)[ok]
                              <= 1e-9 + 1e-7 * np.abs(ref.value)[ok]), (n, y)
        assert compared >= 40

    def test_array_equals_points(self):
        xs = np.linspace(-4.0, 4.0, 17)
        for src in ("indicator(-1,1)", "exp(-x^2)", "abs(x)^(-1/2)*exp(-x^2)"):
            for n in (0, 2):
                U = _extension_values(parse_expr(src), 0.3, n, DEFAULT_CONFIG)
                each = [U.at(x) for x in xs]
                np.testing.assert_allclose(U(xs), each, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("src, most", [("indicator(-1,1)", 120), ("exp(-x^2)", 700)])
    def test_work_per_extension(self, src, most):
        count = [0]
        F = _counted(src, count)
        for n in range(3):
            for y in (0.05, 0.1, 0.3, 1.0, 3.0, 10.0):
                for x in np.linspace(-3.0, 3.0, 13):
                    count[0] = 0
                    extension_n(NthDistribution(F, 2.0, n, norm=1.0) if n else F,
                                HalfPlanePoint(x, y))
                    assert 0 < count[0] <= most, (n, y, x, count[0])

    def test_no_kernel_and_no_line_integral(self, monkeypatch):
        import lprim.poisson as poisson
        import lprim.quadrature as quadrature

        def refuse(*args, **kwargs):
            raise AssertionError("the angle rule needs neither")

        monkeypatch.setattr(poisson, "_kernel_n", refuse)
        monkeypatch.setattr(quadrature, "_integrate_line", refuse)
        # a given norm skips NthDistribution's own check of F in L^p
        f = NthDistribution(parse_expr("exp(-x^2)"), 2.0, 2, norm=1.0)
        assert extension_n(f, HalfPlanePoint(0.4, 0.7)) == pytest.approx(
            _gauss_closed(0.4, 0.7, 2), abs=1e-9)
        F = parse_expr("indicator(-1,1)")
        U = extension_expr(F, 0.5)
        assert float(U.values(np.array([20.0]))[0]) == pytest.approx(
            _box_closed(20.0, 0.5, 0), rel=1e-7)

    def test_sine_gives_the_value_or_raises(self):
        # sin is bounded but not integrable: the theta integrand oscillates
        # without end near +-pi/2, and the rule may not certify it
        F = parse_expr("sin(x)")
        for y in (0.05, 1.0):
            t0 = time.perf_counter()
            try:
                got = harmonic_extension(F, HalfPlanePoint(0.7, y))
            except ConvergenceError:
                pass
            else:
                assert got == pytest.approx(math.exp(-y) * math.sin(0.7), abs=1e-9)
            assert time.perf_counter() - t0 < 2.0

    def test_growing_data_refused(self):
        with pytest.raises(LprimError):
            harmonic_extension(parse_expr("x"), HalfPlanePoint(0.0, 1.0))
        with pytest.raises(ConvergenceError):
            harmonic_extension(parse_expr("exp(x)"), HalfPlanePoint(0.0, 1.0))

    def test_translated_bump_is_found(self):
        # the implicit centre of exp(-x^2) moves with the translation
        F = parse_expr("exp(-x^2)").affine(1.0, -50.0)
        for x, y in ((50.0, 0.05), (49.3, 0.3), (0.0, 1.0)):
            assert harmonic_extension(F, HalfPlanePoint(x, y)) == pytest.approx(
                _gauss_closed(x - 50.0, y, 0), rel=1e-8, abs=1e-10)


class TestErrorEstimates:
    def test_extension_result_carries_its_error(self):
        f = NthDistribution(parse_expr("exp(-x^2)"), 2.0, 1)
        res = extension_result(f, HalfPlanePoint(0.3, 0.5))
        assert res.converged and 0.0 < res.err_est <= 1e-8
        assert res.value == extension_n(f, HalfPlanePoint(0.3, 0.5))

    def test_boundary_gaps_report_the_sampling_error(self):
        f = PrimitiveDistribution(parse_expr("indicator(0,1)"), 1.0)
        norms, errors, ok = boundary_gaps(f, [1.0, 0.3])
        assert (norms, ok) == boundary_convergence(f, [1.0, 0.3])
        # the spline is sampled to 1e-7; its integrals add their largest error
        assert all(0.0 < e <= 2e-7 for e in errors)
