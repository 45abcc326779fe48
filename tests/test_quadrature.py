import math

import numpy as np
import pytest

from lprim import quadrature
from lprim.corpus import corpus_members, weierstrass
from lprim.errors import ConvergenceError, IntegrabilityError
from lprim.expr import FunctionExpr
from lprim.parser import parse_expr
from lprim.quadrature import (
    DEFAULT_CONFIG,
    WG,
    WGK,
    XGK,
    ConvolutionValues,
    QuadConfig,
    angle_integral,
    convolve,
    effective_radius,
    find_sign_changes,
    integrate,
    integrate_line,
    lp_norm,
    sup_norm,
)


class TestRule:
    def test_weights_sum_to_two(self):
        assert abs(math.fsum(WGK) - 2.0) <= 4e-16
        assert abs(math.fsum(WG) - 2.0) <= 4e-16

    def test_one_panel_exact_to_degree_22(self):
        # a single Kronrod panel on [0, 1] integrates x^22 exactly
        xs = 0.5 + 0.5 * XGK
        assert abs(0.5 * float(WGK @ xs**22) - 1.0 / 23.0) <= 1e-15


class TestFiniteIntervals:
    def test_polynomial_exact(self):
        res = integrate(parse_expr("x^2"), 0.0, 1.0)
        assert res.value == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_reversed_interval_negates(self):
        f = parse_expr("x^2")
        a = integrate(f, 0.0, 1.0).value
        b = integrate(f, 1.0, 0.0).value
        assert b == pytest.approx(-a, abs=1e-14)

    def test_indicator_split(self):
        res = integrate(parse_expr("indicator(0,1)"), -2.0, 2.0)
        assert res.value == pytest.approx(1.0, abs=1e-12)


class TestSingularEndpoints:
    def test_inverse_sqrt(self):
        res = integrate(parse_expr("sing(abs(x)^(-0.5), 0)"), -1.0, 1.0)
        assert res.value == pytest.approx(4.0, abs=1e-10)

    def test_gamma_cusp_oracle(self):
        # integral of |x|^(-1/4) e^(-|x|) over the line = 2 Gamma(3/4)
        f = parse_expr("sing(abs(x)^(-0.25), 0)*exp(-abs(x))")
        res = integrate_line(f)
        assert res.value == pytest.approx(2.0 * math.gamma(0.75), abs=1e-10)

    def test_log_cusp_oracle(self):
        # integral of log|x| e^(-|x|) over the line = -2 gamma_Euler
        f = parse_expr("sing(log(abs(x)), 0)*exp(-abs(x))")
        res = integrate_line(f)
        assert res.value == pytest.approx(-2.0 * 0.5772156649015329, abs=1e-9)

    def test_nonintegrable_raises(self):
        with pytest.raises(IntegrabilityError):
            integrate(parse_expr("sing(1/abs(x), 0)"), -1.0, 1.0)


class TestLineIntegrals:
    def test_gaussian(self):
        res = integrate_line(parse_expr("exp(-x^2)"))
        assert res.value == pytest.approx(math.sqrt(math.pi), abs=1e-12)

    def test_cauchy_power_tail(self):
        res = integrate_line(parse_expr("(x^2+1)^(-1)"))
        assert res.value == pytest.approx(math.pi, abs=1e-10)

    def test_oscillatory_power_tail(self):
        # sin(x)^2/x^2 integrates to pi
        cfg = QuadConfig.from_env(osc_wavelength=2 * math.pi)
        f = parse_expr("sing(sin(x)^2*x^(-2), 0)")
        res = integrate_line(f, cfg)
        assert res.value == pytest.approx(math.pi, abs=1e-8)

    def test_slow_power_tail_refused(self):
        with pytest.raises((IntegrabilityError, ConvergenceError)):
            integrate_line(parse_expr("(abs(x)+1)^(-1)"))

    def test_unknown_decay_refused(self):
        with pytest.raises(ConvergenceError):
            integrate_line(parse_expr("cos(x)^2"))


SQRT_PI = math.sqrt(math.pi)
QUARTIC = math.gamma(0.25) / 2  # integral of exp(-x^4)


class TestDecayCentres:
    """A bump centred far from 0, where no feature point marks it: the
    tails start beyond its centre and the panels split around it."""

    @pytest.mark.parametrize("src,want", [
        ("exp(-(x-50)^2)", SQRT_PI),
        ("exp(-(x+50)^2)", SQRT_PI),
        ("exp(-(x+300)^4)", QUARTIC),
        ("x*exp(-(x-50)^2)", 50 * SQRT_PI),
        ("exp(-(x-50)^2)+exp(-(x+30)^4)", SQRT_PI + QUARTIC),
        # a narrow bump at a far kink: the centre cuts place nodes on it
        ("exp(-abs(x+300)^4)", QUARTIC),
        # scaled exponents keep their decay class
        ("exp(-3*x^2)", math.sqrt(math.pi / 3)),
        ("exp(-x^2/2)", math.sqrt(2 * math.pi)),
    ])
    def test_line_integral(self, src, want):
        res = integrate_line(parse_expr(src))
        assert res.converged
        assert res.value == pytest.approx(want, rel=1e-12)

    def test_radius_covers_centre(self):
        assert effective_radius(parse_expr("exp(-(x+50)^2)")) == 1.5 * 50 + 4.0

    def test_translated_bump(self):
        F = parse_expr("exp(-(x-1)^2)").affine(1.0, -49.0)
        assert integrate_line(F).value == pytest.approx(SQRT_PI, rel=1e-12)
        assert lp_norm(F, 2.0) == pytest.approx((math.pi / 2) ** 0.25, rel=1e-12)

    def test_convolution_of_shifted_bumps(self):
        # e^{-(x-20)^2} * e^{-(x+20)^2} is sqrt(pi/2) e^{-x^2/2}
        xs = np.array([-40.0, 0.0, 5.0, 40.0])
        fam = convolve(parse_expr("exp(-(x-20)^2)"), parse_expr("exp(-(x+20)^2)"), xs)
        assert fam.converged.all()
        assert fam.value == pytest.approx(math.sqrt(math.pi / 2) * np.exp(-xs**2 / 2),
                                          rel=1e-12, abs=1e-14)

    def test_fourier_of_shifted_bump(self):
        # the transform of e^{-(x-50)^2} is sqrt(pi) e^{-s^2/4} e^{-50is}
        s = np.array([1.0, 7.0])
        res = quadrature.fourier_integral(parse_expr("exp(-(x-50)^2)"), s)
        want = SQRT_PI * np.exp(-s**2 / 4) * np.exp(-50j * s)
        assert np.abs(res.value - want).max() <= 1e-12


class TestNorms:
    def test_lp_norm_indicator(self):
        for p in (1.0, 2.0, 3.0):
            assert lp_norm(parse_expr("indicator(0,2)"), p) == pytest.approx(
                2.0 ** (1.0 / p), abs=1e-10
            )

    def test_lp_norm_gaussian(self):
        # ||e^{-x^2}||_p = (pi/p)^(1/(2p))
        for p in (1.0, 2.0, 3.0):
            expected = (math.pi / p) ** (1.0 / (2 * p))
            assert lp_norm(parse_expr("exp(-x^2)"), p) == pytest.approx(
                expected, abs=1e-10
            )

    def test_lp_norm_signed_function(self):
        # zero crossing at grid point must still be split
        f = parse_expr("sing(log(abs(x)), 0)*exp(-abs(x))")
        assert lp_norm(f, 1.0) == pytest.approx(2.031967067385147, abs=1e-8)

    @pytest.mark.parametrize("src, peak", [
        ("exp(-(x-1)^2)", 1.0),
        # off the scan's grid: only the refinement finds these maxima
        ("x*exp(-x^2)", (2.0 * math.e) ** -0.5),
        ("exp(-abs(x-0.3))", 1.0),
    ], ids=["grid-node", "off-grid", "kink"])
    def test_sup_norm(self, src, peak):
        assert sup_norm(parse_expr(src)) == pytest.approx(peak, abs=1e-10)

    def test_sup_norm_refuses_singular(self):
        with pytest.raises(ConvergenceError):
            sup_norm(parse_expr("sing(1/abs(x), 0)"))


def scalar_sign_changes(f, a, b, n=2048):
    """Reference: the same grid scan, then each bracket bisected on its own
    with one-point evaluations and the same per-bracket rules."""
    xs = np.linspace(a, b, n + 1)
    for s in f.singularities:
        xs[np.isclose(xs, s, rtol=0.0, atol=1e-300)] += (b - a) * 1e-9
    vals = f.values(xs)
    vals = np.where(np.isfinite(vals), vals, 0.0)
    sgn = np.sign(vals)
    exact = np.nonzero((sgn[1:-1] == 0.0) & (sgn[:-2] != 0.0) & (sgn[2:] != 0.0))[0]
    zeros = [float(xs[i + 1]) for i in exact]
    for i in np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]:
        lo, hi, flo = xs[i], xs[i + 1], vals[i]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            fm = f.values(np.array([mid]))[0]
            if not np.isfinite(fm):
                break
            if fm == 0.0:
                lo = hi = mid
                break
            if (fm > 0) == (flo > 0):
                lo, flo = mid, fm
            else:
                hi = mid
        zeros.append(float(0.5 * (lo + hi)))
    return zeros


def _scan_cases():
    for m in corpus_members():
        if m.expr.support is not None:
            a, b = m.expr.support
        else:
            r = effective_radius(m.expr)
            a, b = -r, r
        yield m.name, m.expr, a, b, 2048
    yield "sin(x)", parse_expr("sin(x)"), 0.5, 7.0, 2048
    yield "x - 1", parse_expr("x - 1"), 0.0, 2.0, 3  # midpoint of [2/3, 4/3] is a zero
    yield "1/(x-1.3)", parse_expr("1/(x-1.3)"), 0.0, 2.0, 2048  # a pole
    yield "sin(1/x) on (0,1)", parse_expr("sin(x^(-1))*indicator(0,1)"), 0.0, 1.0, 2048


# Weierstrass primitive's L^1 norm, by mpmath at 30 digits
# (lprimbench/reference.json, key "norm|weierstrass(6)|1")
WEIERSTRASS_L1 = 1.112101241810845868789846


class TestSignChanges:
    def test_finds_interior_zeros(self):
        zeros = find_sign_changes(parse_expr("sin(x)"), 0.5, 7.0)
        assert any(abs(z - math.pi) < 1e-9 for z in zeros)
        assert any(abs(z - 2 * math.pi) < 1e-9 for z in zeros)

    def test_finds_exact_grid_zero(self):
        # x - 1 vanishes exactly at a grid point of the scan over [0, 2]
        zeros = find_sign_changes(parse_expr("x - 1"), 0.0, 2.0)
        assert any(abs(z - 1.0) < 1e-9 for z in zeros)
        # and at the first midpoint of the bracket [2/3, 4/3], which collapses
        assert find_sign_changes(parse_expr("x - 1"), 0.0, 2.0, 3) == [1.0]

    @pytest.mark.parametrize("name,f,a,b,n", list(_scan_cases()),
                             ids=[c[0] for c in _scan_cases()])
    def test_batched_matches_scalar_bisection(self, name, f, a, b, n):
        assert find_sign_changes(f, a, b, n) == scalar_sign_changes(f, a, b, n)

    def test_weierstrass_scan_resolves_wavelength(self, monkeypatch):
        # lp_norm scans 8 points per oscillation wavelength: a 2,048-cell
        # grid misses the zero pairs that fall inside one cell
        m = weierstrass()
        values, find = FunctionExpr.values, quadrature.find_sign_changes
        calls, found = [], []

        def counted(self, xs):
            calls.append(1)
            return values(self, xs)

        def spy(f, a, b, n):
            monkeypatch.setattr(FunctionExpr, "values", counted)
            found.append(find(f, a, b, n))
            monkeypatch.setattr(FunctionExpr, "values", values)
            return found[-1]

        monkeypatch.setattr(quadrature, "find_sign_changes", spy)
        norm = lp_norm(m.expr, 1.0, QuadConfig.from_env(osc_wavelength=m.osc_wavelength))
        assert len(found) == 1 and len(found[0]) == 240
        # one scan plus at most 60 bisection steps over all brackets at once
        assert len(calls) <= 62
        assert abs(norm - WEIERSTRASS_L1) <= 1e-12 * WEIERSTRASS_L1


class TestConfig:
    def test_env_tolerances(self, monkeypatch):
        monkeypatch.setenv("LPRIM_ABS_TOL", "1e-5")
        monkeypatch.setenv("LPRIM_REL_TOL", "1e-4")
        cfg = QuadConfig.from_env()
        assert cfg.abs_tol == 1e-5 and cfg.rel_tol == 1e-4

    def test_invalid_tolerance_rejected(self):
        with pytest.raises(Exception):
            QuadConfig(abs_tol=-1.0)


class TestFamilies:
    """A family of convolution integrals, one owner per x, gives what the
    one-integral call gives for each x on its own."""

    PAIRS = [
        ("exp(-x^2)", "exp(-x^2)"),
        ("indicator(0,1)", "exp(-abs(x))"),
        ("(x^2+1)^(-1)", "exp(-x^2)"),
        ("sing(abs(x)^(-0.5), 0)*exp(-abs(x))", "indicator(0,1)"),
    ]

    @pytest.mark.parametrize("F_src,g_src", PAIRS)
    def test_family_matches_single_integrals(self, F_src, g_src):
        F, g = parse_expr(F_src), parse_expr(g_src)
        xs = np.array([-3.0, -0.7, 0.0, 0.25, 0.5, 1.0, 2.3, 9.0])
        fam = convolve(F, g, xs)
        for i, x in enumerate(xs):
            one = integrate_line(F.affine(-1.0, x) * g)
            assert abs(fam.value[i] - one.value) <= max(1e-12, 10 * fam.err_est[i])
            assert bool(fam.converged[i]) == one.converged

    def test_unconverged_point_raises_naming_layer_and_x(self):
        F, g = parse_expr("exp(-x^2)"), parse_expr("exp(-x^2)")
        cfg = QuadConfig(abs_tol=1e-14, rel_tol=1e-14, max_depth=1)
        with pytest.raises(ConvergenceError, match=r"poisson: .*x=0\.5"):
            ConvolutionValues(F, g, cfg, "poisson")(np.array([0.5]))

    def test_largest_error_estimate_kept(self):
        F, g = parse_expr("indicator(0,1)"), parse_expr("exp(-abs(x))")
        xs = np.linspace(-2.0, 3.0, 11)
        conv = ConvolutionValues(F, g, None, "convolution")
        conv(xs)
        assert conv.max_err == float(convolve(F, g, xs).err_est.max())

    @pytest.mark.parametrize("m", corpus_members(), ids=lambda m: m.name)
    def test_one_factor_line_family(self, m):
        fam = quadrature._family(None, 1, ((m.expr, None),), line=True)
        assert fam.radius.tolist() == [effective_radius(m.expr)]
        support = None if fam.support is None else (fam.support[0][0], fam.support[1][0])
        assert support == m.expr.support

    @pytest.mark.parametrize("m", corpus_members(), ids=lambda m: m.name)
    def test_shifted_factor_family(self, m):
        # the factor (K, xs) gives owner i the metadata of y -> K(x_i - y)
        xs = np.array([-2.5, 0.0, 0.75, 40.0])
        fam = quadrature._family(None, xs.size, ((m.expr, xs),), line=True)
        for i, x in enumerate(xs):
            K = m.expr.affine(-1.0, x)
            assert sorted(fam.sing[i]) == list(K.singularities)
            support = None if fam.support is None else (fam.support[0][i], fam.support[1][i])
            assert support == K.support

    @pytest.mark.parametrize("family", ["convolve", "angle_integral"])
    def test_owner_value_does_not_depend_on_its_batch(self, family):
        # sample_function evaluates all its segments' points in one family
        # call; its splines equal the segment-by-segment ones only if each
        # owner's value and err_est are the same in every batch, bit for bit
        xs = np.linspace(-3.0, 4.0, 40)
        if family == "convolve":
            F, g = parse_expr("indicator(0,1)"), parse_expr("exp(-x^2)")
            run = lambda x: convolve(F, g, x)  # noqa: E731
        else:
            F = parse_expr("sing(abs(x)^(-0.5), 0)*exp(-abs(x))")
            run = lambda x: angle_integral(  # noqa: E731
                F, lambda th, y: np.cos(th) / math.pi, x, 0.5)
        full = run(xs)
        for size in range(1, xs.size + 1):
            for start in {0, xs.size - size, (13 * size) % (xs.size + 1 - size)}:
                part = run(xs[start:start + size])
                np.testing.assert_array_equal(part.value, full.value[start:start + size])
                np.testing.assert_array_equal(part.err_est, full.err_est[start:start + size])
