import math

import numpy as np
import pytest

from lprim.errors import ConvergenceError, IntegrabilityError
from lprim.parser import parse_expr
from lprim.quadrature import (
    DEFAULT_CONFIG,
    WG,
    WGK,
    XGK,
    ConvolutionValues,
    QuadConfig,
    convolve,
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

    def test_sup_norm(self):
        f = parse_expr("exp(-(x-1)^2)")
        assert sup_norm(f) == pytest.approx(1.0, abs=1e-10)

    def test_sup_norm_refuses_singular(self):
        with pytest.raises(ConvergenceError):
            sup_norm(parse_expr("sing(1/abs(x), 0)"))


class TestSignChanges:
    def test_finds_interior_zeros(self):
        zeros = find_sign_changes(parse_expr("sin(x)"), 0.5, 7.0)
        assert any(abs(z - math.pi) < 1e-9 for z in zeros)
        assert any(abs(z - 2 * math.pi) < 1e-9 for z in zeros)

    def test_finds_exact_grid_zero(self):
        # x - 1 vanishes exactly at a grid point of the scan over [0, 2]
        zeros = find_sign_changes(parse_expr("x - 1"), 0.0, 2.0)
        assert any(abs(z - 1.0) < 1e-9 for z in zeros)


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
