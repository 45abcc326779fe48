import math

import numpy as np
import pytest
from scipy.special import erf

from lprim import quadrature
from lprim.corpus import corpus_members, sobolev_gn
from lprim.errors import ConvergenceError, ExponentError, LprimError
from lprim.lpspace import (
    DeltaTrain,
    Multiplier,
    PrimitiveDistribution,
    abs_distribution,
    dual_norm,
    gateaux_profile,
    join,
    leq,
    meet,
    membership_check,
    pair,
    pair_delta_train,
    reconstruct,
    step_approximate,
    translate,
    weak_vanishing_bound,
)
from lprim.parser import parse_expr
from lprim.quadrature import QuadConfig, integrate, lp_norm


def dist(src, p, **kw):
    return PrimitiveDistribution(parse_expr(src), p, **kw)


class TestNormsAndLinearity:
    def test_indicator_norm(self):
        f = dist("indicator(0,1)", 2.0)
        assert f.norm == pytest.approx(1.0, abs=1e-10)

    def test_scalar_homogeneity(self):
        f = dist("exp(-x^2)", 2.0)
        assert (2.5 * f).norm == pytest.approx(2.5 * f.norm, rel=1e-12)

    def test_triangle_inequality(self):
        f = dist("exp(-x^2)", 2.0)
        g = dist("indicator(0,1)", 2.0)
        assert (f + g).norm <= f.norm + g.norm + 1e-10

    def test_exponent_domain(self):
        with pytest.raises(ExponentError):
            dist("indicator(0,1)", 0.5)

    def test_sobolev_norm_formulas(self):
        # ||g_n||_p = 2^(1/p) a^(1/p) b ; ||G_n||_p = 2^(1/p)(p+1)^(-1/p) a^(1+1/p) b
        for alpha, beta in ((1.0, 1.0), (4.0, 0.5)):
            g, G = sobolev_gn(alpha, beta)
            for p in (1.0, 2.0, 3.0):
                assert lp_norm(g, p) == pytest.approx(
                    2 ** (1 / p) * alpha ** (1 / p) * beta, abs=1e-8
                )
                assert lp_norm(G, p) == pytest.approx(
                    2 ** (1 / p) * (p + 1) ** (-1 / p) * alpha ** (1 + 1 / p) * beta,
                    abs=1e-8,
                )


class TestPairing:
    def test_delta_difference_oracle(self):
        # f = delta_0 - delta_1 via F = chi_(0,1); <f, G> with g = e^{-x}
        f = dist("indicator(0,1)", 1.0)
        G = Multiplier(parse_expr("exp(-x)*indicator(0,50)"), math.inf)
        assert pair(f, G) == pytest.approx(math.exp(-1) - 1.0, abs=1e-8)

    def test_conjugate_exponent_enforced(self):
        f = dist("indicator(0,1)", 2.0)
        with pytest.raises(ExponentError):
            pair(f, Multiplier(parse_expr("exp(-x^2)"), 3.0))

    def test_pairing_with_constant_density_is_minus_total(self):
        # <F', G> = -int F g; g = 1 on a window covering the support
        f = dist("indicator(0,1)", 1.0)
        G = Multiplier(parse_expr("indicator(-5,5)"), math.inf)
        assert pair(f, G) == pytest.approx(-1.0, abs=1e-10)

    def test_bilinearity(self):
        f = dist("exp(-x^2)", 2.0)
        h = dist("indicator(0,1)", 2.0)
        G = Multiplier(parse_expr("exp(-abs(x))"), 2.0)
        lhs = pair(f + h, G)
        assert lhs == pytest.approx(pair(f, G) + pair(h, G), abs=1e-9)


class TestDualNorm:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_corpus_attainment(self, p):
        for m in corpus_members(p):
            f = PrimitiveDistribution(m.expr, p, osc_wavelength=m.osc_wavelength)
            assert dual_norm(f) == pytest.approx(f.norm, rel=1e-6), m.name

    def test_p1_sign_witness(self):
        f = dist("exp(-x^2)", 1.0)
        assert dual_norm(f) == pytest.approx(f.norm, rel=1e-8)


class TestLattice:
    def test_abs_preserves_norm(self):
        f = dist("x*exp(-x^2)", 2.0)
        assert abs_distribution(f).norm == pytest.approx(f.norm, abs=1e-10)

    def test_join_meet_order(self):
        f = dist("x*exp(-x^2)", 2.0)
        z = dist("0*indicator(0,1)", 2.0)
        top = join(f, z)
        bot = meet(f, z)
        assert leq(bot, f) and leq(f, top)
        assert leq(bot, z) and leq(z, top)

    def test_l1_additivity_disjoint(self):
        f = dist("indicator(0,1)", 1.0)
        g = dist("indicator(3,5)", 1.0)
        assert (f + g).norm == pytest.approx(f.norm + g.norm, abs=1e-10)


class TestReconstruction:
    def test_indicator_interior_exact(self):
        f = dist("indicator(0,1)", 1.0)
        for n in (2, 4, 16):
            assert reconstruct(f, 0.5, n) == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_monotone_improvement(self):
        f = dist("exp(-x^2)", 2.0)
        errs = [abs(reconstruct(f, 0.0, n) - 1.0) for n in (4, 16, 64)]
        assert errs[0] > errs[1] > errs[2]

    def test_domain_check(self):
        f = dist("indicator(0,1)", 1.0)
        with pytest.raises(LprimError):
            reconstruct(f, -3.0, 2)


class TestDeltaTrains:
    def test_pairing_routes_agree(self):
        train = DeltaTrain([(1.0, 0.0, 1.0), (-0.5, 2.0, 3.0)])
        G = Multiplier(parse_expr("exp(-abs(x))"), 2.0)
        f = PrimitiveDistribution(train.primitive(), 2.0)
        assert pair_delta_train(train, G) == pytest.approx(pair(f, G), abs=1e-8)

    def test_overlap_rejected(self):
        with pytest.raises(LprimError):
            DeltaTrain([(1.0, 0.0, 2.0), (1.0, 1.0, 3.0)])

    def test_step_approximation_improves(self):
        f = dist("exp(-x^2)", 2.0)
        errs = [step_approximate(f, n).error for n in (4, 16, 64)]
        assert errs[0] > errs[1] > errs[2]


class TestMembership:
    def test_odd_compact_certified(self):
        f = parse_expr("x*indicator(-1,1)")
        res = membership_check(f, 2.0, alpha=1.0)
        assert res.verdict == "certified" and not res.conditional

    def test_nonzero_integral_rejected(self):
        f = parse_expr("exp(-x^2)")
        res = membership_check(f, 2.0, alpha=1.0)
        assert res.verdict == "not certified"

    def test_conditional_oscillatory(self):
        f = parse_expr("sin(x)/abs(x)")
        res = membership_check(f, 2.0, alpha=1.0, osc_wavelength=2 * math.pi)
        assert res.verdict == "certified" and res.conditional

    def test_alpha_domain(self):
        with pytest.raises(ExponentError):
            membership_check(parse_expr("x*indicator(-1,1)"), 2.0, alpha=0.1)


class TestWeakVanishing:
    def test_p1_bound_holds(self):
        f = dist("indicator(0,1)", 1.0)
        G = Multiplier(parse_expr("indicator(0,100)"), math.inf)
        ratio, bound = weak_vanishing_bound(f, G, 2.0, 14.0, eps=0.5)
        assert ratio <= bound + 1e-12

    def test_p2_bound_holds(self):
        f = dist("exp(-x^2)", 2.0)
        G = Multiplier(parse_expr("exp(-abs(x))"), 2.0)
        ratio, bound = weak_vanishing_bound(f, G, 1.0, 9.0, eps=1e-3)
        assert ratio <= bound + 1e-12

    def test_samples_share_one_antiderivative_family(self, monkeypatch):
        # G on all 20,001 samples is one _integrate call, not one per sample
        f = dist("exp(-x^2)", 2.0)
        G = Multiplier(parse_expr("exp(-abs(x))"), 2.0)
        calls = []
        engine = quadrature._integrate

        def counting(*args, **kwargs):
            calls.append(1)
            return engine(*args, **kwargs)

        monkeypatch.setattr(quadrature, "_integrate", counting)
        weak_vanishing_bound(f, G, 1.0, 9.0, eps=1e-3)
        assert len(calls) <= 8


class TestAntiderivative:
    def test_gaussian_primitive_is_erf(self):
        G = Multiplier(parse_expr("exp(-x^2)"), 2.0)
        xs = np.array([-3.0, -0.4, 0.0, 0.4, 3.0])
        np.testing.assert_allclose(G.G_values(xs), 0.5 * math.sqrt(math.pi) * erf(xs),
                                   rtol=0.0, atol=1e-12)
        assert G.G(-0.4) == pytest.approx(-0.5 * math.sqrt(math.pi) * erf(0.4), abs=1e-12)

    @pytest.mark.parametrize("src", ["exp(-abs(x))", "cos(x)*exp(-x^2)"])
    def test_values_match_pointwise_integrals(self, src):
        g = parse_expr(src)
        xs = np.linspace(-10.0, 30.0, 2001)
        ref = np.array([integrate(g, 0.0, x).value for x in xs])
        np.testing.assert_allclose(Multiplier(g, 2.0).G_values(xs), ref, rtol=1e-12, atol=0.0)

    def test_unconverged_value_raises(self):
        G = Multiplier(parse_expr("sin(x^(-1))"), math.inf)
        with pytest.raises(ConvergenceError, match=r"lpspace G_1.*x=1\.0"):
            G.G(1.0)


class TestTranslationAndGateaux:
    def test_translation_invariance(self):
        # translate carries the norm over; an independent integral of the
        # translated primitive checks that it is the same
        f = dist("exp(-x^2)", 2.0)
        assert translate(f, 1.7).norm == f.norm
        assert lp_norm(f.F.affine(1.0, -1.7), 2.0) == pytest.approx(f.norm, abs=1e-9)

    def test_translation_continuity(self):
        f = dist("exp(-x^2)", 2.0)
        gaps = [
            lp_norm(f.F.affine(1.0, -h) - f.F, 2.0) for h in (0.5, 0.05, 0.005)
        ]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_gateaux_slope_bounded(self):
        f = dist("exp(-x^2)", 2.0)
        g = dist("indicator(3,4)", 2.0)
        ts = [0.0, 0.25, 0.5, 1.0]
        profile = gateaux_profile(f, g, ts)
        for (t0, m0), (t1, m1) in zip(zip(ts, profile), zip(ts[1:], profile[1:])):
            assert abs(m1 - m0) <= g.norm * (t1 - t0) + 1e-9



class TestLazyNorm:
    def test_norm_integrated_on_first_read_only(self, norm_calls):
        f = dist("exp(-x^2)", 2.0)
        assert norm_calls == []
        first = f.norm
        assert f.norm == first == pytest.approx((math.pi / 2) ** 0.25, abs=1e-10)
        assert len(norm_calls) == 1

    def test_given_norm_taken_as_is(self, norm_calls):
        assert dist("exp(-x^2)", 2.0, _norm=3.0).norm == 3.0
        assert norm_calls == []

    def test_configuration_kept_for_the_norm(self, norm_calls):
        # f + g, f - g, join(f, g) and meet(f, g) integrate with f's configuration
        cfg = QuadConfig(abs_tol=1e-7, rel_tol=1e-7)
        f, g = dist("indicator(0,1)", 2.0, cfg=cfg), dist("indicator(0,2)*x", 2.0)
        for h in (f, f + g, f - g, join(f, g), meet(f, g)):
            norm_calls.clear()
            h.norm
            assert norm_calls == [cfg]

    def test_configuration_kept_when_scaled_or_translated(self, norm_calls):
        cfg = QuadConfig(abs_tol=1e-6, rel_tol=1e-5)
        f = dist("exp(-x^2)", 2.0, cfg=cfg)
        for h in (f * 2, translate(f, 1.0), (f * 2) + f):
            assert h._cfg == cfg
        ((f * 2) + f).norm
        assert norm_calls == [cfg]

    def test_oscillation_wavelength_kept(self):
        f = dist("exp(-x^2)", 2.0)
        g = dist("exp(-x^2)*sin(x)", 2.0, osc_wavelength=2 * math.pi)
        for h in (f + g, g - f, join(f, g), meet(g, f), abs_distribution(g)):
            assert h.osc_wavelength == 2 * math.pi
            assert h._cfg.osc_wavelength == 2 * math.pi

    def test_derived_norms_need_no_integral_of_their_own(self, norm_calls):
        f = dist("exp(-x^2)*sin(x)", 1.5)
        scaled, moved, folded = 2.5 * f, translate(f, 1.7), abs_distribution(f)
        negated = -moved
        assert norm_calls == []
        assert scaled.norm == 2.5 * f.norm
        assert moved.norm == f.norm
        assert folded.norm == f.norm
        assert negated.norm == f.norm
        assert len(norm_calls) == 1

    def test_derived_norm_read_first_forces_parent_once(self, norm_calls):
        f = dist("exp(-x^2)", 2.0)
        moved = translate(f, -3.0)
        assert moved.norm == f.norm
        assert len(norm_calls) == 1

    def test_membership_checked_on_read(self):
        # F = 1 is not in L^1: building f succeeds, reading its norm raises
        f = dist("1+0*x", 1.0)
        with pytest.raises(ConvergenceError):
            f.norm
        with pytest.raises(ConvergenceError):
            (2.0 * f).norm


class TestOwnConfiguration:
    """Without a cfg, an operation on f integrates with f's configuration;
    a cfg passed in is used, with f's wavelength merged in."""

    CFG = QuadConfig(abs_tol=1e-6, rel_tol=1e-5)

    @pytest.fixture
    def seen(self, monkeypatch):
        """The configuration of every integral lpspace and convolution ask for."""
        from lprim import convolution, lpspace

        seen = []
        for module, name, pos in ((lpspace, "integrate_line", 1), (lpspace, "lp_norm", 2),
                                  (lpspace, "integrate", 3), (convolution, "lp_norm", 2),
                                  (convolution, "lp_norms", 2),
                                  (convolution, "ConvolutionValues", 2)):
            def spy(*args, _engine=getattr(module, name), _pos=pos, **kwargs):
                seen.append(args[_pos])
                return _engine(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)
        return seen

    def test_operations_use_the_distribution_configuration(self, seen):
        from lprim.convolution import conv_lq, conv_multiplier, star

        cfg = self.CFG
        f = dist("exp(-x^2)", 1.0, cfg=cfg)
        f2 = dist("exp(-x^2)", 2.0, cfg=cfg)
        g = parse_expr("exp(-x^2)")
        G = Multiplier(g, math.inf, cfg=cfg)
        operations = {
            "dual_norm": lambda: dual_norm(f),
            "equals": lambda: f.equals(f),
            "pair": lambda: pair(f, G),
            "reconstruct": lambda: reconstruct(f, 0.5, 2),
            "step_approximate": lambda: step_approximate(f, 4),
            "weak_vanishing_bound": lambda: weak_vanishing_bound(f, G, 1.0, 2.0, 0.1),
            "gateaux_profile": lambda: gateaux_profile(f2, f2, [0.0, 0.5]),
            "conv_multiplier": lambda: conv_multiplier(f, G, 0.3),
            "conv_lq": lambda: conv_lq(f, g, 1.0, tol=1e-5).diagnostics["density"](0.2),
            "star": lambda: star(f, f, tol=1e-5).diagnostics["density"](0.2),
        }
        for name, op in operations.items():
            seen.clear()
            op()
            assert seen and all(c == cfg for c in seen), name

    def test_passed_configuration_keeps_the_wavelength(self, seen):
        f = dist("exp(-x^2)*sin(x)", 2.0, osc_wavelength=2 * math.pi)
        G = Multiplier(parse_expr("exp(-x^2)"), 2.0)
        pair(f, G, self.CFG)
        assert seen == [QuadConfig(abs_tol=1e-6, rel_tol=1e-5, osc_wavelength=2 * math.pi)]
