import cmath
import math
import random
import sys

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import spherical_jn

from lprim import quadrature
from lprim.convolution import conv_lq
from lprim.errors import ConvergenceError, ExponentError, IntegrabilityError
from lprim.expr import FunctionExpr
from lprim.fourier import (
    ComplexValue,
    dfhat_vs_hatdf_exhibit,
    exchange_identity,
    fourier,
    fourier_n,
    Transform,
    fourier_primitive,
    inner_product,
    parseval_check,
    transform_of,
    translation_modulation,
)
from lprim.higher import NthDistribution
from lprim.lpspace import PrimitiveDistribution
from lprim.parser import parse_expr
from lprim.quadrature import QuadConfig, fourier_integral


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

    def test_wide_support_sampled_as_given(self):
        F = parse_expr("indicator(0,2e6)")
        expected = (1 - cmath.exp(-2e6j)) / 1j
        assert abs(fourier_primitive(F, 1.0).as_complex() - expected) <= 1e-9

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


SQRT_PI = math.sqrt(math.pi)
# F^(s) in closed form for the benchmark's primitives
CLOSED = {
    "indicator(-1,1)": lambda s: 2.0 * math.sin(s) / s,
    "exp(-x^2)": lambda s: SQRT_PI * math.exp(-s * s / 4),
    "x*exp(-x^2)": lambda s: -0.5j * SQRT_PI * s * math.exp(-s * s / 4),
    "exp(-abs(x))": lambda s: 2.0 / (1.0 + s * s),
    "(x^2+1)^(-1)": lambda s: math.pi * math.exp(-abs(s)),
}


def count_points(monkeypatch):
    """Spy on FunctionExpr.values; the returned list holds the points evaluated."""
    seen = [0]
    values = FunctionExpr.values

    def spy(self, xs):
        seen[0] += np.size(xs)
        return values(self, xs)

    monkeypatch.setattr(FunctionExpr, "values", spy)
    return seen


class TestFilonRule:
    @pytest.mark.parametrize("y", (0.0, 1.3))
    @pytest.mark.parametrize("src", sorted(CLOSED))
    def test_closed_forms_and_error_bounds(self, src, y):
        # the primitive and its translate by y, whose transform is e^{-isy} F^(s)
        F = parse_expr(src).affine(1.0, -y)
        for s in (0.5, 3.0, 49.0, 60.0, 300.0, 1000.0):
            got = fourier_primitive(F, s)
            want = cmath.exp(-1j * s * y) * CLOSED[src](s)
            err = abs(got.as_complex() - want)
            assert err <= 1e-10, (src, y, s, err)
            assert err <= got.err_est, (src, y, s, err, got.err_est)

    def test_even_primitive_against_qawf(self):
        F = parse_expr("(x^4+1)^(-1)")
        for s in (0.5, 3.0, 10.0):
            want = 2.0 * quad(lambda x: 1.0 / (x ** 4 + 1.0), 0.0, math.inf,
                              weight="cos", wvar=s)[0]
            got = fourier_primitive(F, s)
            assert got.re == pytest.approx(want, abs=1e-9)
            assert got.im == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("s", (0.7, 10.0))
    def test_translated_lorentzian(self, s):
        y = 1.88
        f = dist("(x^2+1)^(-1)", 1.0)
        want = cmath.exp(-1j * s * y) * math.pi * math.exp(-abs(s))
        got = fourier_primitive(f.F.affine(1.0, -y), s)
        assert abs(got.as_complex() - want) <= 1e-9
        lhs, _, _ = translation_modulation(f, y, s)
        assert abs(lhs.as_complex() - 1j * s * want) <= 1e-9 * s

    def test_singular_primitive(self):
        # integral of |x|^(-1/2) e^(-x^2) e^(-isx) dx = Gamma(1/4) 1F1(1/4; 1/2; -s^2/4)
        mp = pytest.importorskip("mpmath")
        F = parse_expr("abs(x)^(-0.5)*exp(-x^2)")
        for s in (0.5, 3.0, 60.0):
            want = float(mp.gamma(0.25) * mp.hyp1f1(0.25, 0.5, -s * s / 4))
            got = fourier_primitive(F, s)
            assert abs(got.as_complex() - want) <= max(1e-10, got.err_est)

    def test_array_of_s_shares_one_sampling(self, monkeypatch):
        F = parse_expr("exp(-abs(x))")
        seen = count_points(monkeypatch)
        fourier_primitive(F, 0.5)
        one = seen[0]
        ss = np.array([-3.0, 0.5, 7.0, 120.0])
        seen[0] = 0
        res = fourier_integral(F, ss)
        assert seen[0] == one
        assert res.converged.all()
        assert np.abs(res.value - 2.0 / (1.0 + ss ** 2)).max() <= 1e-12

    @pytest.mark.parametrize("src", ["exp(-x^2)", "x*exp(-x^2)", "exp(-abs(x))",
                                     "(x^2+1)^(-1)"])
    def test_work_flat_in_s(self, src, monkeypatch):
        F = parse_expr(src)
        seen = count_points(monkeypatch)
        points = {}
        for s in (0.5, 1000.0):
            seen[0] = 0
            fourier_primitive(F, s)
            points[s] = seen[0]
        assert points[1000.0] <= 1.5 * points[0.5], points

    @staticmethod
    def per_width(lo, hi, coef, s):
        # the reference: one spherical_jn call per distinct panel half-width
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        weighted = coef * quadrature._FL_MOMENT
        k = np.arange(quadrature._FL_N)
        out = np.zeros(s.size, dtype=complex)
        for h in np.unique(half):
            sel = half == h
            moments = spherical_jn(k, s[:, None] * h)
            phase = np.exp(-1j * np.outer(s, mid[sel]))
            out += h * np.einsum("qk,qk->q", moments, phase @ weighted[sel])
        return out

    @staticmethod
    def rounding_bound(lo, hi, coef, s):
        # 64 eps times the sum over panels and k of |h moment coefficient|:
        # the one einsum adds the per-width loop's terms in another order
        half = 0.5 * (hi - lo)
        k = np.arange(quadrature._FL_N)
        moments = np.abs(spherical_jn(k, s[:, None, None] * half[:, None]))
        terms = np.abs(coef * quadrature._FL_MOMENT) * half[:, None]
        return 64 * np.finfo(float).eps * np.einsum("qpk,pk->q", moments, terms)

    @staticmethod
    def batched(monkeypatch, n_panels, widths, s, batch=1 << 18):
        rng = np.random.default_rng(7)
        lo = np.sort(rng.uniform(-8.0, 8.0, n_panels))
        hi = lo + rng.choice(widths, lo.size)
        coef = rng.standard_normal((lo.size, quadrature._FL_N))
        calls = []

        def counted(k, z):
            calls.append(np.broadcast(k, z).size)
            return spherical_jn(k, z)

        monkeypatch.setattr(quadrature, "_FL_MOMENT_BATCH", batch)
        monkeypatch.setattr(quadrature, "_sp_spherical_jn", counted)
        got = quadrature._filon_sum(quadrature._fl_groups(lo, hi, coef), s)
        want = TestFilonRule.per_width(lo, hi, coef, s)
        assert np.all(np.abs(got - want) <= TestFilonRule.rounding_bound(lo, hi, coef, s))
        return calls

    @pytest.mark.parametrize("batch", (1 << 18, 200))
    def test_batched_moments_match_the_per_width_loop(self, batch, monkeypatch):
        s = np.array([-3.0, 0.5, 7.0, 120.0])
        calls = self.batched(monkeypatch, 40, [0.125, 0.25, 0.5, 1.0, 2.0], s, batch)
        # 5 widths at 4 s and 32 moments: one call, or one per s at 200,
        # where a single s's 40 panels already pass the batch
        assert len(calls) == (1 if batch > 40 * 4 * 32 else 4)
        assert max(calls) <= batch

    def test_many_s_are_chunked_too(self, monkeypatch):
        # 8,200 s at 6 panels and 32 moments is more than 2^18 terms: chunks
        # of 2^18 // (6 * 32) = 1,365 s, 2 widths each
        s = np.linspace(-50.0, 50.0, 8200)
        calls = self.batched(monkeypatch, 6, [0.5, 1.0], s)
        assert len(calls) == 7 and max(calls) <= 1 << 18

    def test_unmet_tolerance_raises_naming_layer_and_s(self):
        with pytest.raises(ConvergenceError, match=r"fourier: .*s=3\.0"):
            fourier_primitive(parse_expr("exp(-x^2)"), 3.0, QuadConfig(max_depth=1))

    def test_err_est_follows_the_factor_is(self):
        f = dist("exp(-abs(x))", 1.0)
        Fh = fourier_primitive(f.F, 4.0)
        assert Fh.err_est > 0.0
        assert fourier(f, 4.0).err_est == pytest.approx(4.0 * Fh.err_est, rel=1e-12)


class TestReuse:
    """The values of one distribution share its samplings across calls."""

    SIX = (0.7, 3.0, 20.0, 60.0, 300.0, 900.0)

    def test_six_calls_sample_once(self, monkeypatch):
        F = parse_expr("exp(-x^2)")
        f = PrimitiveDistribution(F, 1.0)
        seen = count_points(monkeypatch)
        Transform(F).values(self.SIX)
        together = seen[0]
        seen[0] = 0
        for s in self.SIX:
            fourier(f, s)
        assert seen[0] <= 1.1 * together, (seen[0], together)

    def test_sequential_values_match_fresh_ones(self):
        f = dist("exp(-x^2)", 1.0)
        for s in self.SIX:
            got = fourier(f, s).as_complex()
            fresh = 1j * s * fourier_primitive(f.F, s).as_complex()
            assert abs(got - fresh) <= 1e-12 * max(1.0, abs(got)), s

    @pytest.mark.parametrize("order", [(60.0, 0.5, 3.0, 60.0), (0.5, 3.0, 60.0, 0.5)])
    def test_singular_grade_after_reuse(self, order):
        # the closed form of test_singular_primitive; a call after a finer
        # one uses the finer grade, a finer one grades again
        mp = pytest.importorskip("mpmath")
        f = dist("abs(x)^(-0.5)*exp(-x^2)", 1.0)
        for s in order:
            want = 1j * s * float(mp.gamma(0.25) * mp.hyp1f1(0.25, 0.5, -s * s / 4))
            got = fourier(f, s)
            assert abs(got.as_complex() - want) <= max(1e-10 * s, got.err_est), s

    def test_power_tail_grows_after_reuse(self):
        # s = 0.5 needs a larger tail radius than s = 10, s = 3 a smaller one
        f = dist("(x^2+1)^(-1)", 1.0)
        for s in (10.0, 0.5, 3.0):
            got = fourier(f, s).as_complex()
            assert abs(got - 1j * s * math.pi * math.exp(-abs(s))) <= 1e-9, s
            fresh = 1j * s * fourier_primitive(f.F, s).as_complex()
            assert abs(got - fresh) <= 1e-12 * max(1.0, abs(got)), s

    def test_fourier_n_shares_one_sampling(self, monkeypatch):
        F = parse_expr("exp(-x^2)")
        f = NthDistribution(F, 1.0, 2)
        ss = (1.0, 2.5, 6.0)
        seen = count_points(monkeypatch)
        Transform(F).values(ss)
        together = seen[0]
        seen[0] = 0
        for s in ss:
            expected = (1j * s) ** 2 * SQRT_PI * math.exp(-s * s / 4)
            assert abs(fourier_n(f, s).as_complex() - expected) <= 1e-9, s
        assert seen[0] <= 1.1 * together, (seen[0], together)

    def test_samplings_live_on_the_distribution(self, monkeypatch):
        # a second distribution on the same expression samples afresh, and
        # another configuration replaces the kept transform
        F = parse_expr("exp(-abs(x))")
        f, g = PrimitiveDistribution(F, 1.0), PrimitiveDistribution(F, 1.0)
        fourier(f, 2.0)
        seen = count_points(monkeypatch)
        fourier(f, 5.0)
        assert seen[0] == 0
        fourier(g, 5.0)
        assert seen[0] > 0
        kept = transform_of(f)
        assert transform_of(f, QuadConfig(abs_tol=1e-9)) is not kept


class TestSamplingCalls:
    """A fresh sampling takes the core and the first two shell pairs in one
    _fl_segments call; its blocks are those of separate samplings."""

    @pytest.mark.parametrize("src, most", [("exp(-x^2)", 3), ("exp(-abs(x))", 2),
                                           ("exp(-(x-1.37)^2)", 1)])
    def test_fresh_sampling_rounds(self, src, most, monkeypatch):
        # 5, 4 and 3 rounds when the core and each shell pair were sampled apart
        calls = []
        fl_eval = quadrature._fl_eval

        def spy(f, lo, hi):
            calls.append(lo.size)
            return fl_eval(f, lo, hi)

        monkeypatch.setattr(quadrature, "_fl_eval", spy)
        assert quadrature.FourierSampling(parse_expr(src))(3.0).converged.all()
        assert len(calls) <= most, calls

    @pytest.mark.parametrize("src", ["exp(-x^2)", "x*exp(-x^2)", "exp(-abs(x))",
                                     "exp(-(x-1.37)^2)", "abs(x)^(-0.5)*exp(-x^2)",
                                     "exp(-abs(x)/64)"])
    def test_blocks_equal_separate_samplings(self, src, monkeypatch):
        F = parse_expr(src)
        segments = quadrature._fl_segments
        calls = []

        def spy(f, a, b, cfg, hmax):
            calls.append((np.array(a), np.array(b), hmax))
            return segments(f, a, b, cfg, hmax)

        monkeypatch.setattr(quadrature, "_fl_segments", spy)
        fs = quadrature.FourierSampling(F)
        fs(3.0)
        a, b, _ = calls[0]
        r = a[-4]
        assert np.array_equal(a[-4:], [r, -2 * r, 2 * r, -4 * r])
        assert np.array_equal(b[-4:], [2 * r, -r, 4 * r, -2 * r])
        shells = [blk for blk in fs._blocks[1:] if blk[1].size]
        assert len(shells) >= 2
        # one more call per shell pair beyond the first two, and the
        # singular grading's
        assert len([c for c in calls if c[2] == math.inf]) == len(shells) - 1
        alone = [segments(F, a[:-4], b[:-4], fs.cfg, math.inf)]
        alone += [segments(F, [q, -2 * q], [2 * q, -q], fs.cfg, math.inf)
                  for q in r * 2.0 ** np.arange(len(shells))]
        for blk, ((lo, hi, coef, _), _, err, ok, _) in zip(fs._blocks, alone):
            assert blk[0] == 0.0
            for got, want in zip(blk[1:4], (lo, hi, coef)):
                assert np.array_equal(got, want)
            assert blk[4] == err.sum() and blk[5] == ok.all()

    def test_power_tail_blocks_equal_separate_samplings(self):
        F = parse_expr("(x^2+1)^(-1)")
        fs = quadrature.FourierSampling(F)
        fs(0.5)
        shells = fs._blocks[1:]
        assert len(shells) >= 2
        for reach, lo, hi, coef, err, ok in shells:
            q = 0.5 * reach
            (lo1, hi1, coef1, _), _, err1, ok1, _ = quadrature._fl_segments(
                F, [q, -2 * q], [2 * q, -q], fs.cfg, math.inf)
            assert np.array_equal(lo, lo1) and np.array_equal(hi, hi1)
            assert np.array_equal(coef, coef1)
            assert err == err1.sum() and ok == ok1.all()

    def test_none_decay_with_nonzero_shell_raises(self):
        F = parse_expr("sin(x)")
        assert F.support is None and F.decay[0] == "none"
        with pytest.raises(ConvergenceError, match="decay class 'none'"):
            quadrature.FourierSampling(F)(3.0)


class TestOwnConfiguration:
    """Without a cfg, the Fourier operations on f integrate and sample with
    f's configuration."""

    CFG = QuadConfig(abs_tol=1e-6, rel_tol=1e-5)

    def test_operations_use_the_distribution_configuration(self, monkeypatch):
        module = sys.modules[Transform.__module__]
        seen = []
        for name in ("FourierSampling", "integrate_line"):
            def spy(*args, _engine=getattr(module, name), **kwargs):
                seen.append(args[1])
                return _engine(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)
        cfg = self.CFG
        F = parse_expr("exp(-abs(x))")
        f = PrimitiveDistribution(F, 1.0, cfg=cfg)
        f2 = PrimitiveDistribution(F, 2.0, cfg=cfg)
        operations = {
            "fourier": lambda: (fourier(f, 3.0), fourier(f, 0.0)),
            "fourier_n": lambda: fourier_n(NthDistribution(F, 1.0, 2, cfg=cfg), 3.0),
            "translation_modulation": lambda: translation_modulation(f, 0.5, 3.0),
            "exchange_identity": lambda: exchange_identity(
                PrimitiveDistribution(parse_expr("exp(-x^2)"), 1.0, cfg=cfg),
                parse_expr("exp(-x^2)")),
            "inner_product": lambda: inner_product(f2, f2),
        }
        for name, op in operations.items():
            seen.clear()
            op()
            assert seen and all(c == cfg for c in seen), name
        assert f._fourier.cfg == cfg


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

    def test_exchange_identity_nonzero_sides(self):
        # F = x e^(-x^2): f^(s) = (sqrt(pi)/2) s^2 e^(-s^2/4), so against
        # g = e^(-s^2) both sides equal pi / (4 (5/4)^(3/2))
        lhs, rhs = exchange_identity(dist("x*exp(-x^2)", 1.0), parse_expr("exp(-x^2)"))
        want = math.pi / (4.0 * 1.25 ** 1.5)
        assert abs(lhs.as_complex() - want) <= 1e-9
        assert abs(rhs.as_complex() - want) <= 1e-9

    def test_exchange_identity_shifted_density(self):
        # f^(s) = i s sqrt(pi) e^(-s^2/4) against g = e^(-(s-1)^2): completing
        # the square gives i (8/5) pi e^(-1/5) / sqrt(5) on both sides
        lhs, rhs = exchange_identity(dist("exp(-x^2)", 1.0), parse_expr("exp(-(x-1)^2)"))
        want = 1.6j * math.pi * math.exp(-0.2) / math.sqrt(5.0)
        assert abs(lhs.as_complex() - want) <= 1e-9
        assert abs(rhs.as_complex() - want) <= 1e-9

    def test_exchange_identity_work(self, monkeypatch):
        # the transforms at the outer nodes share one sampling per call: the
        # Gaussian case evaluated 2.86M points with one integral per node
        seen = count_points(monkeypatch)
        exchange_identity(dist("exp(-x^2)", 1.0), parse_expr("exp(-x^2)"))
        assert seen[0] <= 250_000

    def test_exchange_identity_reads_the_norm(self, norm_calls):
        # the "F in L^1" hypothesis is f's own norm: one integral per
        # distribution, none when the norm was read before
        f = dist("exp(-x^2)", 1.0)
        exchange_identity(f, parse_expr("exp(-x^2)"))
        exchange_identity(f, parse_expr("exp(-(x-1)^2)"))
        assert len(norm_calls) == 1
        with pytest.raises(ConvergenceError):
            exchange_identity(dist("1+0*x", 1.0), parse_expr("exp(-x^2)"))

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
