import math
import os
import platform
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from lprim import convolution, quadrature
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
from lprim.quadrature import DEFAULT_CONFIG, lp_norm
from lprim.verify import _YOUNG_EXPONENTS


def dist(src, p):
    return PrimitiveDistribution(parse_expr(src), p)


class TestReflect:
    def test_values_and_metadata(self):
        F = parse_expr("indicator(0,1)")
        R = F.affine(-1.0, 0.5)
        # F(0.5 - y) = chi_(0,1)(0.5 - y) = chi_(-0.5,0.5)(y)
        assert R.support == (-0.5, 0.5)
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

    @pytest.mark.parametrize("p,q", _YOUNG_EXPONENTS)
    @pytest.mark.parametrize("g_src", ["exp(-x^2)", "-2*x*exp(-x^2)", "exp(-abs(x))"])
    @pytest.mark.parametrize("F_src", ["exp(-x^2)", "x*exp(-x^2)"])
    def test_gaussian_type_products(self, F_src, g_src, p, q):
        # smooth products of verify's Young pools at the default configuration
        r = 1.0 / (1.0 / p + 1.0 / q - 1.0)
        res = conv_lq(dist(F_src, p), parse_expr(g_src), r)
        assert res.payload.norm <= res.diagnostics["young_bound"] + 1e-8
        if F_src == g_src == "exp(-x^2)":
            # e^{-x^2} * e^{-x^2} = sqrt(pi/2) e^{-x^2/2}
            want = math.sqrt(math.pi / 2) * (2 * math.pi / r) ** (1 / (2 * r))
            assert res.payload.norm == pytest.approx(want, rel=1e-8)

    def test_product_norm_starts_its_tails_at_the_window(self):
        # the sampled product's line integrals take its window as their
        # core; beyond it the tails integrate the direct convolution
        res = conv_lq(dist("exp(-x^2)", 1.0), parse_expr("exp(-x^2)"), 1.0)
        H = res.payload.F
        assert H.window == (-20.0, 20.0) and quadrature.extent(H) == H.window
        assert res.payload.norm == pytest.approx(math.pi, rel=1e-8)

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

    @pytest.mark.parametrize("g_src", ["exp(-abs(x))", "exp(-x^2)", "indicator(0,2)"])
    @pytest.mark.parametrize("p,r", [(1.0, 2.0), (1.5, 3.0)])
    def test_cauchy_tails_match_separate_norms(self, g_src, p, r):
        # the four norms of g, taken as one family, against one lp_norm
        # each of g and of the parsed g*(w_m - w_n) with g's decay
        f = dist("indicator(0,1)", p)
        g = parse_expr(g_src)
        q = 1.0 / (1.0 + 1.0 / r - 1.0 / p)
        res = conv_lq(f, g, r)
        cfg = DEFAULT_CONFIG

        def close(new, old):
            new, old = new ** q, old ** q
            assert abs(new - old) <= 2 * max(cfg.abs_tol, cfg.rel_tol * old)

        close(res.diagnostics["young_bound"] / f.norm, lp_norm(g, q, cfg))
        tails = res.diagnostics["cauchy_tail"]
        assert [(n, m) for n, m, _ in tails] == [(2, 4), (4, 8), (8, 16)]
        for n, m, tail in tails:
            wn = parse_expr(f"1/(1+exp(-{n}*({n}-abs(x))))")
            wm = parse_expr(f"1/(1+exp(-{m}*({m}-abs(x))))")
            close(tail / f.norm, lp_norm(replace(g * (wm - wn), decay=g.decay), q, cfg))

    def test_norms_of_g_share_one_scan_and_sampling_rounds(self, monkeypatch):
        # one sign-change scan of g, which changes sign at 1, for its norm
        # and the three tails, and one evaluator call per sampling round,
        # all segments together
        f = dist("indicator(-1,1)*(1-abs(x))", 1.5)
        g = parse_expr("indicator(0,2)*(1-x)")
        scanned, evaluations = [], []
        scan, sample = quadrature.find_sign_changes, convolution.sample_function

        def counting_scan(e, *args, **kwargs):
            scanned.append(e)
            return scan(e, *args, **kwargs)

        def counting_sample(evaluate, *args, **kwargs):
            def counted(xs):
                evaluations.append(1)
                return evaluate(xs)
            return sample(counted, *args, **kwargs)

        monkeypatch.setattr(quadrature, "find_sign_changes", counting_scan)
        monkeypatch.setattr(convolution, "sample_function", counting_sample)
        conv_lq(f, g, 3.0)
        assert sum(e is g for e in scanned) == 1
        assert 1 <= len(evaluations) <= 2

    def test_g_of_known_sign_takes_no_scan(self, monkeypatch):
        # chi_(0,2) >= 0: its norm and tails split at no zero, and
        # ||g||_q = 2^(1/q), q = 1.5 for p = 1.5 and r = 3
        f = dist("indicator(-1,1)*(1-abs(x))", 1.5)
        g = parse_expr("indicator(0,2)")
        scan, scanned = quadrature.find_sign_changes, []
        monkeypatch.setattr(quadrature, "find_sign_changes",
                            lambda e, *args: scanned.append(e) or scan(e, *args))
        res = conv_lq(f, g, 3.0)
        assert g.sign == 1 and not any(e is g for e in scanned)
        assert res.diagnostics["young_bound"] == pytest.approx(f.norm * 2.0 ** (1 / 1.5),
                                                               rel=1e-12)

    @pytest.mark.parametrize("product", ["conv", "star"])
    def test_array_density_equals_points(self, product):
        f = dist("indicator(0,1)", 1.0)
        if product == "conv":
            res = conv_lq(f, parse_expr("-2*x*exp(-x^2)"), 1.0, tol=1e-8)
        else:
            res = star(f, dist("exp(-x^2)", 1.0))
        xs = np.linspace(-2.0, 3.0, 21)
        each = [res.density_at(x) for x in xs]
        assert all(type(v) is float for v in each)
        np.testing.assert_allclose(res.density_at(xs), each, rtol=1e-13, atol=1e-15)
        assert res.density_at(xs.reshape(3, 7)).shape == (3, 7)


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

    def test_sampled_product_norm_bisects_no_bracket(self, monkeypatch):
        # chi_(0,1) * e^(-x^2) > 0, but its cubic panels ripple to about
        # -2e-14 beyond |x| = 5: false zeros at floor 0, while lp_norm's
        # floor drops every bracket, so that its scan is the one call
        find, values = quadrature.find_sign_changes, FunctionExpr.values
        found, calls = [], []

        def counted(self, xs):
            calls.append(1)
            return values(self, xs)

        def spy(e, a, b, n, floor):
            found.append(find(e, a, b, n))
            monkeypatch.setattr(FunctionExpr, "values", counted)
            found.append(find(e, a, b, n, floor))
            monkeypatch.setattr(FunctionExpr, "values", values)
            return found[-1]

        monkeypatch.setattr(quadrature, "find_sign_changes", spy)
        res = star(dist("indicator(0,1)", 1.0), dist("exp(-x^2)", 1.0))
        assert res.payload.norm == pytest.approx(math.sqrt(math.pi), rel=1e-9)
        every, kept = found
        assert len(every) >= 1 and min(map(abs, every)) > 5.0
        assert kept == [] and len(calls) == 1

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


_WARM_PRODUCTS = """import resource
from lprim import PrimitiveDistribution, conv_lq, parse_expr
f, g = PrimitiveDistribution(parse_expr("indicator(0,1)"), 1.0), parse_expr("exp(-x^2)")
for _ in range(2):
    conv_lq(f, g, 1.0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(3):
    conv_lq(f, g, 1.0)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap thresholds")
def test_warm_products_reuse_the_heap():
    # the numpy temporaries of a warm request come from heap pages freed by
    # the last one, not from fresh pages (about 1,500 faults for these
    # three requests when glibc trims the heap after each); a fresh
    # interpreter, as the imports of a test run move glibc's thresholds
    src = os.path.dirname(os.path.dirname(os.path.abspath(convolution.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _WARM_PRODUCTS], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 200
