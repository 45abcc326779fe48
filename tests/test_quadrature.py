import math
import re

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


class TestTailRule:
    """Every decaying tail beyond the radius r is pulled back to (0, 1]
    and integrated there; power tails by x = +-r/t, the others by
    x = +-(r + (1 - t)/t)."""

    def test_frequency_scan(self):
        # the integral of e^{-|x|} cos(kx) is 2/(1 + k^2)
        for k in range(2, 201):
            res = integrate_line(parse_expr(f"exp(-abs(x))*cos({k}*x)"))
            assert res.converged, k
            assert abs(res.value - 2.0 / (1.0 + k * k)) <= 1e-9, k

    @pytest.mark.parametrize("src,want", [
        ("exp(-abs(x)/50)", 100.0),
        ("exp(-abs(x)/1000)", 2000.0),
        ("exp(-1e-6*x^2)", math.sqrt(math.pi * 1e6)),
        ("x^8*exp(-abs(x))", 2.0 * math.factorial(8)),
        ("exp(-abs(x)^1.5)", 2.0 * math.gamma(5.0 / 3.0)),
    ])
    def test_slow_and_wide_tails(self, src, want):
        res = integrate_line(parse_expr(src))
        assert res.converged
        assert abs(res.value - want) <= max(res.err_est, 1e-10 * want)

    def test_periodic_none_class_refused(self):
        with pytest.raises(ConvergenceError):
            integrate_line(parse_expr("sin(x)"))

    def test_none_class_with_vanishing_tails(self):
        f = parse_expr("piecewise(x < -1 -> 0, x < 1 -> 1 - abs(x), else -> 0)")
        assert f.decay == ("none",) and f.support is None
        res = integrate_line(f)
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("src", ["exp(-x^2)", "exp(-abs(x))"])
    def test_two_pool_calls(self, monkeypatch, src):
        # one for [-r, r], one for both mapped tails
        calls = []
        engine = quadrature._adaptive_gk

        def counting(*args, **kwargs):
            calls.append(args)
            return engine(*args, **kwargs)

        monkeypatch.setattr(quadrature, "_adaptive_gk", counting)
        assert integrate_line(parse_expr(src)).converged
        assert len(calls) == 2


class TestWideSupports:
    """A support is integrated as given, however wide."""

    def test_line_integral(self):
        res = integrate_line(parse_expr("indicator(0,2e6)"))
        assert res.converged
        assert res.value == pytest.approx(2e6, rel=1e-12)

    def test_norm(self):
        assert lp_norm(parse_expr("indicator(0,4e6)"), 1.0) == pytest.approx(4e6, rel=1e-12)


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

    def test_convolution_splits_at_the_moved_kernel_centre(self):
        # K(x - y) with K = e^{-x^2} peaks at y = x, which no feature point
        # marks: the family splits there and widens its radius to cover it
        def exact(x):  # e^{-x^2} * e^{-|x|}
            return SQRT_PI / 2 * math.exp(0.25) * (
                math.exp(-x) * math.erfc(0.5 - x) + math.exp(x) * math.erfc(0.5 + x))

        xs = np.array([0.0, 5.0, 17.86, 30.0])
        fam = convolve(parse_expr("exp(-x^2)"), parse_expr("exp(-abs(x))"), xs)
        assert fam.converged.all()
        assert fam.value == pytest.approx([exact(x) for x in xs], rel=1e-8, abs=1e-12)
        flat = convolve(parse_expr("exp(-x^2)"), parse_expr("1+0*x"), np.array([50.0]))
        assert flat.value[0] == pytest.approx(SQRT_PI, rel=1e-12)

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

    def test_floor_drops_only_brackets_small_at_both_ends(self):
        f = parse_expr("1e-3*(x - 0.5)")
        # one cell [0, 1]: -5e-4 and 5e-4 at its ends, both below the floor
        assert find_sign_changes(f, 0.0, 1.0, 1, 1e-3) == []
        # one cell [0, 2]: -5e-4 and 1.5e-3, one end above it
        assert find_sign_changes(f, 0.0, 2.0, 1, 1e-3) == pytest.approx([0.5], abs=1e-15)

    @pytest.mark.parametrize("name,f,a,b,n", list(_scan_cases()),
                             ids=[c[0] for c in _scan_cases()])
    def test_batched_matches_scalar_bisection(self, name, f, a, b, n):
        assert find_sign_changes(f, a, b, n) == scalar_sign_changes(f, a, b, n)

    def test_few_brackets_take_several_steps_a_call(self, monkeypatch):
        # two brackets: the 15 midpoints of 4 steps each per call; the
        # brackets reach adjacent floats after 11 calls (44 steps), not 60
        values, calls = FunctionExpr.values, []

        def counted(self, xs):
            calls.append(np.size(xs))
            return values(self, xs)

        monkeypatch.setattr(FunctionExpr, "values", counted)
        zeros = find_sign_changes(parse_expr("sin(x)"), 0.5, 7.0)
        assert len(calls) <= 12 and calls[1:] == [30] * 11
        assert np.allclose(zeros, [math.pi, 2 * math.pi], rtol=0.0, atol=1e-12)

    def test_brackets_stop_at_adjacent_floats(self, monkeypatch):
        # weierstrass(6) at lp_norm's 8 points a wavelength: 240 brackets
        # of width 1e-3, one midpoint each a call; every bracket reaches
        # adjacent floats before step 45, and the zeros are those of 60 steps
        m = weierstrass()
        reference = scalar_sign_changes(m.expr, -8.0, 8.0, 15551)
        values, calls = FunctionExpr.values, []

        def counted(self, xs):
            calls.append(np.size(xs))
            return values(self, xs)

        monkeypatch.setattr(FunctionExpr, "values", counted)
        assert find_sign_changes(m.expr, -8.0, 8.0, 15551) == reference
        assert len(reference) == 240 and len(calls) <= 46

    def test_weierstrass_scan_resolves_wavelength(self, monkeypatch):
        # lp_norm scans 8 points per oscillation wavelength: a 2,048-cell
        # grid misses the zero pairs that fall inside one cell
        m = weierstrass()
        cfg = QuadConfig.from_env(osc_wavelength=m.osc_wavelength)
        values, find = FunctionExpr.values, quadrature.find_sign_changes
        calls, found = [], []

        def counted(self, xs):
            calls.append(1)
            return values(self, xs)

        def spy(f, a, b, n, floor):
            monkeypatch.setattr(FunctionExpr, "values", counted)
            found.append(find(f, a, b, n, floor))
            monkeypatch.setattr(FunctionExpr, "values", values)
            found.append(find(f, a, b, n))  # every zero, as at floor 0
            return found[-2]

        monkeypatch.setattr(quadrature, "find_sign_changes", spy)
        norm = lp_norm(m.expr, 1.0, cfg)
        kept, every = found
        assert len(every) == 240
        # lp_norm's floor (1e-10 / (100 * 16))^1 = 6.25e-14 drops the 90
        # zeros of the e^(-x^2) tail, where |f| is below it at both ends
        dropped = sorted(set(every) - set(kept))
        assert len(kept) == 150 and len(dropped) == 90 and set(kept) <= set(every)
        assert np.abs(m.expr.values(np.array(dropped))).max() < 6.25e-14
        # one scan plus at most 60 bisection steps over all brackets at once
        assert len(calls) <= 62
        assert abs(norm - WEIERSTRASS_L1) <= 1e-12 * WEIERSTRASS_L1

    def test_norm_of_a_known_sign_takes_no_scan(self, monkeypatch):
        # L^2 norms: e^(-x^2) >= 0 and -chi_(0,2) <= 0 take no scan, while
        # x e^(-x^2), of unknown sign, takes one
        find, scanned = quadrature.find_sign_changes, []
        monkeypatch.setattr(quadrature, "find_sign_changes",
                            lambda f, *args: scanned.append(f) or find(f, *args))
        for src, norm in [("exp(-x^2)", (math.pi / 2) ** 0.25), ("-indicator(0,2)", 2.0 ** 0.5),
                          ("x*exp(-x^2)", (math.pi / 32) ** 0.25)]:
            f = parse_expr(src)
            assert lp_norm(f, 2.0) == pytest.approx(norm, rel=1e-10)
            assert scanned == ([f] if src.startswith("x") else []), src


def reference_tanh_sinh(fn, owner, a, b, cfg):
    """Reference: the tanh-sinh rule evaluated one level per call, levels
    0-3 included, with the same per-interval rules."""
    n = a.size
    value, err, conv = np.zeros(n), np.zeros(n), np.ones(n, dtype=bool)
    total, prev_delta, first = np.zeros(n), np.full(n, np.nan), np.full(n, np.nan)
    last3 = np.full((n, 3), np.nan)
    count = np.zeros(n, dtype=int)
    act = np.nonzero(b > a)[0]
    for level in range(quadrature._TS_MAX_LEVEL + 1):
        if act.size == 0:
            break
        h, ts, w, off = quadrature._ts_nodes(level)
        s = 0.5 * (b[act] - a[act])
        xs = np.where(ts <= 0, a[act, None], b[act, None]) + s[:, None] * off
        ok = (xs > a[act, None]) & (xs < b[act, None]) & (w > 0)
        vals = np.zeros(xs.shape)
        vals[ok] = fn(np.broadcast_to(owner[act, None], xs.shape)[ok], xs[ok])
        vals = np.where(np.isfinite(vals), vals, 0.0) * w
        band = np.abs(ts) >= quadrature._TS_TMAX - 0.75
        contrib = s * h * vals.sum(axis=1)
        outer = s * h * np.abs(vals[:, band]).sum(axis=1)
        has = ok.any(axis=1)
        if level == 0:
            if np.any(has & (outer > np.maximum(1e-7, 1e-5 * np.abs(contrib)))):
                raise IntegrabilityError(
                    "endpoint singularity too strong: integrability not certified")
            est = contrib
        else:
            est = 0.5 * total[act] + contrib
        upd, est = act[has], est[has]
        total[upd] = est
        count[upd] += 1
        first[upd] = np.where(np.isnan(first[upd]), est, first[upd])
        last3[upd] = np.column_stack([last3[upd, 1], last3[upd, 2], est])
        delta = np.abs(est - last3[upd, 1])
        tol = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(est))
        fin = (delta <= tol) & (level >= 3)
        if level >= 6 and np.any(~fin & (delta > 4.0 * prev_delta[upd]) & (
                np.abs(est) > 10.0 * np.maximum(1.0, np.abs(first[upd])))):
            raise IntegrabilityError("tanh-sinh refinement diverges: non-integrable singularity")
        value[upd[fin]], err[upd[fin]] = est[fin], delta[fin]
        prev_delta[upd] = delta
        keep = np.ones(act.size, dtype=bool)
        keep[np.nonzero(has)[0][fin]] = False
        act = act[keep]
    rest = act
    steps = np.abs(np.diff(last3[rest], axis=1))
    if np.any((count[rest] >= 4) & (steps[:, 1] >= steps[:, 0])
              & (np.abs(last3[rest, 2]) > 1e6)):
        raise IntegrabilityError(
            "tanh-sinh estimates grow without bound: non-integrable singularity")
    value[rest] = total[rest]
    err[rest] = np.where(count[rest] > 1, np.abs(total[rest] - last3[rest, 1]), np.inf)
    conv[rest] = False
    return quadrature.FamilyResult(value, err, conv)


class TestTanhSinh:
    """The rule that evaluates levels 0-3 in one call against the reference
    that takes one call per level, on every interval the engine hands it."""

    @pytest.fixture
    def compared(self, monkeypatch):
        rule, seen = quadrature._tanh_sinh, []

        def both(fn, owner, a, b, cfg):
            try:
                want = reference_tanh_sinh(fn, owner, a, b, cfg)
            except IntegrabilityError as exc:
                with pytest.raises(IntegrabilityError, match=str(exc)):
                    rule(fn, owner, a, b, cfg)
                seen.append(None)
                raise
            got = rule(fn, owner, a, b, cfg)
            for field in ("value", "err_est", "converged"):
                assert np.array_equal(getattr(got, field), getattr(want, field)), field
            seen.append(a.size)
            return got

        monkeypatch.setattr(quadrature, "_tanh_sinh", both)
        return seen

    @pytest.mark.parametrize("m", [m for m in corpus_members() if m.expr.singularities],
                             ids=lambda m: m.name)
    def test_singular_pieces_of_the_corpus(self, compared, m):
        # the pieces next to each singular point
        lp_norm(m.expr, 1.5, QuadConfig.from_env(osc_wavelength=m.osc_wavelength))
        assert compared and all(compared)

    @pytest.mark.parametrize("m", [m for m in corpus_members()
                                   if m.expr.decay[0] == "power" and m.expr.decay[1] > 1.0],
                             ids=lambda m: m.name)
    def test_power_tail_maps(self, compared, m):
        # both tails, x = r/t and x = -r/t, singular at t = 0
        integrate_line(m.expr)
        assert 2 in compared

    def test_level_zero_refusal(self, compared):
        with pytest.raises(IntegrabilityError, match="endpoint singularity too strong"):
            integrate(parse_expr("sing(1/abs(x), 0)"), -1.0, 1.0)
        assert compared == [None]

    @pytest.mark.parametrize("a, b, piece", [(-1.0, 1.0, "[-1.0, 0.0]"),
                                             (0.0, 2.0, "[0.0, 2.0]")])
    def test_refusal_names_the_interval(self, a, b, piece):
        with pytest.raises(IntegrabilityError, match=re.escape(f"certified on {piece}")):
            integrate(parse_expr("sing(1/abs(x), 0)"), a, b)

    def test_convergence_at_level_three_takes_one_call(self):
        calls = []

        def fn(owner, ys):
            calls.append(ys.size)
            return np.exp(ys)

        res = quadrature._tanh_sinh(fn, np.zeros(1, dtype=int), np.zeros(1), np.ones(1),
                                    DEFAULT_CONFIG)
        assert bool(res.converged[0]) and abs(res.value[0] - (math.e - 1.0)) <= 1e-14
        assert len(calls) == 1


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
        # sample_function evaluates all its live panels' points in one
        # family call; a panel's samples are those it would get alone only
        # if each owner's value and err_est are the same in every batch
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

    def test_lone_splits_and_many_splits_in_one_batch(self, monkeypatch):
        # owners 0-2 need one panel split a round, which cuts it in four;
        # owners 3-5 need many, which bisect: both kinds share the third
        # round, and each owner's value is still the one it gets alone
        cs = np.array([0.3, 0.37, 0.61, 0.0, 0.0, 0.0])
        ks = np.array([0.0, 0.0, 0.0, 30.0, 40.0, 55.0])

        def fn(j, t):
            return np.where(ks[j] > 0, np.sin(ks[j] * t), np.abs(t - cs[j]) ** 1.5)

        widths, panels = [], quadrature._gk_panels

        def recorded(fn, owner, lo, hi, rounding):
            widths.append({int(j): set((hi - lo)[owner == j]) for j in set(owner.tolist())})
            return panels(fn, owner, lo, hi, rounding)

        def run(owners, group):
            n = owners.size
            return quadrature._adaptive_gk(lambda j, t: fn(owners[j], t), np.arange(n),
                                           np.zeros(n), np.ones(n), DEFAULT_CONFIG,
                                           np.arange(n) if group else None)

        every = np.arange(6)
        monkeypatch.setattr(quadrature, "_gk_panels", recorded)
        run(every, False)
        monkeypatch.setattr(quadrature, "_gk_panels", panels)
        assert [widths[2][j] for j in every] == [{0.0625}] * 3 + [{0.125}] * 3
        for group in (False, True):
            full = run(every, group)
            for size in range(1, 7):
                for start in range(7 - size):
                    part = run(every[start:start + size], group)
                    np.testing.assert_array_equal(part.value, full.value[start:start + size])
                    np.testing.assert_array_equal(part.err_est,
                                                  full.err_est[start:start + size])

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_splits_stay_within_max_depth(self, monkeypatch, depth):
        # a lone panel cuts in four only while two more levels are allowed:
        # one level above max_depth it bisects
        widths, panels = [], quadrature._gk_panels

        def recorded(fn, owner, lo, hi, rounding):
            widths.extend(hi - lo)
            return panels(fn, owner, lo, hi, rounding)

        monkeypatch.setattr(quadrature, "_gk_panels", recorded)
        quadrature._adaptive_gk(lambda j, t: np.abs(t - 0.3) ** 0.5, np.zeros(1, int),
                                np.zeros(1), np.ones(1), QuadConfig(max_depth=depth))
        assert min(widths) == 2.0 ** -depth


class TestSpecialFunctions:
    """The special functions quadrature computes itself, against mpmath at
    30 digits, and the Filon moments against scipy's public spherical_jn."""

    @pytest.mark.parametrize("beta", [1.05, 1.5, 2.0, 3.0, 6.0])
    def test_hurwitz_zeta(self, beta):
        mpmath = pytest.importorskip("mpmath")
        qs = np.concatenate([np.geomspace(0.5, 1e4, 80), np.linspace(11.0, 23.0, 25)])
        with mpmath.workdps(30):
            want = np.array([float(mpmath.zeta(beta, mpmath.mpf(q))) for q in qs])
        # w = q + 9 is rounded before w^(1 - beta): up to beta/2 ulps more
        assert np.all(np.abs(quadrature.hurwitz_zeta(beta, qs) - want)
                      <= 6 * np.spacing(want))

    def test_binomials_of_integers_are_exact(self):
        mpmath = pytest.importorskip("mpmath")
        for n in range(41):
            want = [float(mpmath.binomial(n, j)) for j in range(n + 1)]
            assert quadrature.binomials(n, n).tolist() == want

    @pytest.mark.parametrize("r", [0.5, 1.2345, 1.5, 2.25, 2.7, 3.3, 7.1])
    def test_binomials_of_reals(self, r):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            want = np.array([float(mpmath.binomial(mpmath.mpf(r), j)) for j in range(18)])
        got = quadrature.binomials(r, 17)
        assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))

    def test_filon_moments_match_spherical_jn(self):
        from scipy.special import spherical_jn

        z = np.concatenate([-np.geomspace(1e-3, 2e3, 60), [-0.0, 0.0],
                            np.geomspace(1e-3, 2e3, 60)])[:, None, None]
        k = np.arange(quadrature._FL_N)
        assert np.array_equal(quadrature._sp_spherical_jn(k, z), spherical_jn(k, z))
