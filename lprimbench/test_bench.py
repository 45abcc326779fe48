"""Tests of the benchmark itself: oracles against a second computation,
perturbed answers counted as failed, and repeatable traced counts.

    python3 -m pytest lprimbench -q
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np
import pytest
from scipy.integrate import quad

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import oracles as O  # noqa: E402
import streams  # noqa: E402
import tracer as tracing  # noqa: E402


def line_quad(f, pts=(-1.0, 0.0, 1.0, 2.0)):
    """scipy quad over the real line, split at the given points."""
    edges = [-np.inf, *pts, np.inf]
    return sum(quad(f, a, b, limit=200, epsabs=1e-13, epsrel=1e-12)[0]
               for a, b in zip(edges, edges[1:]))


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_member_norms_against_quadrature(p):
    cases = {
        "gaussian": lambda x: math.exp(-x * x),
        "tent": lambda x: max(0.0, 1.0 - abs(x - 1.0)),
        "power_tail(2.5)": lambda x: x * (abs(x) + 1.0) ** -2.5,
        "power_tail(4)": lambda x: x * (abs(x) + 1.0) ** -4.0,
        "gamma_cusp(0.25)": lambda x: abs(x) ** -0.25 * math.exp(-abs(x)),
        "log_cusp": lambda x: math.log(abs(x)) * math.exp(-abs(x)),
    }
    for name, F in cases.items():
        want = line_quad(lambda x: abs(F(x)) ** p) ** (1.0 / p)
        assert O.member_norm(name, p) == pytest.approx(want, rel=1e-9), name


def test_closed_forms_against_stored_mpmath():
    assert O.weierstrass_l2_norm() == pytest.approx(
        O.reference(O.key("norm", "weierstrass(6)", 2.0)), rel=1e-13)
    assert math.sqrt(math.pi) == pytest.approx(
        O.reference(O.key("norm", "sin_over_abs", 2.0)), rel=1e-13)


def test_stored_pairs_against_quadrature():
    members = {"gaussian": lambda x: math.exp(-x * x),
               "log_cusp": lambda x: math.log(abs(x)) * math.exp(-abs(x)),
               "tent": lambda x: max(0.0, 1.0 - abs(x - 1.0))}
    for name, F in members.items():
        for dname in O.DENSITIES:
            g = O.DENSITY_VALUES[dname]
            want = -line_quad(lambda x: F(x) * g(x, math))
            got = O.reference(O.key("pair", name, dname))
            assert got == pytest.approx(want, abs=1e-10), (name, dname)


def test_cantor_bracket_is_tight_and_consistent():
    for p in (1.5, 2.0):
        lo, hi = O.cantor_norm_bracket(p)
        assert 0 < hi - lo < 1e-8 * hi
        assert lo == pytest.approx(O.reference(O.key("cantor_norm", p, "lo")), rel=1e-14)
    # a coarser level brackets the finer one
    weight = lambda x: np.exp(-x * x)
    fine = O.cantor_bracket(weight, 1.0)
    level, O.CANTOR_LEVEL = O.CANTOR_LEVEL, 10
    try:
        coarse = O.cantor_bracket(weight, 1.0)
    finally:
        O.CANTOR_LEVEL = level
    assert coarse[0] <= fine[0] <= fine[1] <= coarse[1]


CONV_CASES = list(dict.fromkeys([(F, g) for F, g, _, _ in streams.YOUNG_SLOTS]
                                + list(streams.STAR_SLOTS)))
FUNCS = {
    "box01": lambda y: 1.0 if 0.0 < y < 1.0 else 0.0,
    "box02": lambda y: 1.0 if 0.0 < y < 2.0 else 0.0,
    "tent": lambda y: max(0.0, 1.0 - abs(y)),
    "gauss": lambda y: math.exp(-y * y),
    "xgauss": lambda y: y * math.exp(-y * y),
    "dgauss": lambda y: -2.0 * y * math.exp(-y * y),
    "expabs": lambda y: math.exp(-abs(y)),
}
DERIVS = {
    "gauss": lambda y: -2.0 * y * math.exp(-y * y),
    "dgauss": lambda y: (4.0 * y * y - 2.0) * math.exp(-y * y),
    "expabs": lambda y: -math.copysign(1.0, y) * math.exp(-abs(y)),
    "tent": lambda y: (1.0 if -1.0 < y < 0.0 else -1.0 if 0.0 < y < 1.0 else 0.0),
}


@pytest.mark.parametrize("F,g", CONV_CASES)
def test_convolutions_against_quadrature(F, g):
    for x in (-1.375, 0.25, 0.5, 2.125):
        pts = sorted({x - a for a in (-1.0, 0.0, 1.0, 2.0)} | {-1.0, 0.0, 1.0, 2.0})
        want = line_quad(lambda y: FUNCS[F](x - y) * FUNCS[g](y), pts)
        assert O.conv_primitive(F, g, x) == pytest.approx(want, abs=1e-11)
        if g in DERIVS:
            want = line_quad(lambda y: FUNCS[F](x - y) * DERIVS[g](y), pts)
            assert O.conv_density(F, g, x) == pytest.approx(want, abs=1e-11)


def test_factor_norms_against_quadrature():
    for p in (1.0, 1.5, 2.0, 3.0):
        for F in ("box01", "tent", "gauss", "xgauss"):
            want = line_quad(lambda y: abs(FUNCS[F](y)) ** p) ** (1 / p)
            assert O.primitive_norm(F, p) == pytest.approx(want, rel=1e-10)
        for g in ("gauss", "dgauss", "box02", "expabs"):
            want = line_quad(lambda y: abs(FUNCS[g](y)) ** p) ** (1 / p)
            assert O.density_norm(g, p) == pytest.approx(want, rel=1e-10)


def _kernel_dx(u, y, n):
    """n-th derivative in u of (y/pi)/(u^2+y^2)."""
    z = complex(u, y)
    # (y/pi)/(u^2+y^2) = -(1/pi) Im 1/z, and d^n/du^n 1/z = (-1)^n n! / z^(n+1)
    return -((-1) ** n * math.factorial(n) / z ** (n + 1)).imag / math.pi


@pytest.mark.parametrize("datum,n", streams.VALUE_DATA)
def test_extensions_against_quadrature(datum, n):
    F = {"box": lambda t: 1.0 if -1.0 < t < 1.0 else 0.0,
         "gauss": lambda t: math.exp(-t * t),
         "xgauss": lambda t: t * math.exp(-t * t)}[datum]
    for x, y in ((0.3, 0.1), (-1.7, 1.0), (2.0, 10.0)):
        want = line_quad(lambda t: F(t) * _kernel_dx(x - t, y, n), (-1.0, x, 1.0))
        assert O.extension(datum, n, x, y) == pytest.approx(want, rel=1e-8, abs=1e-11)


def test_fourier_against_quadrature():
    F = {"box": lambda x: 1.0 if -1.0 < x < 1.0 else 0.0,
         "gauss": lambda x: math.exp(-x * x),
         "xgauss": lambda x: x * math.exp(-x * x),
         "expabs": lambda x: math.exp(-abs(x)),
         "lorentz": lambda x: 1.0 / (1.0 + x * x)}
    for name, f in F.items():
        hi = 1.0 if name == "box" else np.inf  # halves of the line, split at the kink

        def half(g, weight, s):
            return quad(g, 0.0, hi, weight=weight, wvar=s)[0]

        for s in (0.5, 1.7, 6.0):
            re = half(f, "cos", s) + half(lambda x: f(-x), "cos", s)
            im = half(lambda x: f(-x), "sin", s) - half(f, "sin", s)
            want = 1j * s * complex(re, im)
            assert abs(O.fourier_hat(name, s) - want) < 1e-8, (name, s)


def _first_quick(workload, kinds):
    """The first request of each kind that answers within 2 s, with its answer."""
    import time

    out = {}
    for req in streams.build(workload, 1):
        if req.kind in kinds and req.kind not in out:
            t0 = time.perf_counter()
            ans = req.run()
            if time.perf_counter() - t0 < 2.0:
                out[req.kind] = (req, ans)
    return out


@pytest.mark.parametrize("workload,kinds", [
    ("duality", ("norm", "pair", "dualnorm")),
    ("convolution", ("conv", "star")),
    ("halfplane", ("poisson", "gap")),
    ("fourier", ("fourier", "translation")),
])
def test_answers_pass_and_perturbed_answers_fail(workload, kinds):
    found = _first_quick(workload, kinds)
    assert set(found) == set(kinds)
    for req, ans in found.values():
        assert req.check(ans) <= 1.0, req.label
        for i in range(len(ans)):
            bad = list(ans)
            bad[i] = ans[i] * (1 + 1e-3) + 1e-3
            assert req.check(tuple(bad)) > 1.0, (req.label, i)
        assert req.check(tuple(math.nan for _ in ans)) > 1.0


def test_raised_and_missed_answers_fail_and_raised_times_are_left_out():
    import run

    req = streams.Request("k", "k", lambda: (1.0,), lambda a: 0.0 if a[0] == 1.0 else math.inf)
    passes = [([0.5, 0.1], [ValueError("boom"), (1.0,)]),
              ([0.2, 0.3], [(1.0,), (2.0,)])]
    failed, _, messages = run.check_answers([req, req], passes)
    assert failed == 2 and len(messages) == 2
    ref = run.CAL_REF_S
    scaled, slowdowns = run.scaled_times(passes, [[ref, 3 * ref, 2 * ref], [ref]])
    assert slowdowns == [2.0, 1.0]
    assert scaled == pytest.approx([0.05, 0.2, 0.3])


def test_traced_counts_repeat():
    reqs = [r for r in streams.build("fourier", 3) if r.kind == "translation"][:3]
    counts = []
    for _ in range(2):
        t = tracing.Tracer()
        t.install()
        try:
            for r in reqs:
                t.call("request." + r.kind, r.run)
        finally:
            t.uninstall()
        tot = t.totals()
        counts.append({n: (int(tot["calls"][i]), int(tot["points"][i]))
                       for i, n in enumerate(t.names)})
    assert counts[0] == counts[1]
    assert counts[0]["expr.FunctionExpr.values"][1] > 0
