"""Named verification suites: each suite re-derives a cluster of the
library's defining identities and inequalities at fixed tolerances and
reports pass/fail per check.  ``run_suites`` drives the CLI's ``verify``
subcommand.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .convolution import conv_lq, incompatibility_exhibit, star
from .corpus import corpus_members
from .errors import LprimError
from .fourier import dfhat_vs_hatdf_exhibit, fourier, inner_product, parseval_check
from .lpspace import (
    Multiplier,
    PrimitiveDistribution,
    abs_distribution,
    conjugate,
    dual_norm,
    pair,
)
from .parser import parse_expr
from .poisson import (
    HalfPlanePoint,
    _kernel_expr,
    boundary_convergence,
    harmonic_extension,
    harmonicity_residual,
)
from .quadrature import integrate_line, lp_norm


@dataclass(frozen=True)
class CheckRecord:
    suite: str
    name: str
    passed: bool
    value: float
    tolerance: float

    def row(self):
        return (f"{self.suite}:{self.name}",
                "pass" if self.passed else "FAIL",
                self.value, self.tolerance)


def _dist(member, p, cache={}):
    key = (member.name, p)
    if key not in cache:
        cache[key] = PrimitiveDistribution(
            member.expr, p, osc_wavelength=member.osc_wavelength
        )
    return cache[key]


_DENSITY_POOL = (
    "exp(-x^2)",
    "exp(-abs(x))",
    "indicator(-1,2)",
    "(x^2+1)^(-1)",
    "cos(x)*exp(-x^2)",
    "x*exp(-x^2)",
)


def _multiplier(src, q, cache={}):
    key = (src, q)
    if key not in cache:
        cache[key] = Multiplier(parse_expr(src), q)
    return cache[key]


def suite_holder(tol=1e-8, pairs=200, seed=7):
    """|∫ f G| <= ||f||'_p ||G||_{I,q} on random corpus pairings."""
    rng = random.Random(seed)
    records = []
    worst = -math.inf
    for _ in range(pairs):
        p = rng.choice((1.0, 1.5, 2.0, 3.0))
        member = rng.choice(corpus_members(p))
        f = _dist(member, p)
        G = _multiplier(rng.choice(_DENSITY_POOL), conjugate(p))
        margin = abs(pair(f, G)) - f.norm * G.norm
        worst = max(worst, margin)
    records.append(CheckRecord("holder", f"{pairs}-random-pairs-worst-margin",
                               worst <= tol, worst, tol))
    return records


def suite_dualnorm(tol=1e-6):
    """sup over unit multipliers attains the norm (computed witness)."""
    records = []
    for p in (1.5, 2.0, 3.0):
        for member in corpus_members(p):
            f = _dist(member, p)
            rel = abs(dual_norm(f) - f.norm) / f.norm
            records.append(CheckRecord(
                "dualnorm", f"{member.name}@p={p:g}", rel <= tol, rel, tol))
    return records


def suite_lattice(tol=1e-8, seed=11):
    """|f| has the same norm; the L'^1 norm is additive on disjoint
    positive pairs."""
    records = []
    for p in (1.0, 2.0):
        for member in corpus_members(p):
            f = _dist(member, p)
            gap = abs(abs_distribution(f).norm - f.norm)
            records.append(CheckRecord(
                "lattice", f"abs-{member.name}@p={p:g}", gap <= tol, gap, tol))
    rng = random.Random(seed)
    for i in range(20):
        a = rng.uniform(0.2, 2.0)
        b = rng.uniform(0.2, 2.0)
        c = rng.uniform(2.5, 6.0)
        f = PrimitiveDistribution(parse_expr(f"{a!r}*indicator(0,1)"), 1.0)
        g = PrimitiveDistribution(
            parse_expr(f"{b!r}*exp(-(x-{c!r})^2)*indicator({c - 2.0!r},{c + 2.0!r})"),
            1.0,
        )
        gap = abs((f + g).norm - (f.norm + g.norm))
        records.append(CheckRecord(
            "lattice", f"additivity-{i}", gap <= tol, gap, tol))
    return records


_YOUNG_EXPONENTS = ((1.0, 1.0), (1.0, 2.0), (1.0, 3.0), (1.5, 2.0),
                    (2.0, 1.0), (3.0, 1.0), (1.5, 1.5))

_YOUNG_PRIMITIVES = ("indicator(0,1)", "exp(-x^2)", "x*exp(-x^2)",
                     "indicator(-1,1)*(1-abs(x))")
_YOUNG_DENSITIES = ("exp(-x^2)", "-2*x*exp(-x^2)", "indicator(0,2)",
                    "exp(-abs(x))")


def suite_conv_young(tol=1e-6, pairs=50, seed=3):
    """||f*g||'_r <= ||f||'_p ||g||_q over random Young triples."""
    rng = random.Random(seed)
    records = []
    worst = -math.inf
    for _ in range(pairs):
        p, q = rng.choice(_YOUNG_EXPONENTS)
        r = 1.0 / (1.0 / p + 1.0 / q - 1.0)
        f = PrimitiveDistribution(parse_expr(rng.choice(_YOUNG_PRIMITIVES)), p)
        g = parse_expr(rng.choice(_YOUNG_DENSITIES))
        res = conv_lq(f, g, r)
        margin = res.payload.norm - res.diagnostics["young_bound"]
        worst = max(worst, margin)
    records.append(CheckRecord("conv-young", f"{pairs}-random-pairs-worst-margin",
                               worst <= tol, worst, tol))
    return records


def suite_star_algebra():
    records = []
    F = parse_expr("indicator(0,1)")
    G = parse_expr("exp(-x^2)")
    f = PrimitiveDistribution(F, 1.0)
    g = PrimitiveDistribution(G, 1.0)
    ab = star(f, g)
    ba = star(g, f)
    comm = lp_norm(ab.payload.F - ba.payload.F, 1.0)
    records.append(CheckRecord("star-algebra", "commutativity", comm <= 1e-8,
                               comm, 1e-8))
    margin = ab.payload.norm - ab.diagnostics["algebra_bound"]
    records.append(CheckRecord("star-algebra", "submultiplicative",
                               margin <= 1e-8, margin, 1e-8))
    v = ab.density_at(0.0)
    gap = abs(v - (1.0 - math.exp(-1.0)))
    records.append(CheckRecord("star-algebra", "star-exhibit", gap <= 1e-6,
                               gap, 1e-6))
    lq, _, sep = incompatibility_exhibit()
    gap = abs(lq.density_at(0.0) + 2.0 * math.exp(-1.0))
    records.append(CheckRecord("star-algebra", "lq-exhibit", gap <= 1e-6,
                               gap, 1e-6))
    records.append(CheckRecord("star-algebra", "products-differ", sep > 0.1,
                               sep, 0.1))
    return records


def suite_fourier_rl():
    records = []
    f = PrimitiveDistribution(parse_expr("indicator(-1,1)"), 1.0)
    v = fourier(f, math.pi / 2.0)
    gap = math.hypot(v.re, v.im - 2.0)
    records.append(CheckRecord("fourier-rl", "fhat(pi/2)=2i", gap <= 1e-6,
                               gap, 1e-6))
    z = abs(fourier(f, 0.0))
    records.append(CheckRecord("fourier-rl", "fhat(0)=0", z == 0.0, z, 0.0))
    rep = dfhat_vs_hatdf_exhibit()
    records.append(CheckRecord("fourier-rl", "DFhat!=hatDF", rep["differ"],
                               rep["max_gap"], 0.5))
    g = PrimitiveDistribution(parse_expr("exp(-x^2)"), 1.0)
    ratios = [abs(fourier(g, s)) / s for s in (1e2, 1e3, 1e4)]
    ok = ratios[0] > ratios[1] > ratios[2]
    records.append(CheckRecord("fourier-rl", "riemann-lebesgue", ok,
                               ratios[-1], 0.0))
    return records


def suite_parseval(tol=1e-4):
    records = []
    gauss = PrimitiveDistribution(parse_expr("exp(-x^2)"), 2.0)
    box = PrimitiveDistribution(parse_expr("indicator(-1,1)"), 2.0)
    for name, a, b in (("gauss-gauss", gauss, gauss), ("box-gauss", box, gauss)):
        lhs, rhs = parseval_check(a, b)
        gap = abs(lhs - rhs)
        records.append(CheckRecord("parseval", name, gap <= tol, gap, tol))
    ip = inner_product(box, gauss)
    gap = abs(ip - math.sqrt(math.pi) * math.erf(1.0))
    records.append(CheckRecord("parseval", "erf-oracle", gap <= 1e-8, gap, 1e-8))
    # polarization: (f,g) = (||f+g||^2 - ||f-g||^2)/4
    pol = 0.25 * ((box + gauss).norm ** 2 - (box - gauss).norm ** 2)
    gap = abs(pol - ip)
    records.append(CheckRecord("parseval", "polarization", gap <= 1e-6, gap, 1e-6))
    return records


def suite_poisson_boundary():
    records = []
    F = parse_expr("indicator(-1,1)")
    v = harmonic_extension(F, HalfPlanePoint(0.0, 1.0))
    gap = abs(v - 0.5)
    records.append(CheckRecord("poisson-boundary", "U_1(0)=1/2", gap <= 1e-8,
                               gap, 1e-8))
    for y in (0.1, 1.0, 10.0):
        mass = integrate_line(_kernel_expr(y)).value
        gap = abs(mass - 1.0)
        records.append(CheckRecord("poisson-boundary", f"kernel-mass@y={y:g}",
                                   gap <= 1e-8, gap, 1e-8))
    from .higher import NthDistribution

    f = NthDistribution(parse_expr("exp(-x^2)"), 2.0, 1)
    norms, contraction = boundary_convergence(f, (1.0, 0.3, 0.1, 0.03))
    dec = all(a > b for a, b in zip(norms, norms[1:]))
    records.append(CheckRecord("poisson-boundary", "gaussian-decreasing",
                               dec and norms[-1] < 0.05, norms[-1], 0.05))
    records.append(CheckRecord("poisson-boundary", "contraction", contraction,
                               float(contraction), 1e-6))
    r1 = harmonicity_residual(F, HalfPlanePoint(0.3, 1.0), 0.1)
    r2 = harmonicity_residual(F, HalfPlanePoint(0.3, 1.0), 0.05)
    ratio = abs(r1) / abs(r2)
    records.append(CheckRecord("poisson-boundary", "residual-4x",
                               3.0 < ratio < 5.0, ratio, 4.0))
    return records


SUITES = {
    "holder": suite_holder,
    "dualnorm": suite_dualnorm,
    "lattice": suite_lattice,
    "conv-young": suite_conv_young,
    "star-algebra": suite_star_algebra,
    "fourier-rl": suite_fourier_rl,
    "parseval": suite_parseval,
    "poisson-boundary": suite_poisson_boundary,
}


def run_suites(names):
    """Run the named suites (or all) in stable name order."""
    if names in (None, "all", ("all",), ["all"]):
        picked = sorted(SUITES)
    else:
        if isinstance(names, str):
            names = [names]
        unknown = [n for n in names if n not in SUITES]
        if unknown:
            raise LprimError(f"unknown verify suite(s): {', '.join(unknown)}")
        picked = sorted(names)
    records = []
    for name in picked:
        records.extend(SUITES[name]())
    return records, all(r.passed for r in records)
