"""The four request streams and how each request is answered and checked.

A request is what one CLI invocation asks for; cheap queries are grouped
as the CLI groups them (one --x or --s list per request).  Each request
builds its own PrimitiveDistribution, Multiplier and product objects, so
no memo carried between requests hides work a user pays for.  Requests
call lprim through module attributes, which is where the tracer installs
its wrappers.

A stream is a fixed list generated from the seed.  Its shape (which
request kinds, on which functions) is the same for every seed; the seed
draws the cheap parameters (exponents, multipliers, points, frequencies),
stratified where a parameter sets the cost, so that the work in one
pass over the list hardly depends on the seed.
"""

from __future__ import annotations

import importlib
import math
import random
from dataclasses import dataclass
from typing import Callable

from lprim.corpus import corpus_members
from lprim.verify import _DENSITY_POOL, _YOUNG_DENSITIES, _YOUNG_EXPONENTS, _YOUNG_PRIMITIVES

import oracles as O

# lprim/__init__ rebinds the name 'fourier' to the function, so modules are
# looked up by their full name
convolution, fourier, higher, lpspace, parser, poisson = (
    importlib.import_module("lprim." + name)
    for name in ("convolution", "fourier", "higher", "lpspace", "parser", "poisson"))

# Tolerances: ten times what lprim aims for on each answer.  Its integrals
# aim at abs 1e-10 and rel 1e-8, conv_lq's spline at 1e-9, and
# boundary_convergence's outer norm at rel 1e-6.  Dual norms are held to
# the 1e-6 of the dualnorm verify suite.
NORM_REL = 1e-7
PAIR_REL, PAIR_ABS = 1e-7, 1e-9
DUAL_REL = 1e-6
CONV_REL, CONV_ABS = 1e-7, 1e-8
EXT_REL, EXT_ABS = 1e-7, 1e-9
GAP_REL = 1e-5
FOURIER_REL, FOURIER_ABS = 1e-7, 1e-9  # the absolute part times s: f^ = is F^


@dataclass
class Request:
    kind: str
    label: str
    run: Callable[[], tuple]
    check: Callable[[tuple], float]  # error as a share of its tolerance; <= 1 passes


def _share(value, expected, rel, abs_=0.0):
    if not math.isfinite(value):
        return math.inf
    return abs(value - expected) / (rel * abs(expected) + abs_)


def _bracket_share(value, lo, hi, rel):
    tol = rel * max(abs(lo), abs(hi))
    if not math.isfinite(value):
        return math.inf
    return max(lo - value, value - hi, 0.0) / tol


class _Parsed(dict):
    """DSL source -> FunctionExpr, each source parsed once during set-up."""

    def __missing__(self, src):
        self[src] = e = parser.parse_expr(src)
        return e


# ---------------------------------------------------------------------------
# duality


def _member_norm_share(name, p, v, rel):
    if name == "cantor":
        return _bracket_share(v, O.reference(O.key("cantor_norm", p, "lo")),
                              O.reference(O.key("cantor_norm", p, "hi")), rel)
    return _share(v, O.member_norm(name, p), rel)


def _dist(m, p):
    return lpspace.PrimitiveDistribution(m.expr, p, osc_wavelength=m.osc_wavelength)


def _norm_request(m, p):
    def run():
        return (_dist(m, p).norm,)

    return Request("norm", f"norm {m.name} p={p:g}", run,
                   lambda a: _member_norm_share(m.name, p, a[0], NORM_REL))


def _pair_request(m, p, dname, g):
    def run():
        return (lpspace.pair(_dist(m, p), lpspace.Multiplier(g, O.conjugate(p))),)

    def check(a):
        if m.name == "cantor":
            return _bracket_share(a[0], O.reference(O.key("cantor_pair", dname, "lo")),
                                  O.reference(O.key("cantor_pair", dname, "hi")), NORM_REL)
        return _share(a[0], O.reference(O.key("pair", m.name, dname)), PAIR_REL, PAIR_ABS)

    return Request("pair", f"pair {m.name} p={p:g} g={dname}", run, check)


def _dual_request(m, p):
    def run():
        f = _dist(m, p)
        return lpspace.dual_norm(f), f.norm

    def check(a):
        # the dual characterisation attains the norm, and both match the oracle
        return max(_share(a[0], a[1], DUAL_REL),
                   _member_norm_share(m.name, p, a[0], DUAL_REL))

    return Request("dualnorm", f"dualnorm {m.name} p={p:g}", run, check)


def duality(rng, parsed):
    """Norms, pairings and dual norms of the ten non-fragile corpus members.

    Every (member, p) with the member in L^p gets a norm and a pairing
    with a seeded pool density, and a dual norm when p > 1.  The Cantor
    and Weierstrass members, 0.5-1.3 s a request, get fixed requests, so
    that the work in a pass does not depend on the seed: the Cantor norm at
    p = 1.5 and its pairing with the Gaussian density, and the Weierstrass
    norm at p = 1.  Their other requests, 1-5 s each, are left out to keep
    a pass short.
    """
    if tuple(O.DENSITIES.values()) != _DENSITY_POOL:
        raise RuntimeError("lprim's multiplier density pool changed; update oracles.DENSITIES")
    members = corpus_members()
    dens = {name: parsed[src] for name, src in O.DENSITIES.items()}
    names = sorted(dens)
    reqs = []
    for m in members:
        if m.name == "cantor":
            reqs += [_norm_request(m, 1.5), _pair_request(m, 2.0, "gauss", dens["gauss"])]
            continue
        if m.name == "weierstrass(6)":
            reqs.append(_norm_request(m, 1.0))
            continue
        for p in (1.0, 1.5, 2.0, 3.0):
            if m.in_lp(p):
                d = rng.choice(names)
                reqs += [_norm_request(m, p), _pair_request(m, p, d, dens[d])]
                if p > 1.0:
                    reqs.append(_dual_request(m, p))
    return reqs


# ---------------------------------------------------------------------------
# convolution

# (primitive, density, p, q): every pair of the exponent pool once, the
# costly products (0.4 s each) on the pairs with r = 2; e^-|x| is kept off
# r = 1, since conv_lq samples the product on |x| <= rF + rg = 11 only and
# so misses 2e-5 of its L^1 norm (CHANGES.md)
YOUNG_SLOTS = (("box01", "gauss", 1.0, 2.0), ("box01", "expabs", 2.0, 1.0),
               ("box01", "box02", 1.0, 1.0), ("box01", "box02", 1.5, 2.0),
               ("tent", "box02", 3.0, 1.0), ("tent", "box02", 1.5, 1.5),
               ("tent", "box02", 1.0, 3.0))
STAR_SLOTS = (("box01", "box01"), ("box01", "tent"), ("tent", "tent"),
              ("box01", "gauss"), ("gauss", "box01"))
STAR_ORDER = ("box01", "tent", "gauss")  # order of the factors in reference keys
X_GRID = tuple(i / 8 for i in range(-16, 25))
# lprim takes the a.e. derivative of an indicator to be 0, so densities of
# products with a jump factor are wrong; those requests ask for primitives only
JUMPS = ("box01", "box02")


def _conv_request(F, g, p, q, xs, parsed):
    r = 1.0 / (1.0 / p + 1.0 / q - 1.0)
    dens = g not in JUMPS
    Fe, ge = parsed[O.CONV_PRIMITIVES[F]], parsed[O.CONV_DENSITIES[g]]

    def run():
        f = lpspace.PrimitiveDistribution(Fe, p)
        res = convolution.conv_lq(f, ge, r)
        out = [res.diagnostics["young_bound"], res.payload.norm]
        for x in xs:
            out.append(float(res.payload.F.values([x])[0]))
            if dens:
                out.append(res.density_at(x))
        return tuple(out)

    def check(a):
        bound = O.primitive_norm(F, p) * O.density_norm(g, q)
        shares = [_share(a[0], bound, CONV_REL),
                  _share(a[1], O.reference(O.key("convnorm", F, g, r)), CONV_REL),
                  max(a[1] - a[0], 0.0) / (CONV_REL * bound)]  # Young's inequality
        vals = iter(a[2:])
        for x in xs:
            shares.append(_share(next(vals), O.conv_primitive(F, g, x), 0.0, CONV_ABS))
            if dens:
                shares.append(_share(next(vals), O.conv_density(F, g, x), 0.0, CONV_ABS))
        return max(shares)

    return Request("conv", f"conv {F}*{g} p={p:g} q={q:g}", run, check)


def _star_request(F, G, xs, parsed):
    dens = G not in JUMPS
    Fe, Ge = parsed[O.CONV_PRIMITIVES[F]], parsed[O.CONV_PRIMITIVES[G]]

    def run():
        f = lpspace.PrimitiveDistribution(Fe, 1.0)
        g = lpspace.PrimitiveDistribution(Ge, 1.0)
        res = convolution.star(f, g)
        out = [res.payload.norm]
        for x in xs:
            if dens:
                out.append(res.density_at(x))
            out.append(float(res.payload.F.values([x])[0]))
        return tuple(out)

    def check(a):
        # F * G = G * F: both orders share one reference
        ref = O.reference(O.key("convnorm", *sorted((F, G), key=STAR_ORDER.index), 1.0))
        bound = O.primitive_norm(F, 1.0) * O.primitive_norm(G, 1.0)
        shares = [_share(a[0], ref, CONV_REL),
                  max(a[0] - bound, 0.0) / (CONV_REL * bound)]  # ||f star g|| <= ||f|| ||g||
        vals = iter(a[1:])
        for x in xs:
            if dens:
                shares.append(_share(next(vals), O.conv_density(F, G, x), 0.0, CONV_ABS))
            shares.append(_share(next(vals), O.conv_primitive(F, G, x), 0.0, CONV_ABS))
        return max(shares)

    return Request("star", f"star {F}*{G}", run, check)


def convolution_stream(rng, parsed):
    """conv_lq on the seven fixed slots of YOUNG_SLOTS, and star on five
    pairs; each product is queried at four seeded x.  The exponent pair
    changes a product's cost by up to a third, so it is not drawn from the
    seed.  The pairs whose product alone takes 0.5-7 s (a Gaussian-type
    primitive, or a smooth density beside the two kept) are left out to
    keep a pass short."""
    if (set(O.CONV_PRIMITIVES.values()) != set(_YOUNG_PRIMITIVES)
            or set(O.CONV_DENSITIES.values()) != set(_YOUNG_DENSITIES)
            or {(p, q) for _, _, p, q in YOUNG_SLOTS} != set(_YOUNG_EXPONENTS)):
        raise RuntimeError("lprim's Young pools changed; update oracles")
    reqs = []
    for F, g, p, q in YOUNG_SLOTS:
        reqs.append(_conv_request(F, g, p, q, sorted(rng.sample(X_GRID, 4)), parsed))
    for F, G in STAR_SLOTS:
        reqs.append(_star_request(F, G, sorted(rng.sample(X_GRID, 4)), parsed))
    return reqs


# ---------------------------------------------------------------------------
# half plane

VALUE_DATA = (("box", 0), ("box", 1), ("box", 2), ("gauss", 0), ("gauss", 1),
              ("gauss", 2), ("xgauss", 0), ("xgauss", 1))
POINTS_PER_REQUEST = 8


def _extension_request(datum, n, pts, parsed):
    F = parsed[O.BOUNDARY[datum]]

    def run():
        # one CLI call per point, each building its own NthDistribution
        return tuple(poisson.extension_n(higher.NthDistribution(F, 2.0, n) if n >= 1 else F,
                                         poisson.HalfPlanePoint(x, y)) for x, y in pts)

    def check(a):
        return max(_share(v, O.extension(datum, n, x, y), EXT_REL, EXT_ABS)
                   for v, (x, y) in zip(a, pts))

    return Request("poisson", f"poisson {datum} n={n}", run, check)


def _gap_request(datum, y, p, parsed):
    F = parsed[O.BOUNDARY[datum]]

    def run():
        f = lpspace.PrimitiveDistribution(F, p)
        norms, contraction = poisson.boundary_convergence(f, [y])
        return norms[0], float(contraction)

    def check(a):
        if a[1] != 1.0:  # ||U_y||_p <= ||F||_p failed
            return math.inf
        return _share(a[0], O.reference(O.key("gap", datum, p, y)), GAP_REL)

    return Request("gap", f"gap {datum} y={y:g} p={p:g}", run, check)


def halfplane(rng, parsed):
    """Extension values, 8 seeded (x, y) per request, for box, Gaussian and
    x-Gaussian data of order 0-2, twice over; and two single-y boundary
    gaps of the box: at y = 1, p = 1 and at y = 0.3, p = 2.  Gaussian gaps
    are left out: at p = 2 one takes 2-4 s, and at p = 1 its contraction
    check fails on quadrature noise."""
    reqs = []
    for _ in range(2):
        for datum, n in VALUE_DATA:
            # small y, and x inside the box, cost more: one y from
            # each slice of [0.05, 10] and one x from each slice of [-3, 3]
            ys = _log_strata(rng, 0.05, 10.0, POINTS_PER_REQUEST)
            xs = [round(-3.0 + 6.0 * t, 2) for t in _strata(rng, POINTS_PER_REQUEST)]
            pts = list(zip(xs, ys))
            reqs.append(_extension_request(datum, n, pts, parsed))
    reqs.append(_gap_request("box", 1.0, 1.0, parsed))
    reqs.append(_gap_request("box", 0.3, 2.0, parsed))
    return reqs


# ---------------------------------------------------------------------------
# Fourier

S_BANDS = ((0.5, 2.0), (2.0, 10.0), (10.0, 49.0), (50.0, 150.0), (150.0, 400.0),
           (400.0, 1000.0))
# on the Gaussian-type primitives the cost of one s >= 50 grows tenfold
# across these bands, so their s sit at the slice centres
SEEDED_BELOW = 50.0
TM_SLICES = ((0.5, 3.0), (3.0, 12.0), (12.0, 49.0))
FOURIER_REPEATS = 2


def _strata(rng, k, seeded=True):
    """k positions in [0, 1), one in each of k equal slices, in seeded
    order.  One seeded offset u places them: slices alternate between u and
    1 - u, so a draw high in its slice is paired with one low in the next,
    and the sum of their costs hardly varies.  Unseeded, u = 1/2: the
    centre of each slice."""
    u = rng.random() if seeded else 0.5
    out = [(i + (1 - u if i % 2 else u)) / k for i in range(k)]
    rng.shuffle(out)
    return out


def _log_strata(rng, lo, hi, k, seeded=True):
    """_strata on [lo, hi) in log scale."""
    return [round(lo * (hi / lo) ** t, 3) for t in _strata(rng, k, seeded)]


def _fourier_request(name, ss, parsed):
    F = parsed[O.FOURIER_PRIMITIVES[name]]

    def run():
        f = lpspace.PrimitiveDistribution(F, 1.0)
        out = []
        for s in ss:
            v = fourier.fourier(f, s)
            out += [v.re, v.im]
        return tuple(out)

    def check(a):
        shares = []
        for i, s in enumerate(ss):
            ref = O.fourier_hat(name, s)
            shares += [_share(a[2 * i], ref.real, FOURIER_REL, FOURIER_ABS * s),
                       _share(a[2 * i + 1], ref.imag, FOURIER_REL, FOURIER_ABS * s)]
        return max(shares)

    return Request("fourier", f"fourier {name}", run, check)


def _tm_request(name, ys, ss, parsed):
    F = parsed[O.FOURIER_PRIMITIVES[name]]

    def run():
        f = lpspace.PrimitiveDistribution(F, 1.0)
        out = []
        for y, s in zip(ys, ss):
            lhs, _, gap = fourier.translation_modulation(f, y, s)
            out += [lhs.re, lhs.im, gap]
        return tuple(out)

    def check(a):
        shares = []
        for i, (y, s) in enumerate(zip(ys, ss)):
            ref = O.translated_hat(name, y, s)
            tol = FOURIER_ABS * s + FOURIER_REL * abs(ref)
            shares += [_share(a[3 * i], ref.real, 0.0, tol),
                       _share(a[3 * i + 1], ref.imag, 0.0, tol), a[3 * i + 2] / tol]
        return max(shares)

    return Request("translation", f"translation {name}", run, check)


def fourier_stream(rng, parsed):
    """For each of five primitives, two --s lists with one s from each of
    six bands spanning 0.5-1000 (stratified across the two lists; seeded
    below 50, slice centres above), and, except for the Lorentzian, two
    requests for translation-modulation gaps at three (y, s), s < 50, with
    seeded y and s at the centres of two slices of each of three bands."""
    reqs = []
    for name in O.FOURIER_PRIMITIVES:
        per_band = [_log_strata(rng, lo, hi, FOURIER_REPEATS, hi <= SEEDED_BELOW)
                    for lo, hi in S_BANDS]
        for k in range(FOURIER_REPEATS):
            reqs.append(_fourier_request(name, [band[k] for band in per_band], parsed))
        if name == "lorentz":
            continue  # translated, its transform misses by up to 3e-5 (see CHANGES.md)
        per_slice = [_log_strata(rng, lo, hi, FOURIER_REPEATS, False) for lo, hi in TM_SLICES]
        for k in range(FOURIER_REPEATS):
            ys = [round(rng.uniform(-2.0, 2.0), 3) for _ in per_slice]
            reqs.append(_tm_request(name, ys, [sl[k] for sl in per_slice], parsed))
    return reqs


GENERATORS = {"duality": duality, "convolution": convolution_stream,
            "halfplane": halfplane, "fourier": fourier_stream}


def build(workload, seed):
    """The workload's request list for this seed, in seeded order; builds
    every expression the requests use."""
    rng = random.Random(f"lprimbench:{workload}:{seed}")
    reqs = GENERATORS[workload](rng, _Parsed())
    rng.shuffle(reqs)
    return reqs
