"""Named example functions used across the test-suite and the verify CLI.

Each member is a primitive F (a pointwise function on the line); the
distribution it represents is F'.  Members marked fragile have pointwise
values that are numerically meaningless in part of their domain (runaway
oscillation) and are kept out of tight-tolerance norm loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ExponentError, LprimError
from .expr import FunctionExpr, Wrapped
from .parser import parse_expr


@dataclass(frozen=True)
class CorpusMember:
    name: str
    expr: FunctionExpr
    fragile: bool = False
    osc_wavelength: float | None = None
    # exponents p for which the member lies in L^p: (lo, hi), open at lo
    p_range: tuple = (1.0, math.inf)

    def in_lp(self, p):
        lo, hi = self.p_range
        return lo <= p <= hi if lo == 1.0 else lo < p <= hi


def indicator_box(a=0.0, b=1.0):
    if not b > a:
        raise LprimError("indicator_box needs b > a")
    return CorpusMember("indicator", parse_expr(f"indicator({a!r},{b!r})"))


def gaussian():
    return CorpusMember("gaussian", parse_expr("exp(-x^2)"))


def power_tail(gamma=2.5):
    """x (|x|+1)^(-gamma): in L^p exactly when p (gamma-1) > 1."""
    if gamma <= 1.0:
        raise ExponentError("power_tail needs gamma > 1")
    lo = 1.0 / (gamma - 1.0)
    return CorpusMember(
        f"power_tail({gamma:g})",
        parse_expr(f"x*(abs(x)+1)^(-{gamma!r})"),
        p_range=(max(lo, 1.0), math.inf) if lo > 1.0 else (1.0, math.inf),
    )


def sin_over_abs():
    """sin(x)/|x|: bounded, power-1 tails, so in L^p exactly for p > 1."""
    return CorpusMember(
        "sin_over_abs",
        parse_expr("sin(x)/abs(x)"),
        p_range=(1.0 + 1e-12, math.inf),
        osc_wavelength=2 * math.pi,
    )


def gamma_cusp(gamma=0.25):
    """|x|^(-gamma) e^(-|x|): in L^p exactly when gamma p < 1."""
    if not 0.0 < gamma < 1.0:
        raise ExponentError("gamma_cusp needs 0 < gamma < 1")
    return CorpusMember(
        f"gamma_cusp({gamma:g})",
        parse_expr(f"abs(x)^(-{gamma!r})*exp(-abs(x))"),
        p_range=(1.0, 1.0 / gamma - 1e-12),
    )


def log_cusp():
    """log|x| e^(-|x|): unbounded cusp but in every L^p."""
    return CorpusMember("log_cusp", parse_expr("sing(log(abs(x)), 0)*exp(-abs(x))"))


def osc_exp_cube():
    """sin(exp(|x|^3))/(x^2+1): pointwise values are numerically
    meaningless once exp(|x|^3) exceeds 1/ulp; parse/metadata use only."""
    return CorpusMember(
        "osc_exp_cube",
        parse_expr("sin(exp(abs(x)^3))/(x^2+1)"),
        fragile=True,
    )


def x2_sin_inv4():
    """x^2 sin(x^-4): bounded by x^2 near 0 yet wildly oscillatory there."""
    return CorpusMember(
        "x2_sin_inv4",
        parse_expr("x^2*sin(sing(x^(-4), 0))*indicator(-1,1)"),
        fragile=True,
    )


# -- Cantor function ---------------------------------------------------------


_CHUNK = 8  # ternary digits read per table lookup


def _digit_table(k):
    """For each block of k ternary digits, d_1 ... d_k: the partial Cantor
    sum they contribute (d_j = 2 adds 2^-j; the first d_j = 1 adds 2^-j
    and ends the expansion) and whether a digit 1 ended it."""
    value, done = np.zeros(1), np.zeros(1, dtype=bool)
    for j in range(1, k + 1):
        # block index = 3 * (index of d_1 ... d_(j-1)) + d_j
        step = np.where(done, 0.0, 2.0 ** -j)
        value = np.stack([value, value + step, value + step], axis=1).ravel()
        done = np.stack([done, np.ones_like(done), done], axis=1).ravel()
    return value, done


_TABLE_VALUE, _TABLE_DONE = _digit_table(_CHUNK)


def _times_exact(t, m):
    """t * m as an unevaluated sum hi + lo of two doubles, exactly, for an
    integer m < 2^26 (Dekker's split of t into two 26-bit halves)."""
    c = 134217729.0 * t  # 2^27 + 1
    t_hi = c - (c - t)
    return t_hi * m, (t - t_hi) * m


def _cantor_values(xs, level):
    """The Cantor function sigma at ``xs``, its ternary expansion cut after
    ``level`` digits: sigma = 0 for x <= 0 and 1 for x >= 1 exactly; inside,
    a point no middle digit resolves within ``level`` digits takes the
    midpoint value of its level-``level`` interval (error at most
    2^-(level+1)).  Digits are read _CHUNK at a time from one table, and
    only unresolved points are carried to the next block.

    Error bound against sigma from the exact digits of x: 1e-10.  Each
    block's digits are those of the exact product t * 3^k, so the first
    block's digits are x's own (a rounded product misreads them one ulp
    from 1/3); only the remainder carried to the next block is rounded,
    by half an ulp, which moves x by under 1e-19 and sigma by far less
    than 1e-10 (sigma is Hoelder continuous of order log 2/log 3).
    Measured: 1.7e-13 at level 52, 0 at levels up to 16."""
    x = np.asarray(xs, dtype=float)
    flat = x.ravel()
    out = (flat >= 1.0).astype(float)
    live = np.flatnonzero((flat > 0.0) & (flat < 1.0))
    t = flat[live]
    scale = 1.0
    for start in range(0, level, _CHUNK):
        k = min(_CHUNK, level - start)
        cells = 3 ** k
        hi, lo = _times_exact(t, cells)
        d = np.floor(hi + lo)
        d += np.floor((hi - d) + lo)  # -1 where hi + lo rounded up to d
        d = np.minimum(d, cells - 1)
        t = (hi - d) + lo
        cell = d.astype(np.intp) * 3 ** (_CHUNK - k)  # trailing zero digits
        out[live] += scale * _TABLE_VALUE[cell]
        keep = ~_TABLE_DONE[cell]
        live, t = live[keep], t[keep]
        scale *= 2.0 ** -k
    out[live] += 0.5 * scale
    return out.reshape(x.shape)


def cantor_primitive(level=52):
    """e^(-x^2) sigma(x), sigma the Cantor function (0 left of 0, 1 right of 1).

    ``level`` truncates the self-similar construction; the default resolves
    sigma to machine precision.  sigma carries the self-similarity hook, so
    |F|^p, F g and any sigma^r h, h smooth, take the self-similar rule on [0, 1].
    """
    if level < 1:
        raise LprimError("cantor_primitive needs level >= 1")
    sigma = FunctionExpr.from_node(
        Wrapped(lambda xs: _cantor_values(xs, level), name="cantor", growth_hint=0.0,
                cantor_level=level)
    )
    gauss = parse_expr("exp(-x^2)")
    f = gauss * sigma
    # continuous and of bounded variation, but not smooth anywhere on [0, 1]
    return CorpusMember("cantor", f, fragile=False)


def weierstrass(a=0.5, b=3.0, terms=6):
    """e^(-x^2) sum a^n cos(b^n pi x): smooth for any finite term count,
    approaching a nowhere-differentiable limit."""
    if not (0.0 < a < 1.0 and b > 1.0 and terms >= 1):
        raise LprimError("weierstrass needs 0<a<1, b>1, terms>=1")
    parts = " + ".join(
        f"{a ** n!r}*cos({b ** n * math.pi!r}*x)" for n in range(terms)
    )
    f = parse_expr(f"exp(-x^2)*({parts})")
    lam = 2.0 / (b ** (terms - 1))  # shortest oscillation wavelength
    return CorpusMember(f"weierstrass({terms})", f, osc_wavelength=lam)


def sobolev_gn(alpha, beta):
    """The step pair g = beta 1_(0,a) - beta 1_(a,2a) and its tent primitive G."""
    if alpha <= 0:
        raise LprimError("sobolev_gn needs alpha > 0")
    g = parse_expr(f"{beta!r}*indicator(0,{alpha!r}) - {beta!r}*indicator({alpha!r},{2 * alpha!r})")
    G = parse_expr(
        f"piecewise(x < 0 -> 0, x < {alpha!r} -> {beta!r}*x, "
        f"x < {2 * alpha!r} -> {beta!r}*({2 * alpha!r} - x), else -> 0)"
    )
    return g, replace(G, support=(0.0, 2.0 * alpha), decay=("compact",))


def tent():
    _, G = sobolev_gn(1.0, 1.0)
    return CorpusMember("tent", G)


_CORPUS_FACTORIES = {
    "indicator": indicator_box,
    "gaussian": gaussian,
    "power_tail": power_tail,
    "sin_over_abs": sin_over_abs,
    "osc_exp_cube": osc_exp_cube,
    "x2_sin_inv4": x2_sin_inv4,
    "gamma_cusp": gamma_cusp,
    "log_cusp": log_cusp,
    "cantor_primitive": cantor_primitive,
    "weierstrass": weierstrass,
}


def corpus(name, *params):
    """Named corpus lookup; returns a FunctionExpr.

    ``corpus("sobolev_gn", alpha, beta)`` returns the step density; use
    :func:`sobolev_gn` directly when the tent primitive is also needed.
    """
    if name == "sobolev_gn":
        return sobolev_gn(*params)[0]
    try:
        factory = _CORPUS_FACTORIES[name]
    except KeyError:
        raise LprimError(f"unknown corpus member {name!r}") from None
    return factory(*params).expr


def corpus_members(p=None, include_fragile=False):
    """The named members whose L^p norms are reliably computable.

    With ``p`` given, members outside L^p are dropped.
    """
    members = [
        indicator_box(),
        gaussian(),
        power_tail(2.5),
        power_tail(4.0),
        sin_over_abs(),
        gamma_cusp(0.25),
        log_cusp(),
        cantor_primitive(),
        weierstrass(),
        tent(),
    ]
    if include_fragile:
        members += [osc_exp_cube(), x2_sin_inv4()]
    if p is not None:
        members = [m for m in members if m.in_lp(p)]
    return members
