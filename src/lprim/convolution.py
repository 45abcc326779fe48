"""The three convolution products.

* f * G (distribution with a multiplier): a bounded function, evaluated
  pointwise as integral of F(x-y) g(y) dy.
* f * g (distribution with an L^q function, Young exponents): an element
  of L'^r whose primitive is F * g, carried as a sampled spline (with
  direct quadrature in unbounded tails).
* f `star` g (both in L'^1): an element of L'^1 with primitive F * G; the
  product under which L'^1 is a Banach algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ExponentError, LprimError
from .expr import decay_add
from .lpspace import PrimitiveDistribution, conjugate, _config_for
from .parser import parse_expr
from .quadrature import (DEFAULT_CONFIG, ConvolutionValues, extent, integrate_line, lp_norm,
                         lp_norms)
from .sampling import sample_function, sampled_expr


def conv_multiplier(f, G, x, cfg=None):
    """(f * G)(x) = integral of F(x - y) g(y) dy; bounded by ||f||'_p ||G||_{I,q}."""
    q = conjugate(f.p)
    if not math.isclose(G.q, q, rel_tol=1e-12):
        raise ExponentError(f"multiplier exponent {G.q} is not conjugate to p={f.p}")
    cfg = _config_for(cfg, f.osc_wavelength)
    return ConvolutionValues(f.F, G.g, cfg, "convolution").at(x)


@dataclass(frozen=True)
class ConvolutionResult:
    kind: str  # "multiplier" | "lq" | "star"
    payload: object  # FunctionExpr-backed evaluator or PrimitiveDistribution
    diagnostics: dict = field(default_factory=dict)

    def density_at(self, x):
        """Pointwise density of an lq/star result."""
        fn = self.diagnostics.get("density")
        if fn is None:
            raise LprimError(f"kind={self.kind!r} result carries no density")
        return fn(float(x))


def _conv_primitive(F, g, cfg, tol):
    """F * g as a FunctionExpr, plus its sampling error.

    The product is sampled as a spline on [lo, hi]: the sum of the supports,
    or |x| <= rF + rg when a factor has unbounded support.  In that case
    values outside [lo, hi] come from direct quadrature and the tails
    decay like the weaker of F and g.  The sampling error adds the largest
    error estimate of the sampled integrals to the spline's.
    """
    rF, rg = (max(map(abs, extent(e, 10.0))) for e in (F, g))
    compact = F.support is not None and g.support is not None
    if compact:
        lo = F.support[0] + g.support[0]
        hi = F.support[1] + g.support[1]
    else:
        lo, hi = -(rF + rg), rF + rg
    feats_F = [p for p in F.feature_points() if math.isfinite(p)]
    feats_g = [p for p in g.feature_points() if math.isfinite(p)]
    kinks = sorted({a + b for a in feats_F for b in feats_g})
    h = ConvolutionValues(F, g, cfg, "convolution")
    fn, err = sample_function(h, lo, hi, breakpoints=kinks, tol=tol)
    H = sampled_expr(fn, lo, hi, kinks=kinks, name="conv", outside=None if compact else h,
                     decay=decay_add(F.decay, g.decay))
    return H, err + h.max_err


# (n, m) of the Cauchy tails ||g (w_m - w_n)||_q that conv_lq records;
# the owners of its norm family are g (owner 0) and these tails
_TAIL_PAIRS = ((2, 4), (4, 8), (8, 16))
_TAIL_N, _TAIL_M = np.array([(0, 0), *_TAIL_PAIRS], dtype=float).T


def _window(n, x):
    """The logistic window 1/(1 + e^(-n (n - |x|))): near 1 on |x| < n, near 0 beyond."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-n * (n - np.abs(x))))


def _tail_weight(owner, ys):
    """1 for owner 0, w_m - w_n for the owner of the tail (n, m)."""
    tail = _window(_TAIL_M[owner], ys) - _window(_TAIL_N[owner], ys)
    return np.where(owner == 0, 1.0, tail)


def conv_lq(f, g, r, cfg=None, tol=1e-9):
    """f * g for f in L'^p and g in L^q with 1/p + 1/q = 1 + 1/r.

    The result is the element of L'^r with primitive F * g.  Diagnostics
    carry the Cauchy-tail record of the defining approximation sequence
    g_n = g * (smooth window of radius n): the tail is bounded by
    ||F||_p ||g_n - g_m||_q without re-convolving.  ||g||_q and the three
    ||g (w_m - w_n)||_q are one integral family (quadrature.lp_norms):
    the windows are evaluated in numpy, one sign-change scan of g serves
    all four, and the tails also split at 0 and at +-(m + n), where
    w_m - w_n changes sign.
    """
    p = f.p
    q_needed = 1.0 + 1.0 / r - 1.0 / p
    if q_needed <= 0 or abs(q_needed) < 1e-12:
        raise ExponentError(f"no exponent q satisfies 1/p+1/q=1+1/r for p={p}, r={r}")
    q = 1.0 / q_needed
    if q < 1.0 - 1e-12:
        raise ExponentError(f"exponent relation needs q={q:.4g} >= 1")
    q = max(q, 1.0)
    cfg = _config_for(cfg, f.osc_wavelength)
    cuts = ((),) + tuple((0.0, -(m + n), m + n) for n, m in _TAIL_PAIRS)
    norm_g, *tail_norms = lp_norms(g, q, cfg, cuts, _tail_weight)
    if norm_g == 0.0:
        zero = parse_expr("0*indicator(0,1)")
        return ConvolutionResult(
            "lq",
            PrimitiveDistribution(zero, r, _norm=0.0),
            {"young_bound": 0.0, "cauchy_tail": [], "density": lambda x: 0.0},
        )
    H, err = _conv_primitive(f.F, g, cfg, tol)
    dist = PrimitiveDistribution(H, r, cfg)
    tails = [(n, m, f.norm * dq) for (n, m), dq in zip(_TAIL_PAIRS, tail_norms)]

    gp = _try_diff(g)
    density = None if gp is None else ConvolutionValues(f.F, gp, cfg, "convolution").at
    diags = {
        "young_bound": f.norm * norm_g,
        "cauchy_tail": tails,
        "sampling_error": err,
        "density": density,
    }
    return ConvolutionResult("lq", dist, diags)


def _try_diff(e):
    """The a.e. derivative of ``e``, or None when there is none or when
    ``e`` jumps at a kink or a support end: the a.e. derivative then misses
    the point mass of the jump, and a density built on it would be wrong."""
    for k in e.feature_points():
        if k in e.singularities or not math.isfinite(k):
            continue
        d = 1e-12 * max(1.0, abs(k))
        left, right = e.values(np.array([k - d, k + d]))
        if abs(left - right) > 1e-6 * (1.0 + max(abs(left), abs(right))):
            return None
    try:
        return e.diff()
    except LprimError:
        return None


def star(f, g, cfg=None, tol=5e-10):
    """f star g for f, g in L'^1: the distribution with primitive F * G."""
    if f.p != 1.0 or g.p != 1.0:
        raise ExponentError("star needs both factors in L'^1")
    cfg = _config_for(cfg, f.osc_wavelength or g.osc_wavelength)
    if f.norm == 0.0 or g.norm == 0.0:
        zero = parse_expr("0*indicator(0,1)")
        return ConvolutionResult("star", PrimitiveDistribution(zero, 1.0, _norm=0.0),
                                 {"density": lambda x: 0.0})
    H, err = _conv_primitive(f.F, g.F, cfg, tol)
    dist = PrimitiveDistribution(H, 1.0, cfg)
    Gp = _try_diff(g.F)
    density = None if Gp is None else ConvolutionValues(f.F, Gp, cfg, "convolution").at
    diags = {
        "algebra_bound": f.norm * g.norm,
        "sampling_error": err,
        "density": density,
    }
    return ConvolutionResult("star", dist, diags)


def approx_identity(F, g, t_grid, p, cfg=None, tol=1e-8):
    """||F_t * g' - a g'||'_p over the grid, F_t(x) = F(x/t)/t, a = integral of F.

    F_t * g' is the distribution with primitive g * F_t, so each entry is
    the L^p distance between the sampled primitive g * F_t and a g.
    """
    cfg = cfg or DEFAULT_CONFIG
    a = integrate_line(F, cfg).value
    out = []
    for t in t_grid:
        Ft = F.affine(1.0 / t, 0.0) * (1.0 / t)
        H, _ = _conv_primitive(g, Ft, cfg, tol)
        out.append(lp_norm(H - g * a, p, cfg))
    return out


def incompatibility_exhibit(cfg=None):
    """The two products genuinely differ: for F = chi_(0,1) and
    g = -2x e^(-x^2) (an L^1 density whose own primitive is G = e^(-x^2)),
    f*g and f star g are distinct elements of L'^1."""
    cfg = cfg or DEFAULT_CONFIG
    F = parse_expr("indicator(0,1)")
    g = parse_expr("-2*x*exp(-x^2)")
    G = parse_expr("exp(-x^2)")
    f = PrimitiveDistribution(F, 1.0)
    fg = conv_lq(f, g, 1.0, cfg)
    fsg = star(f, PrimitiveDistribution(G, 1.0), cfg)
    gap = lp_norm(fg.payload.F - fsg.payload.F, 1.0, cfg)
    return fg, fsg, gap
