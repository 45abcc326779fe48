"""Quadrature-backed functions: adaptive sampling plus spline interpolation.

Convolutions and Poisson extensions rarely have closed forms; they are
represented as cubic splines over per-segment adaptive samples, with the
segments cut at the points where the target can lose smoothness.  The
spline error is driven below a requested tolerance by doubling the sample
density and testing the interpolant against fresh midpoint evaluations.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import ConvergenceError
from .expr import FunctionExpr, Wrapped


class _SegmentSpline:
    """Cubic interpolants per smooth segment, zero outside the domain."""

    def __init__(self, edges, splines, lo, hi):
        self.edges = np.asarray(edges)
        self.splines = splines
        self.lo = lo
        self.hi = hi

    def __call__(self, xs):
        xs = np.asarray(xs, dtype=float)
        out = np.zeros_like(xs)
        idx = np.clip(np.searchsorted(self.edges, xs, side="right") - 1, 0,
                      len(self.splines) - 1)
        inside = (xs >= self.lo) & (xs <= self.hi)
        for k, sp in enumerate(self.splines):
            m = inside & (idx == k)
            if m.any():
                out[m] = sp(xs[m])
        return out


def sample_function(
    evaluate,
    lo,
    hi,
    breakpoints=(),
    tol=1e-9,
    initial=16,
    max_points=4096,
    min_spacing=None,
):
    """Adaptive sampled representation on [lo, hi] of the function that
    ``evaluate`` computes on whole arrays of points.

    ``breakpoints`` are interior points where smoothness may fail; each
    segment between them gets its own spline.  Returns (callable, err_est).
    ``min_spacing`` forces at least that sample density (Poisson kernels
    need spacing tied to the kernel scale).
    """
    if hi <= lo:
        raise ConvergenceError("sample_function needs hi > lo")
    cuts = sorted({float(lo), float(hi)} | {float(b) for b in breakpoints if lo < b < hi})
    edges = []
    splines = []
    worst = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        n = initial
        if min_spacing is not None:
            n = max(n, int(math.ceil((b - a) / min_spacing)))
        n = min(n, max_points)
        xs = np.linspace(a, b, n + 1)
        vals = evaluate(xs)
        err = math.inf
        while True:
            mids = 0.5 * (xs[:-1] + xs[1:])
            mvals = evaluate(mids)
            spline = CubicSpline(xs, vals)
            err = float(np.max(np.abs(spline(mids) - mvals)))
            # interleave the midpoints so the refined grid reuses all values
            xs = np.empty(2 * len(xs) - 1)
            xs[0::2] = np.linspace(a, b, len(mvals) + 1)
            xs[1::2] = mids
            vv = np.empty_like(xs)
            vv[0::2] = vals
            vv[1::2] = mvals
            vals = vv
            if err <= tol or len(xs) > max_points:
                break
        splines.append(CubicSpline(xs, vals))
        edges.append(a)
        worst = max(worst, err)
    edges.append(cuts[-1])
    return _SegmentSpline(edges, splines, lo, hi), worst


def sampled_expr(fn, lo, hi, kinks=(), name="<sampled>", outside=None, decay=None):
    """Wrap a callable sampled on [lo, hi] as a FunctionExpr.

    Without ``outside`` the function is supported on [lo, hi].  With it,
    ``outside`` evaluates the same function on arrays of points beyond
    [lo, hi] (directly, by quadrature), lo and hi become kinks and
    ``decay`` is the decay class of the tails.
    """
    kinks = {k for k in kinks if lo < k < hi}
    if outside is None:
        return FunctionExpr(Wrapped(fn, name=name, growth_hint=0.0),
                            kinks=tuple(sorted(kinks)), support=(lo, hi),
                            decay=("compact",))

    def values(xs):
        out = fn(xs)
        far = (xs < lo) | (xs > hi)
        if far.any():
            out[far] = outside(xs[far])
        return out

    return FunctionExpr(Wrapped(values, name=name, growth_hint=0.0),
                        kinks=tuple(sorted(kinks | {lo, hi})), support=None, decay=decay)
