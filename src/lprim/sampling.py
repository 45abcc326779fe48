"""Quadrature-backed functions: adaptive sampling plus spline interpolation.

Convolutions and Poisson extensions rarely have closed forms; they are
represented as cubic splines over per-segment adaptive samples, with the
segments cut at the points where the target can lose smoothness.  The
spline error is driven below a requested tolerance by doubling the sample
density and testing the interpolant against fresh midpoint evaluations.
All segments refine together, with one evaluator call per round for the
midpoints of every segment still above the tolerance.

Each segment's interpolant is the not-a-knot cubic spline through its
samples.  Its slopes come from one LAPACK tridiagonal solve (`dgtsv`) per
refinement round, on the system scipy's cubic spline hands to the same
routine, and the pieces, with scipy's coefficients, are summed in the order
of scipy's `PPoly` (`_cubic_sum`): scipy's spline values to the last bit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError
from .expr import FunctionExpr, Wrapped


def _cubic(x, y):
    """Coefficients (highest power first, as in PPoly) of the not-a-knot
    cubic spline through (x, y); x strictly increasing with >= 4 points."""
    dx = np.diff(x)
    slope = np.diff(y) / dx
    n = len(x)
    # scipy's tridiagonal system: rows 1..n-2 match first derivatives,
    # rows 0 and n-1 are the not-a-knot conditions
    d = np.empty(n)
    d[1:-1] = 2 * (dx[:-1] + dx[1:])
    d[0], d[-1] = dx[1], dx[-2]
    du = np.empty(n - 1)
    du[1:] = dx[:-1]
    du[0] = x[2] - x[0]
    dl = np.empty(n - 1)
    dl[:-1] = dx[1:]
    dl[-1] = x[-1] - x[-3]
    rhs = np.empty(n)
    rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    w = x[2] - x[0]
    rhs[0] = ((dx[0] + 2 * w) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / w
    w = x[-1] - x[-3]
    rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2 * w + dx[-1]) * dx[-2] * slope[-1]) / w
    from scipy.linalg.lapack import dgtsv  # loaded on the first spline solve

    *_, s, info = dgtsv(dl, d, du, rhs, 1, 1, 1, 1)
    if info:
        raise ConvergenceError("sample_function: singular spline system")
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))


def _cubic_sum(c, s):
    """c[3] + c[2] s + c[1] s^2 + c[0] s^3 at offsets s, summed term by term
    (not nested as by Horner's rule) as PPoly sums it."""
    return c[3] + c[2] * s + c[1] * (s * s) + c[0] * (s * s * s)


class _Spline:
    """One piecewise cubic over [lo, hi], zero outside."""

    def __init__(self, knots, coefs):
        self.knots, self.coefs = knots, coefs

    def __call__(self, xs):
        xs = np.asarray(xs, dtype=float)
        inside = (xs >= self.knots[0]) & (xs <= self.knots[-1])
        # i counts the inner knots <= x: piece i is [knots[i], knots[i+1]), the last closed
        i = self.knots[1:-1].searchsorted(xs, side="right")
        s = np.where(inside, xs - self.knots[i], 0.0)  # no inf or nan in the sum
        return np.where(inside, _cubic_sum(self.coefs.take(i, axis=1), s), 0.0)


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
    need spacing tied to the kernel scale).  Raises ConvergenceError when
    a segment reaches ``max_points`` with its spline error above ``tol``,
    or when a sample is not finite.

    The segments are refined together: one ``evaluate`` call takes the
    initial grids of all segments, and each later call the midpoints of
    every segment still refining, so there are 1 + (the deepest segment's
    rounds) calls.  Each segment keeps its own stopping rule, so when
    ``evaluate`` gives each point the value it would give it alone, the
    samples and the spline are those of segment-by-segment refinement.
    """
    if hi <= lo:
        raise ConvergenceError("sample_function needs hi > lo")
    if initial < 3 or max_points < 3:
        raise ConvergenceError("sample_function needs initial >= 3 and max_points >= 3")
    cuts = sorted({float(lo), float(hi)} | {float(b) for b in breakpoints if lo < b < hi})
    grids = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        n = initial
        if min_spacing is not None:
            n = max(n, int(math.ceil((b - a) / min_spacing)))
        grids.append(np.linspace(a, b, min(n, max_points) + 1))
    vals = _split(evaluate(np.concatenate(grids)), grids)
    errs = [math.inf] * len(grids)
    live = list(range(len(grids)))
    while live:
        mids = [0.5 * (grids[i][:-1] + grids[i][1:]) for i in live]
        mvals = _split(evaluate(np.concatenate(mids)), mids)
        for i, m, mv in zip(live, mids, mvals):
            xs, a, b = grids[i], cuts[i], cuts[i + 1]
            guess = _cubic_sum(_cubic(xs, vals[i]), m - xs[:-1])
            err = errs[i] = float(np.max(np.abs(guess - mv)))
            if not math.isfinite(err):
                raise ConvergenceError(
                    f"sample_function: non-finite sample on segment [{a:g}, {b:g}]")
            # interleave the midpoints so the refined grid reuses all values
            xs = grids[i] = np.empty(2 * len(xs) - 1)
            xs[0::2] = np.linspace(a, b, len(mv) + 1)
            xs[1::2] = m
            vv = np.empty_like(xs)
            vv[0::2] = vals[i]
            vv[1::2] = mv
            vals[i] = vv
            if len(xs) > max_points and err > tol:
                raise ConvergenceError(
                    f"sample_function: segment [{a:g}, {b:g}] stopped at {len(xs)} points "
                    f"(max_points {max_points}) with spline error {err:.3g} > tol {tol:g}")
        live = [i for i in live if errs[i] > tol]
    knots = [cuts[:1]] + [xs[1:] for xs in grids]
    coefs = [_cubic(xs, v) for xs, v in zip(grids, vals)]
    return _Spline(np.concatenate(knots), np.concatenate(coefs, axis=1)), max(errs)


def _split(values, parts):
    """``values`` cut into consecutive pieces as long as the arrays of ``parts``."""
    return np.split(values, np.cumsum([len(p) for p in parts[:-1]]))


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
