"""Quadrature-backed functions: adaptive sampling into local cubic panels.

Convolutions and Poisson extensions rarely have closed forms; they are
represented as piecewise cubics over adaptive samples, on segments cut
where the target can lose smoothness.  A panel [a, a + h] holds samples
at t = 0, 1/6, ..., 1 of its width; its cubic runs through t = 0, 1/3,
2/3, 1 and is checked at 1/6, 1/2, 5/6, the midpoints of its thirds,
and 9/8 of the largest check error is its error.  A panel above the
tolerance splits in thirds, which keep its samples and need four new
ones each.  All live panels refine in one call per round.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError
from .expr import FunctionExpr, Wrapped

_NEW = np.array([1.0, 2.0, 4.0, 5.0]) / 6.0  # the offsets a child lacks
_CHECK = np.array([1.0, 3.0, 5.0]) / 6.0
# a panel's error, from its largest check error: see sample_function
_BOUND = 1.125
_WIDTH = 64.0 * np.finfo(float).eps  # rounding width, relative to max(1, |a|)
# the samples a segment of a product or a Poisson extension may take: cubic
# panels need about tol^(-1/4) of them, more than the default 4,096 for a
# Gaussian product at abs_tol 1e-12
MAX_POINTS = 1 << 16


def _coefs(y, h):
    """Coefficients (highest power first, as in PPoly) of the cubics through the
    rows of y at offsets 0, h/3, 2h/3, h: Newton's forward form in u = 3s/h."""
    d1, d2, d3 = (np.diff(y, k, axis=1)[:, 0] for k in (1, 2, 3))
    d = 3.0 / h
    return np.stack((d3 / 6.0 * d ** 3, (d2 - d3) / 2.0 * d ** 2,
                     (d1 - d2 / 2.0 + d3 / 3.0) * d, y[:, 0]))


def _cubic_sum(c, s):
    """c[3] + c[2] s + c[1] s^2 + c[0] s^3 at offsets s."""
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


def sample_function(evaluate, lo, hi, breakpoints=(), tol=1e-9, max_points=4096,
                    min_spacing=None):
    """Adaptive sampled representation on [lo, hi] of the function that
    ``evaluate`` computes on whole arrays of points: (callable, err_est),
    err_est being the largest error of the final panels.

    A panel's error is _BOUND = 9/8 times its largest check error.  The
    checks sit at t = 1/6, 1/2, 5/6, but the cubic's error,
    f^(4)(xi) h^4 t (t - 1/3) (t - 2/3) (t - 1) / 24, peaks in t at 16/15
    of its size at t = 1/6, and f^(4) varies across the panel: sampling
    exp(-x^2) on [-4, 4] at tol 1e-6, 1e-8 and 1e-9, the largest |S - f|
    was 1.067, 1.075 and 1.069 times the largest check error.

    ``breakpoints`` cut [lo, hi] into segments.  A segment starts with
    max(5, width / (3 min_spacing)) panels, at most ``max_points`` samples
    (Poisson kernels need spacing tied to the kernel scale).  Raises
    ConvergenceError naming the segment when a sample is not finite, or
    when a panel above ``tol`` is at rounding width or would take its
    segment past ``max_points`` samples.  One ``evaluate`` call takes the
    start grids of all segments, each later one the new samples of a round.
    """
    if hi <= lo:
        raise ConvergenceError("sample_function needs hi > lo")
    cuts = sorted({float(lo), float(hi)} | {float(b) for b in breakpoints if lo < b < hi})
    grids = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        n = 5 if min_spacing is None else max(5, math.ceil((b - a) / (3.0 * min_spacing)))
        grids.append(np.linspace(a, b, 6 * max(1, min(n, (max_points - 1) // 6)) + 1))
    count = np.array([len(g) for g in grids])
    vals = np.split(evaluate(np.concatenate(grids)), np.cumsum(count[:-1]))
    # the panels refining: left ends, widths, segments and samples, 7 a row
    a = np.concatenate([g[:-1:6] for g in grids])
    h = np.concatenate([g[6::6] - g[:-1:6] for g in grids])
    seg = np.repeat(np.arange(len(grids)), count // 6)
    y = np.concatenate([np.lib.stride_tricks.sliding_window_view(v, 7)[::6] for v in vals])
    done = []  # (left ends, coefficients, errors) of the panels within tol
    while True:
        c = _coefs(y[:, ::2], h)
        err = _BOUND * np.abs(_cubic_sum(c[:, :, None], h[:, None] * _CHECK)
                              - y[:, 1::2]).max(axis=1)
        live = ~(err <= tol)
        done.append((a[~live], c[:, ~live], err[~live]))
        a, h, seg, y, err = a[live], h[live], seg[live], y[live], err[live]
        if not len(a):
            break
        more = count + 12 * np.bincount(seg, minlength=len(count))
        tiny = h <= _WIDTH * np.maximum(1.0, np.abs(a))
        stop = ~np.isfinite(err) | tiny | (more[seg] > max_points)
        if stop.any():
            j = int(np.argmax(stop))
            where = f"sample_function: segment [{cuts[seg[j]]:g}, {cuts[seg[j] + 1]:g}]"
            if not math.isfinite(err[j]):
                raise ConvergenceError(f"{where} has a non-finite sample")
            why = (f"reached rounding width {h[j]:.3g} at {a[j]:.17g}" if tiny[j] else
                   f"stopped at {count[seg[j]]} points (max_points {max_points})")
            raise ConvergenceError(f"{where} {why} with error {err[j]:.3g} > tol {tol:g}")
        count = more
        # child k of [a, a + h] is its k-th third: the parent's samples 2k,
        # 2k+1, 2k+2 at the child's offsets 0, 1/2, 1, and four new ones
        y, old = np.empty((3 * len(a), 7)), y
        y[:, ::3] = old[:, [[0, 1, 2], [2, 3, 4], [4, 5, 6]]].reshape(-1, 3)
        h = np.repeat(h / 3.0, 3)
        a = np.repeat(a, 3) + h * np.tile([0.0, 1.0, 2.0], len(a))
        seg = np.repeat(seg, 3)
        y[:, [1, 2, 4, 5]] = evaluate((a[:, None] + h[:, None] * _NEW).ravel()).reshape(-1, 4)
    left, coefs, errs = (np.concatenate(p, axis=-1) for p in zip(*done))
    order = np.argsort(left, kind="stable")
    return _Spline(np.append(left[order], cuts[-1]), coefs[:, order]), float(errs.max())


def sampled_expr(fn, lo, hi, kinks=(), name="<sampled>", outside=None, decay=None):
    """Wrap a callable sampled on [lo, hi] as a FunctionExpr whose window
    is [lo, hi].

    Without ``outside`` the function is supported on [lo, hi].  With it,
    ``outside`` evaluates the same function on arrays of points beyond
    [lo, hi] (directly, by quadrature), lo and hi become kinks and
    ``decay`` is the decay class of the tails.  The window keeps line
    integrals from extrapolating the points inside it: their core ends
    at the window's reach, where the tails start, so that ``outside``,
    often a family of integrals itself, is evaluated by the tail rule
    alone (quadrature._radius).
    """
    kinks = {k for k in kinks if lo < k < hi}
    if outside is None:
        return FunctionExpr(Wrapped(fn, name=name, growth_hint=0.0),
                            kinks=tuple(sorted(kinks)), support=(lo, hi),
                            decay=("compact",), window=(lo, hi))

    def values(xs):
        out = fn(xs)
        far = (xs < lo) | (xs > hi)
        if far.any():
            out[far] = outside(xs[far])
        return out

    return FunctionExpr(Wrapped(values, name=name, growth_hint=0.0),
                        kinks=tuple(sorted(kinks | {lo, hi})), support=None, decay=decay,
                        window=(lo, hi))
