"""The sampling layer against the CubicSpline sampler it replaced.

`reference_sample_function` is the earlier implementation, kept verbatim:
one scipy `CubicSpline` per refinement round and per segment, and a
`_SegmentSpline` that evaluates each segment's spline under its own mask.
The current sampler refines all segments together, one call per round,
so it asks for the same points in fewer calls: 1 + the rounds of the
deepest segment.  It must return the same error estimate and evaluate
to the same values, bit for bit.
"""

import math
from collections import Counter

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from lprim.errors import ConvergenceError
from lprim.parser import parse_expr
from lprim.quadrature import DEFAULT_CONFIG, ConvolutionValues
from lprim.sampling import sample_function


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


def reference_sample_function(evaluate, lo, hi, breakpoints=(), tol=1e-9, initial=16,
                              max_points=4096, min_spacing=None):
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


class Recorder:
    """Wraps an array function and keeps every array it was asked for."""

    def __init__(self, fn):
        self.fn, self.calls = fn, []

    def __call__(self, xs):
        self.calls.append(np.array(xs, copy=True))
        return self.fn(xs)


def _kinked(x):
    return np.abs(x) * np.exp(-x * x) + np.maximum(x - 1.0, 0.0) ** 2


def _conv_values(xs):
    h = ConvolutionValues(parse_expr("indicator(0,1)"), parse_expr("exp(-x^2)"),
                          DEFAULT_CONFIG, "convolution")
    return h(xs)


CASES = {
    "smooth": (lambda x: np.exp(-x * x), -4.0, 4.0, {}),
    "breakpoints": (_kinked, -2.0, 3.0,
                    {"breakpoints": (0.0, 1.0, -2.0, 5.0), "tol": 1e-8}),
    "min_spacing": (lambda x: np.sin(3.0 * x) / (1.0 + x * x), 0.0, 5.0,
                    {"min_spacing": 0.01, "tol": 1e-7}),
    # min_spacing asks for more points than max_points: one round at the cap
    "capped_start": (lambda x: np.cos(x), -3.0, 3.0,
                     {"min_spacing": 0.001, "max_points": 512, "tol": 1e-6}),
    "convolution": (_conv_values, -6.0, 7.0, {"breakpoints": (0.0, 1.0), "tol": 1e-9}),
}


def _queries(lo, hi, cuts):
    rng = np.random.default_rng(7)
    inside = rng.uniform(lo, hi, 2000)
    grid = np.linspace(lo, hi, 4097)
    edges = np.array([lo, hi, *cuts, lo - 1.0, hi + 1.0, -np.inf, np.inf,
                      np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)])
    return np.concatenate([inside, grid, edges])


def _run_both(fn, lo, hi, kw):
    new_f, ref_f = Recorder(fn), Recorder(fn)
    new, err = sample_function(new_f, lo, hi, **kw)
    ref, ref_err = reference_sample_function(ref_f, lo, hi, **kw)
    return new, err, new_f.calls, ref, ref_err, ref_f.calls


@pytest.mark.parametrize("name", list(CASES))
def test_matches_cubic_spline_reference(name):
    fn, lo, hi, kw = CASES[name]
    new, err, calls, ref, ref_err, ref_calls = _run_both(fn, lo, hi, kw)
    assert err == ref_err
    np.testing.assert_array_equal(np.sort(np.concatenate(calls)),
                                  np.sort(np.concatenate(ref_calls)))
    cuts = [b for b in kw.get("breakpoints", ()) if lo < b < hi]
    # the reference makes one call per segment and round; each call's
    # points lie in one segment
    edges = np.array(sorted({lo, hi, *cuts}))
    per_segment = Counter(int(np.searchsorted(edges, c.mean())) for c in ref_calls)
    assert len(calls) == max(per_segment.values())  # 1 + the deepest segment's rounds
    if name == "breakpoints":
        assert (len(calls), len(ref_calls)) == (5, 14)
    q = _queries(lo, hi, cuts)
    np.testing.assert_array_equal(new(q), ref(q))
    outside = (q < lo) | (q > hi)
    assert np.all(new(q)[outside] == 0.0)
    for x in (lo, hi, *cuts, lo - 1.0):
        assert new(x).shape == ()
        assert new(x) == ref(x)


def test_stops_at_max_points_with_tolerance_met():
    # refine until the grid passes max_points, the last round's error being
    # exactly the tolerance: both samplers stop there, by the cap
    fn, lo, hi = (lambda x: np.exp(np.sin(4.0 * x))), -2.0, 2.0
    _, err_at_cap = reference_sample_function(fn, lo, hi, tol=0.0, max_points=300)
    kw = {"tol": err_at_cap, "max_points": 300}
    new, err, calls, ref, ref_err, ref_calls = _run_both(fn, lo, hi, kw)
    assert err == ref_err == err_at_cap
    # every grid point is evaluated once: the final grid passed the cap
    assert sum(map(len, calls)) > 300
    q = _queries(lo, hi, [])
    np.testing.assert_array_equal(new(q), ref(q))


def test_cap_with_unmet_tolerance_raises():
    fn = lambda x: np.exp(np.sin(4.0 * x))  # noqa: E731
    _, err_at_cap = reference_sample_function(fn, -2.0, 2.0, tol=0.0, max_points=300)
    with pytest.raises(ConvergenceError) as info:
        sample_function(fn, -2.0, 2.0, tol=0.5 * err_at_cap, max_points=300)
    msg = str(info.value)
    assert "sample_function" in msg and "[-2, 2]" in msg
    assert "513 points" in msg and f"{err_at_cap:.3g}" in msg


def test_cap_names_the_failing_segment():
    # the smooth segment converges, the steep one does not
    fn = lambda x: np.where(x <= 0.0, np.cos(x), np.sin(200.0 * x))  # noqa: E731
    with pytest.raises(ConvergenceError, match=r"segment \[0, 1\]"):
        sample_function(fn, -1.0, 1.0, breakpoints=(0.0,), tol=1e-6, max_points=128)


def test_non_finite_sample_raises():
    with pytest.raises(ConvergenceError, match="non-finite"):
        sample_function(lambda x: np.where(x > 0.5, np.nan, x), 0.0, 1.0)


def test_too_few_initial_points_rejected():
    with pytest.raises(ConvergenceError, match="initial >= 3"):
        sample_function(np.cos, 0.0, 1.0, initial=2)
