"""The sampling layer: local cubic panels against the functions they sample.

Each case samples a function, then checks the piecewise cubic against the
function itself at random and grid points, and the work against the panel
layout: the start grids in one call, then one call per round holding four
new samples for each child of each split panel.
"""

import math

import numpy as np
import pytest

from lprim.errors import ConvergenceError
from lprim.parser import parse_expr
from lprim.quadrature import DEFAULT_CONFIG, ConvolutionValues
from lprim.sampling import sample_function


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
    # min_spacing asks for more points than max_points: the start is capped
    "capped_start": (lambda x: np.cos(x), -3.0, 3.0,
                     {"min_spacing": 0.001, "max_points": 512, "tol": 1e-6}),
    "convolution": (_conv_values, -6.0, 7.0, {"breakpoints": (0.0, 1.0), "tol": 1e-9}),
}


def _queries(lo, hi, cuts):
    rng = np.random.default_rng(7)
    inside = rng.uniform(lo, hi, 2000)
    grid = np.linspace(lo, hi, 4097)
    return np.concatenate([inside, grid, [lo, hi, *cuts]])


def _start_panels(a, b, kw):
    """The documented start: max(5, width / (3 min_spacing)) panels, at
    most max_points samples."""
    spacing = kw.get("min_spacing")
    n = 5 if spacing is None else max(5, math.ceil((b - a) / (3.0 * spacing)))
    return min(n, (kw.get("max_points", 4096) - 1) // 6)


@pytest.mark.parametrize("name", list(CASES))
def test_accuracy_against_the_sampled_function(name):
    fn, lo, hi, kw = CASES[name]
    rec = Recorder(fn)
    spline, err = sample_function(rec, lo, hi, **kw)
    assert 0.0 <= err <= kw.get("tol", 1e-9)
    cuts = [b for b in kw.get("breakpoints", ()) if lo < b < hi]
    q = _queries(lo, hi, cuts)
    assert np.max(np.abs(spline(q) - fn(q))) <= 2.0 * kw.get("tol", 1e-9)
    outside = np.array([lo - 1.0, hi + 1.0, -np.inf, np.inf,
                        np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)])
    assert np.all(spline(outside) == 0.0)
    for x in (lo, hi, *cuts, lo - 1.0):
        assert spline(x).shape == ()

    # one call per round: the start grids, then 4 new samples for each of
    # the 3 children of each split panel, no point asked for twice but
    # the breakpoints, which end one start grid and begin the next
    edges = sorted({lo, hi, *cuts})
    starts = [_start_panels(a, b, kw) for a, b in zip(edges[:-1], edges[1:])]
    assert len(rec.calls[0]) == sum(6 * n + 1 for n in starts)
    assert all(len(c) % 12 == 0 and len(c) > 0 for c in rec.calls[1:])
    points = np.concatenate(rec.calls)
    assert len(np.unique(points)) == len(points) - len(cuts)
    # a panel split k times is 3^-k of its segment's start width; the
    # deepest one took one call per split
    seg = np.searchsorted(edges, spline.knots[:-1], side="right") - 1
    start_width = (np.diff(edges) / starts)[seg]
    depth = np.rint(np.log(start_width / np.diff(spline.knots)) / np.log(3.0))
    assert len(rec.calls) == 1 + int(depth.max())


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-9])
def test_error_estimate_bounds_the_error(tol):
    # the cubic's error peaks between the check points, at 16/15 of its
    # size at t = 1/6 where the fourth derivative is constant: the largest
    # check error alone fell 7 % short on these three
    fn = lambda x: np.exp(-x * x)  # noqa: E731
    spline, err = sample_function(fn, -4.0, 4.0, tol=tol)
    xs = np.linspace(-4.0, 4.0, 200_001)
    assert np.max(np.abs(spline(xs) - fn(xs))) <= err <= tol


def test_stops_at_max_points_with_tolerance_met():
    # a segment may end with exactly max_points samples; one fewer raises
    fn, lo, hi = (lambda x: np.exp(np.sin(4.0 * x))), -2.0, 2.0
    rec = Recorder(fn)
    first, err = sample_function(rec, lo, hi, tol=1e-8)
    used = sum(map(len, rec.calls))
    again, err_at_cap = sample_function(fn, lo, hi, tol=1e-8, max_points=used)
    assert err_at_cap == err
    q = _queries(lo, hi, [])
    np.testing.assert_array_equal(again(q), first(q))
    with pytest.raises(ConvergenceError, match="max_points"):
        sample_function(fn, lo, hi, tol=1e-8, max_points=used - 1)


def test_cap_with_unmet_tolerance_raises():
    rec = Recorder(lambda x: np.exp(np.sin(4.0 * x)))
    with pytest.raises(ConvergenceError) as info:
        sample_function(rec, -2.0, 2.0, tol=1e-12, max_points=300)
    msg = str(info.value)
    used = sum(map(len, rec.calls))
    assert used <= 300
    assert "sample_function" in msg and "[-2, 2]" in msg
    assert f"stopped at {used} points (max_points 300)" in msg and "> tol 1e-12" in msg


def test_cap_names_the_failing_segment():
    # the smooth segment converges, the steep one does not
    fn = lambda x: np.where(x <= 0.0, np.cos(x), np.sin(200.0 * x))  # noqa: E731
    with pytest.raises(ConvergenceError, match=r"segment \[0, 1\]"):
        sample_function(fn, -1.0, 1.0, breakpoints=(0.0,), tol=1e-6, max_points=128)


def test_rounding_width_stops_an_undeclared_jump():
    # only the panel holding the jump splits, until it is a few ulps wide
    jump = 1.0 / math.pi
    rec = Recorder(lambda x: np.where(x < jump, 0.0, 1.0))
    with pytest.raises(ConvergenceError, match=r"segment \[0, 1\] reached rounding width"):
        sample_function(rec, 0.0, 1.0, tol=1e-6, max_points=10**6)
    assert all(len(c) <= 24 for c in rec.calls[1:])
    assert len(rec.calls) < 40


def test_non_finite_sample_raises():
    with pytest.raises(ConvergenceError, match="non-finite"):
        sample_function(lambda x: np.where(x > 0.5, np.nan, x), 0.0, 1.0)
