"""Spans around each layer's public functions, installed from outside lprim.

``Tracer.install()`` wraps the functions and methods listed in TARGETS.
lprim modules import names directly (convolution holds its own
``integrate_line``), so a wrapped function is rebound in every lprim
module that holds the original.  A span is (name, start, end, parent),
kept in flat arrays in memory and written out by ``save``.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# layer -> (module, qualified names); 'higher' is part of the poisson layer,
# 'jets' of the expr layer (through FunctionExpr.eval_jet)
TARGETS = {
    "parser": ("lprim.parser", ("parse_expr",)),
    "expr": ("lprim.expr", ("FunctionExpr.values", "FunctionExpr.__call__",
                            "FunctionExpr.eval_jet")),
    "quadrature": ("lprim.quadrature", ("integrate", "integrate_line", "lp_norm",
                                        "sup_norm", "find_sign_changes")),
    "sampling": ("lprim.sampling", ("sample_function",)),
    "lpspace": ("lprim.lpspace", ("PrimitiveDistribution.__init__", "Multiplier.__init__",
                                  "Multiplier.G", "Multiplier.norm", "pair", "dual_norm",
                                  "abs_distribution", "reconstruct", "step_approximate",
                                  "membership_check", "translate")),
    "convolution": ("lprim.convolution", ("conv_lq", "star", "conv_multiplier",
                                          "approx_identity", "ConvolutionResult.density_at")),
    "poisson": ("lprim.poisson", ("harmonic_extension", "extension_n", "extension_expr",
                                  "boundary_convergence", "harmonicity_residual")),
    "higher": ("lprim.higher", ("NthDistribution.__post_init__", "pair_n")),
    "fourier": ("lprim.fourier", ("fourier", "fourier_primitive", "fourier_n",
                                  "translation_modulation", "inner_product",
                                  "parseval_check", "exchange_identity")),
}
LAYER_OF = {"higher": "poisson"}


class Tracer:
    def __init__(self):
        self.names = []  # span name per id: "<layer>.<qualname>" or "request.<kind>"
        self.start = array("q")
        self.end = array("q")
        self.name = array("H")
        self.parent = array("l")
        self.points = array("q")  # points evaluated, per span
        self._stack = []
        self._patches = []  # (owner, attribute, original)
        self._ids = {}

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, span_name, fn, count=None):
        """fn inside a span; ``count(args)`` gives the points it evaluates."""
        nid = self._id(span_name)
        start, end, name, parent, points = self.start, self.end, self.name, self.parent, self.points
        stack, clock = self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            points.append(count(args) if count else 0)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return wrapper

    def call(self, span_name, fn):
        """Run fn() inside a root span (one per request)."""
        return self._wrap(span_name, fn)()

    def _sampling(self, span_name, fn):
        """sample_function in a span that counts the point_fn calls it makes."""
        points, stack = self.points, self._stack

        def sampled(point_fn, *args, **kwargs):
            def point(x):
                points[stack[-1]] += 1
                return point_fn(x)
            return fn(point, *args, **kwargs)

        return functools.wraps(fn)(self._wrap(span_name, sampled))

    def install(self):
        lprim_modules = [m for n, m in list(sys.modules.items())
                         if n == "lprim" or n.startswith("lprim.")]
        for layer, (modname, quals) in TARGETS.items():
            mod = sys.modules[modname]
            for qual in quals:
                span_name = f"{LAYER_OF.get(layer, layer)}.{qual}"
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    owner = getattr(mod, cls_name)
                    orig = owner.__dict__[attr]
                    if isinstance(orig, property):
                        new = property(self._wrap(span_name, orig.fget))
                    elif attr == "values":
                        new = self._wrap(span_name, orig, lambda a: np.size(a[1]))
                    elif attr == "__call__":
                        new = self._wrap(span_name, orig, lambda a: 1)
                    else:
                        new = self._wrap(span_name, orig)
                    self._patches.append((owner, attr, orig))
                    setattr(owner, attr, new)
                    continue
                orig = getattr(mod, qual)
                new = (self._sampling(span_name, orig) if qual == "sample_function"
                       else self._wrap(span_name, orig))
                for m in lprim_modules:
                    if m.__dict__.get(qual) is orig:
                        self._patches.append((m, qual, orig))
                        setattr(m, qual, new)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def mark(self):
        """Index of the next span; spans from a mark on form one phase."""
        return len(self.start)

    def totals(self, lo=0, hi=None):
        """Per span name: calls, self ns and points, over spans lo..hi."""
        hi = len(self.start) if hi is None else hi
        start = np.frombuffer(self.start, dtype=np.int64)[lo:hi]
        end = np.frombuffer(self.end, dtype=np.int64)[lo:hi]
        name = np.frombuffer(self.name, dtype=np.uint16)[lo:hi].astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)[lo:hi] - lo
        points = np.frombuffer(self.points, dtype=np.int64)[lo:hi]
        dur = end - start
        inside = parent >= 0
        covered = np.bincount(parent[inside], weights=dur[inside], minlength=dur.size)
        self_ns = dur - covered
        n = len(self.names)
        return {
            "calls": np.bincount(name, minlength=n),
            "self_ns": np.bincount(name, weights=self_ns, minlength=n),
            "points": np.bincount(name, weights=points, minlength=n),
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names),
                 start=np.frombuffer(self.start, dtype=np.int64),
                 end=np.frombuffer(self.end, dtype=np.int64),
                 name=np.frombuffer(self.name, dtype=np.uint16),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 points=np.frombuffer(self.points, dtype=np.int64))
