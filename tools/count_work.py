"""Count the sign-change searches, the Filon work and the GK rounds of one
warm pass over benchmark streams.

    python3 tools/count_work.py --tree . --seed 4 > counts.json

``--tree`` is the root of a checkout (its ``src/lprim`` and ``lprimbench``
are imported).  For each workload the stream of ``--seed`` is built and
run once to warm it; a second pass then runs with counting wrappers on
``quadrature.find_sign_changes``, ``quadrature._fl_eval``,
``quadrature._filon_sum``, ``quadrature._adaptive_gk`` and
``quadrature._gk_panels``.  Printed per workload: the search's calls, the
``FunctionExpr.values`` calls and points made inside it and its wall time
in ms; the ``_fl_eval`` calls (the Filon-Legendre sampling rounds) and the
panels they evaluate; the ``_filon_sum`` calls; the ``_adaptive_gk``
calls (the GK panel pools), the ``_gk_panels`` calls (the GK rounds, more
than one where a round is evaluated in chunks) and the panels they
evaluate; the ``FunctionExpr.values`` points of the whole pass; and the
wall time of the whole pass in ms.  The times are from one run and give
context only; the counts do not depend on the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

WORKLOADS = ("duality", "convolution", "halfplane", "fourier")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--tree", required=True, help="root of the checkout to count")
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    tree = os.path.abspath(args.tree)
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "lprimbench")]
    import streams
    from lprim import expr, higher, quadrature

    zero = {"calls": 0, "values_calls": 0, "points": 0, "ms": 0.0,
            "fl_eval_calls": 0, "fl_panels": 0, "filon_sum_calls": 0,
            "gk_calls": 0, "gk_rounds": 0, "gk_panels": 0, "pass_points": 0}
    tally = dict(zero)
    inside = [False]
    search, values = quadrature.find_sign_changes, expr.FunctionExpr.values
    fl_eval, filon_sum = quadrature._fl_eval, quadrature._filon_sum
    adaptive_gk, gk_panels = quadrature._adaptive_gk, quadrature._gk_panels

    def counted_search(*a, **kw):
        tally["calls"] += 1
        inside[0] = True
        t0 = time.perf_counter()
        try:
            return search(*a, **kw)
        finally:
            tally["ms"] += 1e3 * (time.perf_counter() - t0)
            inside[0] = False

    def counted_values(self, xs, *a, **kw):
        tally["pass_points"] += int(getattr(xs, "size", 1))
        if inside[0]:
            tally["values_calls"] += 1
            tally["points"] += int(getattr(xs, "size", 1))
        return values(self, xs, *a, **kw)

    def counted_fl_eval(f, lo, hi):
        tally["fl_eval_calls"] += 1
        tally["fl_panels"] += len(lo)
        return fl_eval(f, lo, hi)

    def counted_filon_sum(*a):
        tally["filon_sum_calls"] += 1
        return filon_sum(*a)

    def counted_adaptive_gk(*a, **kw):
        tally["gk_calls"] += 1
        return adaptive_gk(*a, **kw)

    def counted_gk_panels(fn, owner, lo, hi, rounding):
        tally["gk_rounds"] += 1
        tally["gk_panels"] += len(lo)
        return gk_panels(fn, owner, lo, hi, rounding)

    out = {}
    for w in WORKLOADS:
        reqs = streams.build(w, args.seed)
        for r in reqs:
            r.run()
        tally.update(zero)
        quadrature.find_sign_changes = higher.find_sign_changes = counted_search
        quadrature._fl_eval, quadrature._filon_sum = counted_fl_eval, counted_filon_sum
        quadrature._adaptive_gk, quadrature._gk_panels = counted_adaptive_gk, counted_gk_panels
        expr.FunctionExpr.values = counted_values
        t0 = time.perf_counter()
        try:
            for r in reqs:
                r.run()
        finally:
            quadrature.find_sign_changes = higher.find_sign_changes = search
            quadrature._fl_eval, quadrature._filon_sum = fl_eval, filon_sum
            quadrature._adaptive_gk, quadrature._gk_panels = adaptive_gk, gk_panels
            expr.FunctionExpr.values = values
        out[w] = {**tally, "pass_ms": 1e3 * (time.perf_counter() - t0)}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
