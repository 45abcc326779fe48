"""Count the sign-change searches and the Filon work of one warm pass over
benchmark streams.

    python3 tools/count_work.py --tree . --seed 4 > counts.json

``--tree`` is the root of a checkout (its ``src/lprim`` and ``lprimbench``
are imported).  For each workload the stream of ``--seed`` is built and
run once to warm it; a second pass then runs with counting wrappers on
``quadrature.find_sign_changes``, ``quadrature._fl_eval`` and
``quadrature._filon_sum``.  Printed per workload: the search's calls, the
``FunctionExpr.values`` calls and points made inside it and its wall time
in ms; the ``_fl_eval`` calls (the Filon-Legendre sampling rounds) and the
panels they evaluate; the ``_filon_sum`` calls; and the wall time of the
whole pass in ms.  The times are from one run and give context only; the
counts do not depend on the machine.
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
            "fl_eval_calls": 0, "fl_panels": 0, "filon_sum_calls": 0}
    tally = dict(zero)
    inside = [False]
    search, values = quadrature.find_sign_changes, expr.FunctionExpr.values
    fl_eval, filon_sum = quadrature._fl_eval, quadrature._filon_sum

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

    out = {}
    for w in WORKLOADS:
        reqs = streams.build(w, args.seed)
        for r in reqs:
            r.run()
        tally.update(zero)
        quadrature.find_sign_changes = higher.find_sign_changes = counted_search
        quadrature._fl_eval, quadrature._filon_sum = counted_fl_eval, counted_filon_sum
        expr.FunctionExpr.values = counted_values
        t0 = time.perf_counter()
        try:
            for r in reqs:
                r.run()
        finally:
            quadrature.find_sign_changes = higher.find_sign_changes = search
            quadrature._fl_eval, quadrature._filon_sum = fl_eval, filon_sum
            expr.FunctionExpr.values = values
        out[w] = {**tally, "pass_ms": 1e3 * (time.perf_counter() - t0)}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
