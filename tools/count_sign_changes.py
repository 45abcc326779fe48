"""Count the sign-change searches of one warm pass over benchmark streams.

    python3 tools/count_sign_changes.py --tree . --seed 4 > counts.json

``--tree`` is the root of a checkout (its ``src/lprim`` and ``lprimbench``
are imported).  For each workload the stream of ``--seed`` is built and
run once to warm it; a second pass then runs with a counting wrapper on
``quadrature.find_sign_changes``.  Printed per workload: the wrapper's
calls, the ``FunctionExpr.values`` calls and points made inside it, its
wall time in ms and the wall time of the whole pass in ms.  The times
are from one run and give context only; the counts do not depend on the
machine.
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

    tally = {"calls": 0, "values_calls": 0, "points": 0, "ms": 0.0}
    inside = [False]
    search, values = quadrature.find_sign_changes, expr.FunctionExpr.values

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

    out = {}
    for w in WORKLOADS:
        reqs = streams.build(w, args.seed)
        for r in reqs:
            r.run()
        tally.update(calls=0, values_calls=0, points=0, ms=0.0)
        quadrature.find_sign_changes = higher.find_sign_changes = counted_search
        expr.FunctionExpr.values = counted_values
        t0 = time.perf_counter()
        try:
            for r in reqs:
                r.run()
        finally:
            quadrature.find_sign_changes = higher.find_sign_changes = search
            expr.FunctionExpr.values = values
        out[w] = {**tally, "pass_ms": 1e3 * (time.perf_counter() - t0)}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
