"""lprim benchmark: certified answers per second on seeded request streams.

    python3 lprimbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; lprim is imported from ./src.
One process, one thread, one caller in a closed loop: each request is
sent when the previous answer is back.  The run repeats whole passes
over the workload's request list while another pass still fits in S
seconds, then checks every answer against its oracle (outside every
timing) and prints one JSON line.

--trace 0 reports the end-to-end metrics, from every answer's time
scaled to a reference speed of the machine (scaled_times); --trace 1
alternates untraced
and traced passes and reports per-layer metrics per pass, plus the
tracing overhead.  Span traces and per-request timings are written
under .bench_out/.
"""

from __future__ import annotations

import os

# one thread for BLAS/OpenMP, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 3
WORKLOADS = ("duality", "convolution", "halfplane", "fourier")
# calibration_loop's time at the reference speed: about the fastest of its
# per-pass medians on the machine of the README's figures (2 cores, Python
# 3.11.7); end-to-end times are scaled to that speed
CAL_REF_S = 1.2e-3


def parse_args(argv):
    ap = argparse.ArgumentParser(description="lprim benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_streams():
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "lprim")):
        raise SystemExit(f"lprim sources not found under {src}")
    sys.path[:0] = [src, HERE]
    import streams

    return streams


def setup_seconds(args):
    """Fresh interpreter -> first request ready, measured from this process
    on the shared monotonic clock; the child reports when it is ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    t0 = time.monotonic()
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.split()[-1]) - t0


def calibration_loop():
    """A fixed pure-Python loop that uses nothing of lprim: its time
    measures how fast the machine runs interpreted code at the moment."""
    s = 0
    for i in range(20000):
        s += i * i % 7
    return s


def run_pass(reqs, call, cal=None):
    """One pass over the list: (seconds per request, answers or exceptions).
    With a list `cal`, calibration_loop runs after each request, outside
    its timing, and its times are appended to `cal`."""
    times, answers = [], []
    clock = time.perf_counter
    for req in reqs:
        t0 = clock()
        try:
            ans = call(req)
        except Exception as exc:  # a raising request is a failed answer
            ans = exc
        times.append(clock() - t0)
        answers.append(ans)
        if cal is not None:
            t0 = clock()
            calibration_loop()
            cal.append(clock() - t0)
    return times, answers


def check_answers(reqs, passes):
    """(failed, worst share of tolerance, failure messages)."""
    failed = 0
    worst = 0.0
    messages = []
    for _, answers in passes:
        for req, ans in zip(reqs, answers):
            if isinstance(ans, Exception):
                failed += 1
                messages.append(f"{req.label}: raised {type(ans).__name__}: {ans}")
                continue
            share = req.check(ans)
            worst = max(worst, share)
            if not share <= 1.0:
                failed += 1
                messages.append(f"{req.label}: answer {ans} off by {share:.3g} x tolerance")
    return failed, worst, messages


def scaled_times(passes, cals):
    """The time of every answer that did not raise, divided by the slowdown
    of its pass: the pass's median calibration time over CAL_REF_S."""
    slowdowns = [statistics.median(cal) / CAL_REF_S for cal in cals]
    scaled = [t / slow for (ts, answers), slow in zip(passes, slowdowns)
              for t, a in zip(ts, answers) if not isinstance(a, Exception)]
    return scaled or [math.nan], slowdowns


def metric(value, unit):
    return {"value": value, "unit": unit}


def repeat(seconds, step):
    """Call step() until another call would end past `seconds`; at least once."""
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        step()
        t1 = time.perf_counter()
        if t1 + (t1 - t0) - t_start > seconds:
            return


def untraced(args, reqs):
    """End-to-end metrics from every answer's time, scaled to the reference
    speed (scaled_times)."""
    passes, cals = [], []

    def one_pass():
        cals.append([])
        passes.append(run_pass(reqs, lambda r: r.run(), cals[-1]))

    repeat(args.seconds, one_pass)
    scaled, slowdowns = scaled_times(passes, cals)
    return passes, slowdowns, {
        "answers_per_s": metric(len(scaled) / math.fsum(scaled), "1/s"),
        "answer_p50_ms": metric(1e3 * statistics.median(scaled), "ms"),
    }


def traced(args, reqs, tracer, setup_totals):
    """An untimed warm-up pass, then untraced and traced passes in ABBA
    order; per-layer metrics per traced pass."""
    plain, spans, marks = [], [], []
    # lprim builds some tables on first use (a first fourier pass takes
    # about 1.3 times the others); keep that out of the overhead
    t0 = time.perf_counter()
    warm = run_pass(reqs, lambda r: r.run())

    def traced_pass():
        tracer.install()
        marks.append(tracer.mark())
        spans.append(run_pass(reqs, lambda r: tracer.call("request." + r.kind, r.run)))
        tracer.uninstall()

    def pair():
        plain_pass = lambda: plain.append(run_pass(reqs, lambda r: r.run()))
        for step in ((plain_pass, traced_pass) if len(spans) % 2 == 0
                     else (traced_pass, plain_pass)):
            step()

    repeat(args.seconds - (time.perf_counter() - t0), pair)
    n = len(spans)
    tot = tracer.totals(marks[0])
    idx = {name: i for i, name in enumerate(tracer.names)}

    def per_pass(kind, name):
        return float(tot[kind][idx[name]]) / n

    def layer_ms(layer, totals=tot, passes=n):
        return sum(totals["self_ns"][i] for name, i in idx.items()
                   if name.startswith(layer + ".")) / 1e6 / passes

    values, scalar = "expr.FunctionExpr.values", "expr.FunctionExpr.__call__"
    signs, sampler = "quadrature.find_sign_changes", "sampling.sample_function"
    expr_points = per_pass("points", values) + per_pass("points", scalar)
    value_calls = per_pass("calls", values)
    plain_s = math.fsum(t for ts, _ in plain for t in ts)
    traced_s = math.fsum(t for ts, _ in spans for t in ts)
    m = {
        "quadrature.sign_change_calls": metric(per_pass("calls", signs), "count"),
        "quadrature.sign_change_self_ms": metric(per_pass("self_ns", signs) / 1e6, "ms"),
        "quadrature.integrate_line_calls": metric(
            per_pass("calls", "quadrature.integrate_line"), "count"),
        "quadrature.integrate_calls": metric(per_pass("calls", "quadrature.integrate"), "count"),
        "quadrature.self_ms": metric(layer_ms("quadrature"), "ms"),
        "expr.values_calls": metric(value_calls, "count"),
        "expr.points": metric(expr_points, "count"),
        "expr.points_per_call": metric(
            per_pass("points", values) / value_calls if value_calls else 0.0, "points"),
        "expr.self_ms": metric(layer_ms("expr"), "ms"),
        "expr.ns_per_point": metric(
            1e6 * layer_ms("expr") / expr_points if expr_points else 0.0, "ns"),
        "sampling.calls": metric(per_pass("calls", sampler), "count"),
        "sampling.points": metric(per_pass("points", sampler), "count"),
        "sampling.self_ms": metric(layer_ms("sampling"), "ms"),
        "lpspace.self_ms": metric(layer_ms("lpspace"), "ms"),
        "convolution.self_ms": metric(layer_ms("convolution"), "ms"),
        "poisson.self_ms": metric(layer_ms("poisson"), "ms"),
        "fourier.self_ms": metric(layer_ms("fourier"), "ms"),
        # the parser's self time while the stream is built, a part of setup_s
        "parser.self_ms": metric(layer_ms("parser", setup_totals, 1), "ms"),
        "trace.overhead_pct": metric(100.0 * (traced_s / plain_s - 1.0), "%"),
    }
    return [warm] + plain + spans, m


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.setup_probe:
        streams = import_streams()
        streams.build(args.workload, args.seed)
        print(time.monotonic(), flush=True)
        return 0

    streams = import_streams()
    setups = [] if args.trace else [setup_seconds(args) for _ in range(SETUP_PROBES)]
    tag = f"{args.workload}-seed{args.seed}"
    os.makedirs(OUT_DIR, exist_ok=True)
    slowdowns = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        reqs = streams.build(args.workload, args.seed)
        tracer.uninstall()
        passes, metrics = traced(args, reqs, tracer, tracer.totals(0))
        tracer.save(os.path.join(OUT_DIR, f"{tag}-spans.npz"))
    else:
        reqs = streams.build(args.workload, args.seed)
        passes, slowdowns, metrics = untraced(args, reqs)
        metrics["setup_s"] = metric(statistics.median(setups), "s")
        metrics["peak_rss_mb"] = metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    failed, worst, messages = check_answers(reqs, passes)
    for msg in messages[:20]:
        print("FAILED", msg, file=sys.stderr)
    with open(os.path.join(OUT_DIR, f"{tag}-trace{args.trace}-result.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "passes": len(passes),
                   "worst_share_of_tolerance": worst, "slowdowns": slowdowns,
                   "metrics": metrics,
                   "requests": [{"label": r.label, "ms": [1e3 * ts[i] for ts, _ in passes]}
                                for i, r in enumerate(reqs)]}, fh, indent=1)
    print(json.dumps({"correct": failed == 0,
                      "attempted": len(reqs) * len(passes),
                      "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SystemExit:
        raise
    except BaseException:
        traceback.print_exc()
        sys.exit(1)
