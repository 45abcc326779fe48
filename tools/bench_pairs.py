"""Alternating benchmark pairs: a parent commit against the working tree.

    python3 tools/bench_pairs.py --out BENCH_25.json --parent e08cdf9 \\
        --workloads halfplane,duality,convolution,fourier --first-seed 2501 --traced-seed 4

Run from the root of a checkout.  The parent commit (``--parent``) is
exported with ``git archive`` into a temporary directory; the change is
the working tree as it stands.  For each workload, pair k of 10 runs
``lprimbench/run.py --seed S --seconds 27 --trace 0`` once in each tree,
with its own seed S = first_seed + 10 i + k for workload i; the parent
runs first in odd pairs and the change first in even ones, and the
workloads take turns by round, in reversed order every other round.
Ten pairs of 27 s runs are what the benchmark's method asks of a claim.
The output holds every run's JSON line and a summary per workload and
end-to-end metric of BENCHMARK.json: both sides' medians and quartiles
and the pairs the change won.  With ``--traced-seed`` each side also
makes one 4 s ``--trace 1`` run per workload, whose per-layer metrics
are kept, and ``tools/count_work.py`` counts each side's sign-change
searches, Filon-Legendre sampling rounds and GK pools, rounds and panels
over one warm pass of that seed.  The file is rewritten after every pair.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10
SECONDS = 27.0
TRACED_SECONDS = 4.0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    ap.add_argument("--parent", required=True, help="the parent commit")
    ap.add_argument("--workloads", default="duality,convolution,halfplane,fourier")
    ap.add_argument("--first-seed", type=int, required=True,
                    help="workload i's pair k runs seed first_seed + 10 i + k")
    ap.add_argument("--traced-seed", type=int, default=None)
    return ap.parse_args(argv)


def export(rev, into):
    """The tree of ``rev`` written under ``into``."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)
    return subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", rev],
                          capture_output=True, text=True, check=True).stdout.strip()


def run_once(tree, workload, seed, seconds, trace):
    start = datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    cmd = [sys.executable, "lprimbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                         timeout=4 * seconds + 300)
    lines = [ln for ln in out.stdout.splitlines() if ln.startswith("{")]
    result = json.loads(lines[-1]) if lines else None
    return {"workload": workload, "seed": seed, "trace": trace, "exit": out.returncode,
            "start": start, "result": result}


def summarise(runs, metrics):
    """Per workload and metric: medians, quartiles and pairs won, over the
    pairs whose two runs both printed a result."""
    summary = {}
    for w in dict.fromkeys(r["workload"] for r in runs if r["trace"] == 0):
        by_seed = {}
        for r in runs:
            if r["workload"] == w and r["trace"] == 0 and r["result"] is not None:
                by_seed.setdefault(r["seed"], {})[r["side"]] = r["result"]
        pairs = [p for p in by_seed.values() if len(p) == 2]
        if not pairs:
            continue
        for name, better in metrics:
            par = [p["parent"]["metrics"][name]["value"] for p in pairs]
            chg = [p["change"]["metrics"][name]["value"] for p in pairs]
            won = sum((c > p) if better == "higher" else (c < p) for p, c in zip(par, chg))
            pq1, pq3 = np.percentile(par, [25, 75])
            cq1, cq3 = np.percentile(chg, [25, 75])
            summary[f"{w}.{name}"] = {
                "parent_median": round(statistics.median(par), 4),
                "change_median": round(statistics.median(chg), 4),
                "parent_q1": round(pq1, 4), "parent_q3": round(pq3, 4),
                "change_q1": round(cq1, 4), "change_q3": round(cq3, 4),
                "pairs_won": f"{won}/{len(pairs)}"}
        summary[f"{w}.failed"] = {
            **{side: sum(p[side]["failed"] for p in pairs) for side in ("parent", "change")},
            **{f"attempted_{side}": sum(p[side]["attempted"] for p in pairs)
               for side in ("parent", "change")}}
    return summary


def counts(tree, seed):
    """tools/count_work.py over ``tree``'s seed-``seed`` streams."""
    out = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "count_work.py"),
                          "--tree", tree, "--seed", str(seed)],
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = [(m["name"], m["better"]) for m in json.load(fh)["end_to_end"]]
    workloads = args.workloads.split(",")
    seeds = ", ".join(f"{w} seeds {args.first_seed + 10 * i}-{args.first_seed + 10 * i + PAIRS - 1}"
                      for i, w in enumerate(workloads))
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent:
        rev = export(args.parent, parent)
        trees = {"parent": parent, "change": ROOT}
        doc = {
            "description": f"lprimbench/run.py result lines for the parent commit {rev} and "
                           "for the working tree, run alternately on one machine "
                           "(tools/bench_pairs.py)",
            "command": f"python3 lprimbench/run.py --workload W --seed N "
                       f"--seconds {SECONDS:g} --trace 0",
            "machine": {"cpu": f"{os.cpu_count()} cores", "python": platform.python_version(),
                        "numpy": np.__version__, "os": platform.system()},
            "plan": f"{PAIRS} pairs per workload at --seconds {SECONDS:g}, interleaved by round "
                    f"(workload order reversed every other round): {seeds}. The parent ran "
                    "first in pairs " + ", ".join(str(k + 1) for k in range(0, PAIRS, 2)) + ".",
            "summary": {}, "runs": []}

        def save():
            doc["summary"] = summarise(doc["runs"], metrics)
            with open(args.out, "w") as fh:
                json.dump(doc, fh, indent=1)

        if args.traced_seed is not None:
            doc["traced"] = {
                "seed": args.traced_seed, "seconds": TRACED_SECONDS,
                "description": f"python3 lprimbench/run.py --workload W --seed "
                               f"{args.traced_seed} --seconds {TRACED_SECONDS:g} --trace 1, "
                               "one run per side; per-pass per-layer metrics"}
            for side, tree in trees.items():
                for w in workloads:
                    run = run_once(tree, w, args.traced_seed, TRACED_SECONDS, 1)
                    doc["traced"].setdefault(side, {})[w] = (
                        run["result"] and run["result"]["metrics"])
            doc[f"counts_seed{args.traced_seed}"] = {
                "description": "tools/count_work.py: one warm in-process pass over "
                               "each stream with counting wrappers on "
                               "quadrature.find_sign_changes, quadrature._fl_eval, "
                               "quadrature._filon_sum, quadrature._adaptive_gk and "
                               "quadrature._gk_panels, and on FunctionExpr.values "
                               "(pass_points)",
                **{side: counts(tree, args.traced_seed) for side, tree in trees.items()}}
        for k in range(PAIRS):
            order = workloads if k % 2 == 0 else workloads[::-1]
            for w in order:
                seed = args.first_seed + 10 * workloads.index(w) + k
                sides = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for side in sides:
                    run = run_once(trees[side], w, seed, SECONDS, 0)
                    doc["runs"].append({"side": side, **run})
                    print(side, w, seed, run["exit"], run["result"] and
                          run["result"]["metrics"]["answers_per_s"]["value"], flush=True)
            save()
        save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
