"""Steadiness check: run every workload once for each of seeds 1-10.

    python3 lprimbench/steady.py

Runs are interleaved, one per workload per round, and the order of the
workloads alternates (reversed every other round), so a drift of the
machine's speed spreads over all workloads instead of landing on one.
Every run has its own seed, as a check of two sets of runs has, so the
spreads hold the machine's drift and the seed-driven change in the work
together.  For each end-to-end metric it prints the median, the
quartiles (statistics.quantiles, n=4), the spread (q3 - q1) / median,
the largest relative spread (max - min) / median, and the bound from
BENCHMARK.json.  A spread under a third of the bound is marked ok;
setup_s is reported but not held to it.  Results go to
.bench_out/steady.json as well.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def run_once(spec, workload, seed):
    cmd = list(spec["command"]) + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "max_spread": (max(values) - min(values)) / med, "values": values}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]

    results = {w: [] for w in workloads}
    for i, seed in enumerate(SEEDS):
        for w in (workloads if i % 2 == 0 else workloads[::-1]):
            res = run_once(spec, w, seed)
            results[w].append(res)
            print(f"# {w} seed={seed} failed={res['failed']}/{res['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                  flush=True)

    report = {}
    ok = True
    print(f"{'workload':12s} {'metric':15s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>7s} {'max':>7s} {'bound':>6s}")
    for w in workloads:
        shares = {r["failed"] / r["attempted"] for r in results[w]}
        report[w] = {"failed_shares": sorted(shares)}
        ok &= len(shares) == 1 and all(r["correct"] for r in results[w])
        for m in spec["end_to_end"]:
            s = summarise([r["metrics"][m["name"]]["value"] for r in results[w]])
            report[w][m["name"]] = s
            steady = m["name"] == "setup_s" or s["spread"] < m["bound"] / 3
            ok &= steady
            print(f"{w:12s} {m['name']:15s} {s['median']:10.4g} {s['q1']:10.4g} "
                  f"{s['q3']:10.4g} {s['spread']:7.3f} {s['max_spread']:7.3f} "
                  f"{m['bound']:6.2f} {'ok' if steady else 'WIDE'}")
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "steady.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
