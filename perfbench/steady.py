#!/usr/bin/env python3
"""Steadiness report for the benchmark described by BENCHMARK.json.

Runs the benchmark command once per seed on each workload and prints, for
every end-to-end metric, the median, the quartiles and the spread (the
distance between the quartiles as a share of the median). A metric whose
spread exceeds its bound is flagged FAIL, one above a third of its bound
WARN; setup_s is reported but not flagged, since only its median is gated.

    python3 perfbench/steady.py --runs 10 --seed0 1 [--workloads read-mix,ingest]

Run it from the root of the repository. The exit status is non-zero when a
run fails or a spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    listed = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]

    bad = False
    for name in names:
        values = {m["name"]: [] for m in listed}
        for i in range(args.runs):
            seed = args.seed0 + i
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = p.stdout.strip().splitlines()
            try:
                res = json.loads(lines[-1])
            except (IndexError, ValueError):
                res = None
            if p.returncode != 0 or res is None or not res["correct"]:
                bad = True
                print(f"{name} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}", file=sys.stderr)
                continue
            for k in values:
                if k not in res["metrics"]:
                    bad = True
                    print(f"{name} seed {seed}: metric {k} missing", file=sys.stderr)
                    continue
                values[k].append(res["metrics"][k]["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={res['metrics'][k]['value']:.6g}" for k in values if k in res["metrics"]), flush=True)

        print(f"== {name}: {args.runs} runs from seed {args.seed0}")
        print(f"  {'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for k, vs in values.items():
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(k)
            flag = ""
            if bound is not None and k != "setup_s":
                if spread > bound:
                    flag, bad = "FAIL", True
                elif spread > bound / 3:
                    flag = "WARN"
            bs = f"{bound:.3g}" if bound is not None else "-"
            print(f"  {k:28} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bs:>6} {flag}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
