#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

Runs every workload of BENCHMARK.json once per seed (seeds 1..N), untraced,
and reports for each end-to-end metric the median of the N values and the
distance between their first and third quartiles as a share of that median.
A bound in BENCHMARK.json is only meaningful when this spread sits well
below it. Run from the repository root:

    python3 perfbench/spread.py --runs 10 --out set1.json
    python3 perfbench/spread.py --compare set1.json set2.json

--compare reports, per workload and metric, how far the second set's
median lies from the first's, against the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_config():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(cfg, workload, seed):
    cmd = list(cfg["command"]) + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(cfg["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    res = json.loads(out.strip().splitlines()[-1])
    if not res["correct"]:
        raise SystemExit("%s seed %d: incorrect output" % (workload, seed))
    return {k: v["value"] for k, v in res["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def measure(cfg, runs, out):
    raw = {}
    for w in cfg["workloads"]:
        name = w["name"]
        raw[name] = [run_once(cfg, name, seed) for seed in range(1, runs + 1)]
        for m in cfg["end_to_end"]:
            med, sp = spread([r[m["name"]] for r in raw[name]])
            flag = "" if m["name"] == "setup_s" or sp < m["bound"] / 3 else "  <-- above bound/3"
            print("%-14s %-18s median %-14.6g spread %.4f (bound %.2f)%s"
                  % (name, m["name"], med, sp, m["bound"], flag), flush=True)
    if out:
        with open(out, "w") as f:
            json.dump(raw, f, indent=1)


def compare(cfg, first, second):
    with open(first) as f:
        a = json.load(f)
    with open(second) as f:
        b = json.load(f)
    ok = True
    for w in cfg["workloads"]:
        name = w["name"]
        for m in cfg["end_to_end"]:
            ma = statistics.median(r[m["name"]] for r in a[name])
            mb = statistics.median(r[m["name"]] for r in b[name])
            worse = (ma - mb) / ma if m["better"] == "higher" else (mb - ma) / ma
            flag = "" if worse <= m["bound"] else "  <-- worse than bound"
            ok = ok and not flag
            print("%-14s %-18s %-14.6g %-14.6g worse by %+.4f (bound %.2f)%s"
                  % (name, m["name"], ma, mb, worse, m["bound"], flag))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()
    cfg = load_config()
    if args.compare:
        return 0 if compare(cfg, *args.compare) else 1
    measure(cfg, args.runs, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
