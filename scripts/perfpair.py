#!/usr/bin/env python3
"""Run perfbench on a base checkout and on this one, alternating.

For every BENCHMARK.json workload and every seed 1..RUNS, runs the workload
once on each side, base and this checkout back to back (the side that goes
first alternates with the seed), so a slow drift in the machine's load
falls on both sides alike instead of on whichever side ran later. Writes
the two sets in spread.py's format. Run from the repository root:

    python3 scripts/perfpair.py ../base
    python3 perfbench/spread.py --compare perf-base.json perf-head.json

Exits non-zero when a run fails or reports incorrect output.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Seeds per side. On a shared 2-core x86 box, alternated self-comparisons
# of identical code failed 1 of 1 at 3 seeds (genload-10k setup_s +28%)
# and 1 of 2 at 5 seeds (service-mix setup_s +27%), and passed 3 of 3 at 7.
RUNS = 7


def run_once(root, cfg, workload, seed):
    cmd = list(cfg["command"]) + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(cfg["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True, check=True).stdout
    res = json.loads(out.strip().splitlines()[-1])
    if not res["correct"]:
        raise SystemExit("%s: %s seed %d: incorrect output" % (root, workload, seed))
    return {k: v["value"] for k, v in res["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="checkout of the base commit")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        cfg = json.load(f)
    sides = {"base": os.path.abspath(args.base), "head": ROOT}
    sets = {"base": {}, "head": {}}
    for w in cfg["workloads"]:
        name = w["name"]
        for seed in range(1, RUNS + 1):
            order = ("base", "head") if seed % 2 else ("head", "base")
            for side in order:
                sets[side].setdefault(name, []).append(run_once(sides[side], cfg, name, seed))
            print("%-14s seed %d  throughput base %.6g head %.6g" % (
                name, seed, sets["base"][name][-1]["throughput_per_s"],
                sets["head"][name][-1]["throughput_per_s"]), flush=True)
    for side, data in sets.items():
        with open(os.path.join(ROOT, "perf-%s.json" % side), "w") as f:
            json.dump(data, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
