#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload chain100k --seed 1 --seconds 10 --trace 0

The Go build cache, the binary, temporary files (the service journal)
and traced-run output all go under .bench_build/ at the repository root,
so nothing is read or written outside the checkout. --trace 1 writes the
spans and CPU profile to .bench_build/trace/<workload>/. The benchmark's
last line of standard output is its JSON result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "bin", "perfbench")

BUILD_TIMEOUT = 850
RUN_TIMEOUT = 175


def go_env():
    """Environment that keeps the Go toolchain's caches inside the checkout
    and off the network."""
    env = dict(os.environ)
    dirs = {
        "GOCACHE": "gocache",
        "GOPATH": "gopath",
        "GOMODCACHE": "gopath/pkg/mod",
        "GOTMPDIR": "tmp",
        "TMPDIR": "tmp",
        "HOME": "home",
        "XDG_CONFIG_HOME": "home/.config",
        "XDG_CACHE_HOME": "home/.cache",
    }
    for key, sub in dirs.items():
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="", GOWORK="off",
               GOENV="off", CGO_ENABLED="0")
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = go_env()
    os.makedirs(os.path.dirname(BINARY), exist_ok=True)
    # go build leaves an up-to-date binary untouched, so only the first run
    # of a checkout pays for the build.
    try:
        build = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [BINARY, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", repr(args.seconds)]
    if args.trace:
        cmd += ["-trace", os.path.join(BUILD, "trace")]
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
