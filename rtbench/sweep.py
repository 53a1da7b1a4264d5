#!/usr/bin/env python3
"""Runs the benchmark over several seeds and workloads, appending every
result to one JSONL file (the input of compare.py).

    python3 rtbench/sweep.py --out .bench_build/results/base.jsonl \
        [--workloads serial_churn,parallel_mixed,signaled_cells] \
        [--seeds 1-10] [--trace 0] [--seconds N]

--seconds defaults to BENCHMARK.json's run_seconds.  Runs are sequential;
a failing run stops the sweep with its exit code.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    for workload in args.workloads.split(","):
        for seed in seed_list(args.seeds):
            print("sweep: %s seed %d trace %d" % (workload, seed, args.trace),
                  file=sys.stderr, flush=True)
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--record", args.out], stdout=subprocess.DEVNULL)
            if done.returncode != 0:
                sys.exit(done.returncode)


if __name__ == "__main__":
    main()
