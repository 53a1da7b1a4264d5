#!/usr/bin/env python3
"""End-to-end benchmark of rtcac: builds the benchmark binary from the
checkout's sources and runs one workload.

    python3 rtbench/run.py --workload serial_churn --seed 1 --seconds 10 --trace 0
        [--record RESULTS.jsonl]

Run from the repository root (or anywhere: paths are resolved from this
file).  The first run configures and compiles into .bench_build/rtbench;
later runs only re-check the build.  Build output goes to stderr.  The
last line on stdout is the result object {"correct", "attempted",
"failed", "metrics"}; the line before it is the run's provenance.  Any
gate failure, build failure or missing source tree exits nonzero without
printing a result.  --record appends {workload, seed, trace, provenance,
result} as one JSON line, the input format of compare.py.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "rtbench")
BINARY = os.path.join(BUILD_DIR, "rtcac_perfbench")
WORKLOADS = ("serial_churn", "parallel_mixed", "signaled_cells")
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print("rtbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no rtcac source tree at " + os.path.join(ROOT, "src"))
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j",
                      str(max(1, min(4, os.cpu_count() or 1)))])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail("build step failed: " + " ".join(step))
    if not os.path.isfile(BINARY):
        fail("build produced no binary")
    return BINARY


def source_version():
    """The git commit when the checkout is a repository; otherwise a digest
    of the sources the binary is built from."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            dirty = subprocess.run(
                ["git", "-C", ROOT, "status", "--porcelain", "--", "src",
                 "rtbench"], capture_output=True, text=True, timeout=10)
            suffix = "-dirty" if dirty.stdout.strip() else ""
            return head.stdout.strip() + suffix
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "rtbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def run(binary, args, extra=()):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_version()] + list(extra)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload exceeded %d s" % RUN_TIMEOUT_S, 1)
    return done.returncode, done.stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--record", help="append the result to this JSONL file")
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    binary = build()
    code, lines = run(binary, args)
    if code != 0:
        fail("workload %s exited %d" % (args.workload, code), code)
    try:
        result = json.loads(lines[-1])
        provenance = json.loads(lines[-2].split(" ", 1)[1])
    except (IndexError, ValueError):
        fail("malformed benchmark output", 1)
    if set(result) != {"correct", "attempted", "failed", "metrics"} or \
            result["correct"] is not True or result["attempted"] < 1:
        fail("benchmark result failed its own checks", 1)
    if args.record:
        with open(args.record, "a") as out:
            out.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                  "trace": args.trace,
                                  "provenance": provenance,
                                  "result": result}) + "\n")
    for line in lines:
        print(line)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
