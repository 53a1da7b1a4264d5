#!/usr/bin/env python3
"""Self-tests of the benchmark harness.

    python3 rtbench/selftest.py

1. The percentile and latency-histogram math against an exact sort on
   synthetic samples (rtcac_perfbench --selftest).
2. Every correctness gate fires: each corruption in GATES must make a run
   of each workload that has the gate fail that gate (exit 1, "GATE
   FAILED") without printing a result.
3. A clean short run of every workload exits 0 with a well-formed result.
4. compare.py classifies synthetic result sets as regression, improvement,
   unchanged and unresolved.
5. run.py exits nonzero, without a result, in a directory that holds only
   BENCHMARK.json and the benchmark's own files.

Exits 1 on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import compare  # noqa: E402
import run  # noqa: E402

SHORT = "1"


def check(ok, what):
    print("%s  %s" % ("PASS" if ok else "FAIL", what), flush=True)
    if not ok:
        sys.exit(1)


# (corruption, gate it trips, workloads that have the gate)
GATES = [
    ("corrupt-oracle", "decision stream vs replay/oracle",
     ["serial_churn", "parallel_mixed"]),
    ("stale-cache", "cached check vs check_from_scratch", ["serial_churn"]),
    ("leak", "reservation audit",
     ["serial_churn", "parallel_mixed", "signaled_cells"]),
    ("undersize-buffer", "zero cell drops",
     ["serial_churn", "parallel_mixed", "signaled_cells"]),
    ("shrink-bound", "queue wait <= computed bound",
     ["serial_churn", "parallel_mixed", "signaled_cells"]),
]


def bench(binary, workload, *extra):
    done = subprocess.run(
        [binary, "--workload", workload, "--seed", "1", "--seconds", SHORT,
         "--trace", "0"] + list(extra),
        capture_output=True, text=True, timeout=run.RUN_TIMEOUT_S)
    return done.returncode, done.stdout.strip().splitlines(), done.stderr


def synthetic(path, workload, values):
    with open(path, "w") as f:
        for v in values:
            f.write(json.dumps({
                "workload": workload, "seed": 0, "trace": 0,
                "provenance": {"commit": "synthetic"},
                "result": {"correct": True, "attempted": 1, "failed": 0,
                           "metrics": {"connect_p50_us": {"value": v,
                                                          "unit": "us"}}}}) + "\n")


def main():
    binary = run.build()

    done = subprocess.run([binary, "--selftest"], capture_output=True, text=True)
    check(done.returncode == 0,
          "percentile and histogram math match an exact sort")

    for inject, gate, workloads in GATES:
        for workload in workloads:
            code, lines, err = bench(binary, workload, "--inject", inject)
            printed = any(line.startswith("{") for line in lines)
            check(code == 1 and "GATE FAILED" in err and not printed,
                  "%s: %s gate fires under --inject %s (exit %d)"
                  % (workload, gate, inject, code))

    for workload in run.WORKLOADS:
        code, lines, _ = bench(binary, workload)
        ok = code == 0 and bool(lines)
        if ok:
            result = json.loads(lines[-1])
            ok = (set(result) == {"correct", "attempted", "failed", "metrics"}
                  and result["correct"] is True and result["attempted"] >= 1)
        check(ok, "%s clean run reports a well-formed result" % workload)

    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_build")) as tmp:
        base = os.path.join(tmp, "base.jsonl")
        synthetic(base, "w", [100, 101, 99, 100, 102, 98, 100, 101, 99, 100])
        cases = [([130, 131, 129, 130, 132, 128, 130, 131, 129, 130], "REGRESSION"),
                 ([70, 71, 69, 70, 72, 68, 70, 71, 69, 70], "improved"),
                 ([101, 100, 102, 99, 101, 100, 100, 101, 99, 100], "unchanged"),
                 ([60, 140, 70, 150, 100, 65, 145, 100, 90, 120], "unresolved")]
        for values, want in cases:
            new = os.path.join(tmp, "new.jsonl")
            synthetic(new, "w", values)
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "compare.py"), "diff", base, new],
                capture_output=True, text=True)
            check(want in done.stdout and
                  (done.returncode == 1) == (want == "REGRESSION"),
                  "compare.py reports %s" % want)
        check(abs(compare.spread([1, 2, 3, 4, 5]) - 1.0) < 1e-12,
              "compare.spread is the quartile distance over the median")

        bare = os.path.join(tmp, "bare")
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, os.path.join(os.path.basename(HERE), "run.py"),
             "--workload", "serial_churn", "--seed", "1", "--seconds", SHORT,
             "--trace", "0"], cwd=bare, capture_output=True, text=True,
            timeout=180)
        check(done.returncode != 0 and not done.stdout.strip(),
              "run.py refuses a directory without the sources (exit %d)"
              % done.returncode)


if __name__ == "__main__":
    main()
