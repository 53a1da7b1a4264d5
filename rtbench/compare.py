#!/usr/bin/env python3
"""Reads result sets written by run.py --record / sweep.py.

    python3 rtbench/compare.py spread RUNS.jsonl
        Per workload and metric: median, quartile spread as a share of the
        median, and how it sits against the metric's bound.

    python3 rtbench/compare.py diff BASE.jsonl NEW.jsonl
        Metric by metric and workload by workload: the change of the
        median, judged against the bound recorded in BENCHMARK.json.
        A metric whose run-to-run spread (either side) exceeds its bound is
        "unresolved" unless every NEW run beats every BASE run.  Exits 1
        when any end-to-end metric regressed beyond its bound.

Spreads use statistics.quantiles(values, n=4): (Q3 - Q1) / median.
Per-layer metrics (traced runs) have no bound; diff lists their change.
"""

import collections
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = {}
    for m in bench["end_to_end"]:
        metrics[m["name"]] = m
    for m in bench["per_layer"]:
        metrics[m["name"]] = dict(m, bound=None)
    return metrics


def load_runs(path):
    """{(workload, trace): {metric: [values]}} and the provenance seen."""
    runs = collections.defaultdict(lambda: collections.defaultdict(list))
    versions = set()
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            versions.add(rec["provenance"].get("commit", "unknown"))
            for name, m in rec["result"]["metrics"].items():
                runs[(rec["workload"], rec["trace"])][name].append(m["value"])
    return runs, versions


def spread(values):
    """Quartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def worse_by(base, new, better):
    """Relative change of the median toward worse (negative = better)."""
    if base == 0:
        return 0.0 if new == 0 else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def cmd_spread(path):
    metrics = load_benchmark()
    runs, versions = load_runs(path)
    print("source versions: " + ", ".join(sorted(versions)))
    status = 0
    for (workload, trace), by_metric in sorted(runs.items()):
        print("\n%s (trace %d, %d runs)" % (workload, trace,
                                          len(next(iter(by_metric.values())))))
        for name, values in by_metric.items():
            meta = metrics.get(name, {})
            bound = meta.get("bound")
            s = spread(values)
            verdict = ""
            if bound is not None:
                verdict = ("ok" if s < bound / 3 else
                           "within bound" if s <= bound else "TOO NOISY")
                if s > bound:
                    status = 1
            print("  %-40s median %-14.6g spread %6.3f  bound %-5s %s" % (
                name, statistics.median(values), s,
                "" if bound is None else bound, verdict))
    return status


def cmd_diff(base_path, new_path):
    metrics = load_benchmark()
    base, base_versions = load_runs(base_path)
    new, new_versions = load_runs(new_path)
    print("base: " + ", ".join(sorted(base_versions)))
    print("new:  " + ", ".join(sorted(new_versions)))
    regressions = 0
    for key in sorted(set(base) | set(new)):
        workload, trace = key
        if key not in base or key not in new:
            print("\n%s (trace %d): only in %s" % (
                workload, trace, "base" if key in base else "new"))
            continue
        print("\n%s (trace %d)" % key)
        for name in base[key]:
            if name not in new[key]:
                continue
            b, n = base[key][name], new[key][name]
            meta = metrics.get(name, {"better": "lower", "bound": None})
            bm, nm = statistics.median(b), statistics.median(n)
            change = worse_by(bm, nm, meta["better"])
            bound = meta.get("bound")
            if bound is None:
                verdict = ""
            else:
                noisy = max(spread(b), spread(n)) > bound
                beats_all = (max(n) < min(b) if meta["better"] == "lower"
                             else min(n) > max(b))
                if noisy and not beats_all:
                    verdict = "unresolved (spread > bound)"
                elif noisy:
                    verdict = "better in every run"
                elif change > bound:
                    verdict = "REGRESSION"
                    regressions += 1
                elif change < -bound:
                    verdict = "improved"
                else:
                    verdict = "unchanged"
            print("  %-40s %-14.6g -> %-14.6g %+7.1f%% worse  %s" % (
                name, bm, nm, 100 * change, verdict))
    return 1 if regressions else 0


def main():
    if len(sys.argv) == 3 and sys.argv[1] == "spread":
        sys.exit(cmd_spread(sys.argv[2]))
    if len(sys.argv) == 4 and sys.argv[1] == "diff":
        sys.exit(cmd_diff(sys.argv[2], sys.argv[3]))
    print(__doc__, file=sys.stderr)
    sys.exit(2)


if __name__ == "__main__":
    main()
