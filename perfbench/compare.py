#!/usr/bin/env python3
"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BASE.jsonl CHANGED.jsonl

Each file holds run records as perfbench/run.py appends them (one JSON
object per line; .bench_build/results/runs.jsonl by default). For every
workload and metric found on both sides it prints each side's median
and quartiles (Python's statistics.quantiles, n=4) and the change of the
median. A verdict (better / worse, by the metric's direction in
BENCHMARK.json) is given only when both sides have at least three runs
and their quartile ranges do not overlap; otherwise the row reads
"overlap" or "too few runs". Runs that failed a correctness check are
listed and left out.
"""

import argparse
import collections
import json
import statistics
import sys
from pathlib import Path

MIN_RUNS_FOR_VERDICT = 3


def load_directions(path):
    """metric name -> "lower" | "higher", from BENCHMARK.json."""
    try:
        spec = json.loads(path.read_text())
    except (OSError, ValueError):
        return {}
    return {m["name"]: m["better"]
            for key in ("end_to_end", "per_layer")
            for m in spec.get(key, [])}


def load_runs(path):
    """(workload, trace) -> metric -> [values]; plus failed runs."""
    values = collections.defaultdict(lambda: collections.defaultdict(list))
    failed = []
    with open(path) as f:
        for number, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            run = json.loads(line)
            key = (run["workload"], run["trace"])
            if not run.get("correct", False):
                failed.append("%s:%d %s seed %s" % (
                    path, number, run["workload"], run.get("seed")))
                continue
            for name, metric in run["metrics"].items():
                values[key][name].append(metric["value"])
    return values, failed


def summary(values):
    """(median, first quartile, third quartile)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def verdict(a, b, better):
    if min(len(a), len(b)) < MIN_RUNS_FOR_VERDICT:
        return "too few runs"
    _, a1, a3 = summary(a)
    _, b1, b3 = summary(b)
    if a3 >= b1 and b3 >= a1:
        return "overlap"
    higher = b1 > a3
    if better not in ("lower", "higher"):
        return "higher" if higher else "lower"
    return "better" if higher == (better == "higher") else "worse"


def compare(base, changed, directions, out=sys.stdout):
    """Print the table; return the number of "worse" rows."""
    worse = 0
    fmt = "%-10s %-30s %5s %12s %25s %12s %25s %9s  %s\n"
    out.write(fmt % ("workload", "metric", "runs", "base med",
                     "base [q1, q3]", "new med", "new [q1, q3]",
                     "delta", "verdict"))
    for key in sorted(set(base) & set(changed)):
        workload, _ = key
        for name in sorted(set(base[key]) & set(changed[key])):
            a, b = base[key][name], changed[key][name]
            am, a1, a3 = summary(a)
            bm, b1, b3 = summary(b)
            delta = "%+.2f%%" % ((bm - am) / am * 100) if am else "n/a"
            v = verdict(a, b, directions.get(name))
            worse += v == "worse"
            out.write(fmt % (
                workload, name, "%d/%d" % (len(a), len(b)),
                "%.6g" % am, "[%.6g, %.6g]" % (a1, a3), "%.6g" % bm,
                "[%.6g, %.6g]" % (b1, b3), delta, v))
    return worse


def main():
    parser = argparse.ArgumentParser(
        description="Compare two files of benchmark run records.")
    parser.add_argument("base", type=Path)
    parser.add_argument("changed", type=Path)
    parser.add_argument("--benchmark", type=Path,
                        default=Path(__file__).resolve().parent.parent /
                        "BENCHMARK.json",
                        help="where the metric directions are read")
    args = parser.parse_args()
    base, base_failed = load_runs(args.base)
    changed, changed_failed = load_runs(args.changed)
    for run in base_failed + changed_failed:
        print("left out (failed its checks): " + run)
    compare(base, changed, load_directions(args.benchmark))


if __name__ == "__main__":
    main()
