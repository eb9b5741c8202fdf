#!/usr/bin/env python3
"""Validate observability artifacts against their declared schemas.

Usage: check_obs_schema.py FILE [FILE ...]

Each file must be a JSON document produced by naspipe_cli
(--trace-out / --metrics-out) or naspipe_serve (--metrics-out). The
document kind is auto-detected from its schema tag:

  naspipe-trace/1    Chrome trace-event export (otherData.schema)
  naspipe-metrics/1  unified metrics registry export

Exits 0 when every file validates, 1 otherwise, printing one line per
problem. No third-party dependencies — CI runs this on a bare python3.
"""

import json
import sys

TRACE_SCHEMA = "naspipe-trace/1"
METRICS_SCHEMA = "naspipe-metrics/1"


def check_trace(doc, err):
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        err("traceEvents missing or empty")
        return
    other = doc.get("otherData", {})
    if other.get("schema") != TRACE_SCHEMA:
        err("otherData.schema != %s" % TRACE_SCHEMA)
    for key in ("space", "executor", "mode"):
        if not other.get(key):
            err("otherData.%s missing" % key)
    if other.get("mode") not in ("logical", "wall"):
        err("otherData.mode must be logical|wall")
    span_count = 0
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph == "M":
            if ev.get("name") not in ("process_name", "thread_name"):
                err("event %d: unknown metadata %r" % (i, ev.get("name")))
            continue
        if ph != "X":
            err("event %d: unexpected phase %r" % (i, ph))
            continue
        span_count += 1
        for key in ("name", "ts", "dur", "pid", "tid"):
            if key not in ev:
                err("event %d: missing %r" % (i, key))
        if float(ev.get("dur", 0)) <= 0:
            err("event %d: non-positive dur" % i)
    if span_count == 0:
        err("no X (span) events")


def check_histogram(name, hist, err):
    bounds = hist.get("bounds")
    counts = hist.get("counts")
    if not isinstance(bounds, list) or not isinstance(counts, list):
        err("histogram %s: bounds/counts missing" % name)
        return
    if len(counts) != len(bounds) + 1:
        err("histogram %s: len(counts) != len(bounds)+1" % name)
    if sorted(bounds) != bounds:
        err("histogram %s: bounds not ascending" % name)
    if sum(counts) != hist.get("total"):
        err("histogram %s: total != sum(counts)" % name)


def check_metrics(doc, err):
    if doc.get("schema") != METRICS_SCHEMA:
        err("schema != %s" % METRICS_SCHEMA)
    # A serve-mode export covers many jobs, so the per-run identity
    # headers live under job/<id>/... metrics instead.
    if doc.get("mode") == "serve":
        headers = ("mode", "stages")
    else:
        headers = ("space", "executor", "mode", "seed", "steps",
                   "stages")
    for key in headers:
        if key not in doc:
            err("header %r missing" % key)
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        err("metrics object missing or empty")
        return
    keys = list(metrics.keys())
    if keys != sorted(keys):
        err("metric keys not in lexicographic order")
    for key in ("run/finished_subnets", "quality/supernet_hash"):
        if key not in metrics:
            err("required metric %r missing" % key)
    if doc.get("mode") == "serve":
        if metrics.get("serve/jobs", 0) < 1:
            err("serve-mode export without serve/jobs")
        for name in metrics:
            if name.startswith("job/"):
                break
        else:
            err("serve-mode export without job/<id>/ namespaces")
    for name, hist in doc.get("histograms", {}).items():
        check_histogram(name, hist, err)


def check_file(path):
    problems = []

    def err(msg):
        problems.append("%s: %s" % (path, msg))

    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return ["%s: unreadable or invalid JSON: %s" % (path, e)]

    schema = doc.get("schema") or \
        doc.get("otherData", {}).get("schema")
    if schema == TRACE_SCHEMA:
        check_trace(doc, err)
    elif schema == METRICS_SCHEMA:
        check_metrics(doc, err)
    else:
        err("unrecognized schema tag %r" % schema)
    return problems


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[2])
        return 2
    failures = 0
    for path in argv[1:]:
        problems = check_file(path)
        if problems:
            failures += 1
            for p in problems:
                print("FAIL %s" % p)
        else:
            print("ok   %s" % path)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
