#!/usr/bin/env python3
"""The repo benchmark: builds the naspipe library and the benchmark
runner (naspipe_perf) from source, runs one workload, checks it, and prints its
metrics.

    python3 perfbench/run.py --workload solo-w1 --seed 7 --seconds 50 --trace 0

Run from the root of a checkout. The build goes to .bench_build/perfbench
(a Release build). The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics: with --trace 0 the
end-to-end metrics, with --trace 1 the per-module metrics. Every run is
also appended, with the host stamp, to .bench_build/results/runs.jsonl
(or --record FILE); perfbench/compare.py compares two such files.

Exit codes: 0 the run passed every correctness check, 1 it did not or
the build failed, 2 bad arguments.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "naspipe_perf"
WORKLOADS = ("solo-w1", "sim-g8")
# One run must end within 180 s; leave room for start-up and output.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (once) and build the benchmark; quiet unless it fails."""
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
        except OSError as err:
            fail("cannot run %s: %s" % (cmd[0], err))
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))


def source_digest():
    """sha256 over the library sources, for checkouts without git."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    """HEAD of the checkout, or "none" when it is not a git work tree."""
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "none"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "none"
    return lines[1]


def run_binary(args, extra):
    cmd = [str(BINARY), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + extra
    if args.trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / ("%s-seed%d.trace.json"
                              % (args.workload, args.seed)))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload,
                                                RUN_TIMEOUT_S))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("naspipe_perf exited with %d" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path,
                        default=ROOT / ".bench_build" / "results" /
                        "runs.jsonl",
                        help="JSON-lines file the full record is "
                             "appended to")
    # For the benchmark's own tests: small inputs, and runs that must
    # fail a correctness check.
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--inject-wrong-golden", action="store_true")
    parser.add_argument("--inject-oracle-violation", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must not be negative")

    extra = [flag for flag, on in (
        ("--tiny", args.tiny),
        ("--inject-wrong-golden", args.inject_wrong_golden),
        ("--inject-oracle-violation", args.inject_oracle_violation)) if on]
    build()
    out = run_binary(args, extra)

    attempted, failed = out["attempted"], out["failed"]
    error_rate = failed / attempted if attempted else 1.0
    correct = attempted >= 1 and failed == 0
    print("error_rate %.6g (%d of %d runs or jobs failed)"
          % (error_rate, failed, attempted))

    host = dict(out["host"], git_commit=git_commit(),
                source_sha256=source_digest())
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "tiny": args.tiny, "host": host, "correct": correct,
              "attempted": attempted, "failed": failed,
              "error_rate": error_rate, "failures": out["failures"],
              "notes": out["notes"], "metrics": out["metrics"]}
    args.record.parent.mkdir(parents=True, exist_ok=True)
    with open(args.record, "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    print("host " + json.dumps(host, sort_keys=True))

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out["metrics"]}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
