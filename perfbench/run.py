#!/usr/bin/env python3
"""Repository benchmark: build realm_perfbench, run one workload, print its result.

    python3 perfbench/run.py --workload decode-serve --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds perfbench/ (and the realm library from
the root CMakeLists) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, runs the arithmetic self-test, then realm_perfbench.

Prints realm_perfbench's full record (provenance, every metric it measured) and,
as the last line, the result: {"correct", "attempted", "failed", "metrics"}
holding every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1). A per-layer metric of a layer the workload does
not run reads 0. Exits nonzero without a result if the build, the self-test
or realm_perfbench fails, or an end-to-end metric is missing.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BENCH_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout):
    # Build and self-test chatter goes to stderr: stdout carries the result.
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{cmd[0]} timed out after {timeout}s")
    if proc.returncode != 0:
        fail(f"{' '.join(str(c) for c in cmd)} exited {proc.returncode}")


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    out = target / "perfbench"
    if not ((out / "Makefile").exists() or (out / "build.ninja").exists()):
        run(["cmake", "-S", str(BENCH), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"], 600)
    run(["cmake", "--build", str(out), "-j", "4", "--target", "realm_perfbench",
         "perfbench_selftest"], 900)
    return out


def src_digest():
    h = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*")):
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"no {spec_path.name} at the repository root")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in [1, 600]")

    out = build()
    run([str(out / "perfbench_selftest")], 60)

    cmd = [str(out / "realm_perfbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(), "--src-digest", src_digest()]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=BENCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"realm_perfbench timed out after {BENCH_TIMEOUT_S}s")
    if proc.returncode != 0:
        fail(f"realm_perfbench exited {proc.returncode} after {time.monotonic() - t0:.1f}s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("realm_perfbench printed no record")
    record = json.loads(lines[-1])
    print(json.dumps(record, sort_keys=True))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                fail(f"{args.workload} did not report end-to-end metric {m['name']}")
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: realm_perfbench unit {got['unit']} != {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
