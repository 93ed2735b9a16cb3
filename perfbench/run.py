#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload kv_read99 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The build goes to .bench_build/perfbench (the
first run compiles the libraries under src/). The benchmark's stdout is
passed through; its last line is the JSON result. Traced runs also write
.bench_build/perfbench-out/<workload>.spans.json (Perfetto-loadable).
Exits non-zero, without a result line, when the build fails; exits non-zero
after printing the result when an output check failed.
"""
import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
WORKLOADS = ("kv_read99", "kv_write50", "rma_step")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(target):
    """Configures (once) and builds `target`; returns False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                return False
        jobs = str(max(1, min(3, os.cpu_count() or 1)))
        cmd = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
        return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def commit_id():
    """Git HEAD when the checkout is a repository, plus a digest of src/."""
    head = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            head = r.stdout.strip()
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return f"{head}+src:{digest.hexdigest()[:12]}"


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode (None if absent)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the deterministic-count tests")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    target = "perfbench_selftest" if args.selftest else "perfbench"
    if not build(target):
        log("build failed")
        return 3
    binary = os.path.join(BUILD, target)
    if args.selftest:
        return subprocess.run([binary]).returncode

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit_id(), "--out-dir", OUT]
    start = time.monotonic()
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 4
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        names = set(result["metrics"])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, KeyError, AssertionError):
        sys.stdout.write(r.stdout)
        log(f"no result line (exit {r.returncode})")
        return r.returncode or 5
    want = expected_metrics(args.trace == 1)
    if want is not None and names != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log(f"metrics differ from BENCHMARK.json: {sorted(names ^ want)}")
        return 6
    sys.stdout.write(r.stdout)
    log(f"{args.workload} seed {args.seed}: exit {r.returncode} after "
        f"{time.monotonic() - start:.1f} s")
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
