#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout; the first run configures and
compiles the repository's libraries (about a minute on 4 cores), later
runs only check that the build is up to date. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result. The
exit code is the benchmark's: 0 only when every output check passed.

setup_s is the median over SETUP_SAMPLES processes, each timed from its
start to its first timed request: the untraced run itself and
SETUP_SAMPLES - 1 set-up-only runs before it.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
# Seconds the runs after the build may take together.
RUN_TIMEOUT_S = 170
SETUP_SAMPLES = 5


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    """Configures and builds vqe_perfbench (both are quick no-ops once
    done); returns its path."""
    cmd = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "vqe_perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "vqe_perfbench")


def source_digest():
    """SHA-1 over the benchmarked sources (src/ and perfbench/)."""
    h = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["offline_eager", "serve_closed", "fleet_batch",
                            "query_mix"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    deadline = time.monotonic() + RUN_TIMEOUT_S
    workload = ["--workload", args.workload, "--seed", str(args.seed)]
    cmd = [binary] + workload + [
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out-dir", out, "--commit", commit(),
        "--source-digest", source_digest()]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                r = subprocess.run([binary, "--setup-only"] + workload,
                                   cwd=ROOT, capture_output=True, text=True,
                                   timeout=deadline - time.monotonic())
                sys.stderr.write(r.stderr)
                if r.returncode != 0:
                    return r.returncode
                setups.append(float(r.stdout.split()[-1]))
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=deadline - time.monotonic())
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = r.stdout.splitlines()
    result = None
    if lines and not args.trace:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    if result is None:
        sys.stdout.write(r.stdout)
        return r.returncode
    setup = result["metrics"]["setup_s"]
    setups.append(setup["value"])
    setup["value"] = statistics.median(setups)
    print("\n".join(lines[:-1]))
    print("  setup_s over %d processes: %s; median %.4f s"
          % (len(setups), " ".join("%.4f" % v for v in setups),
             setup["value"]))
    print(json.dumps(result))
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
