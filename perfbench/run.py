#!/usr/bin/env python3
"""Builds krbench from source and runs one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload enum-grid --seed 1 --seconds 25 --trace 0

The first run configures and builds the library and krbench into
.bench_build/perfbench (Release); later runs only rebuild what changed. The
output of krbench is passed through, so the last line of stdout is the result
object {"correct", "attempted", "failed", "metrics"}. The exit status is
krbench's: 0 on success, 1 on a failed exactness check, 2 on a build or setup
error, 3 on an invalid open-loop run.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(ROOT, ".bench_build", "run")
# Compilers and krbench keep their temporary files inside the checkout.
ENV = dict(os.environ, TMPDIR=os.path.join(ROOT, ".bench_build", "tmp"))
WORKLOADS = ("enum-grid", "max-grid", "serve-live")
RUN_TIMEOUT_S = 175


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds krbench; returns its path."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise SystemExit(f"perfbench: {needed} of the library is missing "
                             f"next to perfbench/; nothing to build")
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, stdout=sys.stderr, env=ENV)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "krbench",
                    "-j", jobs], check=True, stdout=sys.stderr, env=ENV)
    return os.path.join(BUILD_DIR, "krbench")


def source_identity():
    """The git commit when available, else a digest of the library sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha1()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="perturb one expected result (self-test)")
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2
    os.makedirs(RUN_DIR, exist_ok=True)
    command = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds:g}", f"--trace={args.trace}",
               f"--work_dir={RUN_DIR}", f"--commit={source_identity()}"]
    if args.corrupt_expected:
        command.append("--corrupt_expected")
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S, env=ENV)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 2
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    expected = expected_metrics(args.trace)
    if proc.returncode == 0 and expected is not None:
        got = set(json.loads(lines[-1])["metrics"])
        if got != expected:
            log(f"metrics differ from BENCHMARK.json: missing "
                f"{sorted(expected - got)}, extra {sorted(got - expected)}")
            return 2
    print(lines[-1], flush=True)
    if proc.returncode != 0:
        log(f"krbench exited with status {proc.returncode}")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
