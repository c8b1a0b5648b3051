#!/usr/bin/env python3
"""Build and run the sensorcer_e2e benchmark from a source checkout.

    python3 sensorcer_e2e/run.py --workload read_fanout --seed 1 \
        --seconds 10 --trace 0

Builds the benchmark (and the program's libraries from src/) into
.bench_build/sensorcer_e2e under the checkout root on first use, then runs one
workload. The benchmark's human-readable tables go to stdout and its last
stdout line is the JSON result. The exit code is nonzero when the build
fails, an output check fails, or no result line was printed.
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
BUILD = os.path.join(ROOT, ".bench_build", "sensorcer_e2e")
BINARY = os.path.join(BUILD, "sensorcer_e2e")


def source_id():
    """Identify the measured code: git sha when the checkout is a git
    repository, plus a digest of the sources either way."""
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, _, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    ident = "src-sha256:" + digest.hexdigest()[:16]
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if sha.returncode == 0:
            ident = "git:" + sha.stdout.strip() + "," + ident
    return ident


def build():
    """Configure (once) and build; all tool output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return os.path.exists(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["read_fanout", "ingest_stream",
                                 "dashboard_mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    if not build():
        print("sensorcer_e2e: build failed", file=sys.stderr)
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--source-id", source_id()]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds * 3 + 60)
    except subprocess.TimeoutExpired:
        print("sensorcer_e2e: timed out", file=sys.stderr)
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    if not isinstance(result, dict):
        # Keep the failure visible without ending on a result line.
        sys.stdout.write(done.stdout)
        print("sensorcer_e2e: no result line", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0 or not result.get("correct", False):
        return done.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
