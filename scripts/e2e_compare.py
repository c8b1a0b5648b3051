#!/usr/bin/env python3
"""Compare the sensorcer_e2e end-to-end metrics of two git revisions.

    scripts/e2e_compare.py <rev-a> <rev-b> [--seeds 1 2 3] \
        [--workloads read_fanout ingest_stream dashboard_mixed] [--seconds 3]

Each revision is unpacked with `git archive` into its own temporary
directory (the checkout is never written to), and
`python3 sensorcer_e2e/run.py --trace 0` runs there once per workload and
seed. The first run in each copy builds it (about a minute on 4 cores).

Prints every deterministic end-to-end metric of BENCHMARK.json side by side
per workload and seed, and flags each one whose value differs between the two
revisions. Those metrics repeat exactly for a seed, so any difference is the
change, not noise. `setup_s` and `peak_rss_mb` are wall-clock and host
measurements that vary run to run; they are left out, since one run of each
says nothing about them.

Exit status: 0 when every run passed its output checks, 1 otherwise.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["read_fanout", "ingest_stream", "dashboard_mixed"]
# End-to-end metrics that are wall-clock or host measurements, not
# deterministic functions of the seed.
NOISY = {"setup_s", "peak_rss_mb"}


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def unpack(rev, into):
    """Extract the tree of `rev` into the directory `into`."""
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", into], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError("git archive " + rev + " failed")


def deterministic_metrics(copy):
    with open(os.path.join(copy, "BENCHMARK.json")) as f:
        declared = json.load(f)["end_to_end"]
    return [m["name"] for m in declared if m["name"] not in NOISY]


def run(copy, workload, seed, seconds):
    """One benchmark run; returns its JSON result, or None on failure."""
    print(f"e2e_compare: {workload} seed {seed} in {copy}", file=sys.stderr,
          flush=True)
    cmd = [sys.executable, os.path.join(copy, "sensorcer_e2e", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=copy, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    if done.returncode != 0 or not isinstance(result, dict):
        sys.stderr.write(done.stderr[-2000:])
        print(f"e2e_compare: {workload} seed {seed} failed in {copy}",
              file=sys.stderr)
        return None
    return result


def fmt(value):
    return "-" if value is None else f"{value:.10g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev_a")
    parser.add_argument("rev_b")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                        default=WORKLOADS)
    parser.add_argument("--seconds", type=float, default=3.0)
    args = parser.parse_args()

    revs = [args.rev_a, args.rev_b]
    shas = [git("rev-parse", "--verify", rev + "^{commit}") for rev in revs]
    tmp = tempfile.mkdtemp(prefix="e2e_compare-")
    ok = True
    try:
        copies = []
        for label, sha in zip("ab", shas):
            copy = os.path.join(tmp, label)
            os.mkdir(copy)
            unpack(sha, copy)
            copies.append(copy)
        metrics = deterministic_metrics(copies[1])

        print(f"a = {revs[0]} ({shas[0][:12]})")
        print(f"b = {revs[1]} ({shas[1][:12]})")
        print(f"{'workload':<16} {'seed':>4}  {'metric':<18} "
              f"{'a':>16} {'b':>16} {'b/a':>9}")
        changed = 0
        for workload in args.workloads:
            for seed in args.seeds:
                results = [run(c, workload, seed, args.seconds)
                           for c in copies]
                ok = ok and None not in results
                for name in metrics:
                    values = [r["metrics"].get(name, {}).get("value")
                              if r else None for r in results]
                    a, b = values
                    ratio = f"{b / a:9.4f}" if a and b is not None else " " * 9
                    flag = "  CHANGED" if a != b else ""
                    changed += bool(flag)
                    print(f"{workload:<16} {seed:>4}  {name:<18} "
                          f"{fmt(a):>16} {fmt(b):>16} {ratio}{flag}")
        print(f"{changed} deterministic value(s) changed")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
