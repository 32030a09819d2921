#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload rounds_k16 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload incast_k8 --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --selftest

The benchmark is a CMake package of its own (perfbench/CMakeLists.txt) that
compiles the simulator from ../src; it is built incrementally into
.bench_build/perfbench inside the checkout. --trace 0 prints the end-to-end
metrics, --trace 1 the per-layer metrics; the last line of standard output
is one JSON object {"correct", "attempted", "failed", "metrics"}. See
perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure and (incrementally) build the benchmark; False on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(BUILD), "-j", jobs,
         "--target", "perfbench", "perfbench_selftest"],
    ]
    with open(BUILD / "build.log", "w") as out:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                log(f"build step failed: {e}")
                return False
            if rc != 0:
                out.flush()
                tail = (BUILD / "build.log").read_text().splitlines()[-20:]
                log("build failed:\n" + "\n".join(tail))
                return False
    return True


def expected_metrics(trace):
    """Metric name -> unit that BENCHMARK.json promises for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    """Return the parsed result if it has the promised shape, else None."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        log("last output line is not JSON")
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log(f"unexpected result keys {sorted(result)}")
        return None
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        log("attempted must be a whole number >= 1")
        return None
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        log(f"metrics differ from BENCHMARK.json: missing {missing}, "
            f"extra {extra}, wrong units {wrong}")
        return None
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's self-tests")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    if not build():
        return 2

    if args.selftest:
        return subprocess.run([str(BUILD / "perfbench_selftest")],
                              timeout=RUN_TIMEOUT_S).returncode

    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        spans = BUILD / "spans" / f"{args.workload}-seed{args.seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 3
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        # No result line on stdout: the run did not produce a measurement.
        sys.stderr.write(proc.stdout)
        log(f"benchmark exited with code {proc.returncode}")
        return 3
    result = check_result(lines[-1], args.trace)
    if result is None:
        sys.stderr.write(proc.stdout)
        return 4
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
