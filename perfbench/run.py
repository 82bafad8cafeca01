#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <analytics|serve_read|serve_rw> \
        --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (and with it the header-only library in src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs one
workload. The last line of standard output is the result JSON. Any build
or run failure exits non-zero without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170  # the whole run must end within 180 s


def build(build_dir):
    """Configure (once) and build; build output goes to stderr."""
    def configure():
        return subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr).returncode

    if configure() != 0:
        # A cache left by a checkout at another path cannot be reused.
        shutil.rmtree(build_dir, ignore_errors=True)
        if configure() != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def expected_metrics(trace):
    """{name: unit} the run must print, from BENCHMARK.json when present."""
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["analytics", "serve_read", "serve_rw"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", build_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: run failed (exit {proc.returncode})", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])  # refuse to pass on a malformed line
    want = expected_metrics(args.trace)
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    if want is not None and got != want:
        print(f"perfbench: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}",
              file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
