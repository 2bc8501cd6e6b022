#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the root of a checkout.

    python3 bench/e2e/run.py --workload wc_tray --seed 1 --seconds 14 --trace 0

Configures and builds bench/e2e (which compiles libbrisk from src/) in
Release under $CARGO_TARGET_DIR (default .bench_build), then runs one
bench_e2e process. --trace 1 makes it a traced run: the last stdout
line then holds the per-layer metrics instead of the end-to-end ones,
and a Chrome trace-event file (open it in the Perfetto UI) lands under
<build>/traces/. Every run also leaves its full result file, with the
host fingerprint, under <build>/results/. The exit code is bench_e2e's;
a failed build exits nonzero without printing a result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_root):
    build_dir = os.path.join(build_root, "e2e")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=14)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = build(build_root)
    if build_dir is None:
        print("run.py: build failed", file=sys.stderr)
        return 3

    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    results = os.path.join(build_root, "results")
    tmpdir = os.path.join(build_root, "tmp")
    os.makedirs(results, exist_ok=True)
    cmd = [os.path.join(build_dir, "bench_e2e"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--tmpdir", tmpdir,
           "--out", os.path.join(results, stem + ".json")]
    if args.trace:
        traces = os.path.join(build_root, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace", os.path.join(traces, stem + ".json")]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("run.py: bench_e2e timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
