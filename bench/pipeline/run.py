#!/usr/bin/env python3
"""Build bench_pipeline from this checkout and run one workload.

    python3 bench/pipeline/run.py --workload campaign --seed 1 --seconds 15 --trace 0
                                  [--record runs.jsonl]

Configures and builds bench/pipeline into build-pipeline/ (the library of
this checkout, with the root's own flags), primes build-pipeline/bench_cache
in a process of its own (models, Table III stimuli and the seed's reference
artifacts; fast once primed), then runs one measurement process. Its stdout
passes through unchanged, so the last line is the result JSON. With
--trace 1 the run is traced: it reports the per-layer metrics and writes a
Chrome trace to build-pipeline/trace-<workload>-s<seed>.json.
"""
import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-pipeline")
BINARY = os.path.join(BUILD, "bench_pipeline")
CACHE = os.path.join(BUILD, "bench_cache")
THREADS = "2"
FIRST_RUN_SECONDS = 880  # build + prime on a fresh checkout
RUN_SECONDS = 170


def fail(message, output=b""):
    sys.stderr.buffer.write(output)
    sys.stderr.write("run.py: %s\n" % message)
    sys.exit(1)


def quiet(cmd, timeout):
    """Run a build step; its output goes to stderr only when it fails."""
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: %s" % " ".join(cmd))
    if done.returncode != 0:
        fail("failed: %s" % " ".join(cmd), done.stdout)


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    done = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty", "--abbrev=40"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return done.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default="",
                        help="append the run's full record (quality, provenance) to this jsonl")
    args = parser.parse_args()

    start = time.monotonic()
    # Configure until a build succeeds; after that the build step re-runs
    # CMake itself whenever a CMakeLists changes.
    if not os.path.exists(BINARY):
        quiet(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"], FIRST_RUN_SECONDS)
    quiet(["cmake", "--build", BUILD, "-j4", "--target", "bench_pipeline"], FIRST_RUN_SECONDS)

    # Library telemetry stays off and the cache and SIMD backend stay the
    # benchmark's own, whatever the caller's environment says.
    env = {k: v for k, v in os.environ.items()
           if k not in ("SNNTEST_TRACE", "SNNTEST_CACHE_DIR", "SNNTEST_SIMD")}
    common = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
              "--threads", THREADS, "--cache-dir", CACHE]

    prime_budget = max(60.0, FIRST_RUN_SECONDS - (time.monotonic() - start))
    try:
        primed = subprocess.run(common + ["--prime-only", "1"], stdout=subprocess.PIPE,
                                env=env, timeout=prime_budget)
    except subprocess.TimeoutExpired:
        fail("priming timed out")
    sys.stderr.buffer.write(primed.stdout)
    if primed.returncode != 0:
        fail("priming failed")

    cmd = common + ["--seconds", str(args.seconds)]
    if args.trace:
        cmd += ["--trace", os.path.join(BUILD, "trace-%s-s%d.json" % (args.workload, args.seed))]
    if args.record:
        cmd += ["--record", os.path.abspath(args.record), "--git-sha", git_sha()]
    sys.stdout.flush()
    try:
        measured = subprocess.run(cmd, env=env, timeout=RUN_SECONDS)
    except subprocess.TimeoutExpired:
        fail("measurement timed out")
    sys.exit(measured.returncode)


if __name__ == "__main__":
    main()
