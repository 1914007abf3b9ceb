#!/usr/bin/env python3
"""Build and run the repo benchmark (see rsnbench/README.md).

    python3 rsnbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an rsn checkout. The first call configures and
builds rsn (Release, the repository's own CMake flags) and the benchmark
binary into .bench_build/rsnbench; later calls rebuild incrementally.
Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. With --trace 1 the spans are written to
.bench_build/traces/<workload>.json (Chrome trace-event format).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "rsnbench")
BINARY = os.path.join(BUILD, "rsnbench")
WORKLOADS = ("encoder_f32", "encoder_bf16", "dse_sweep", "serving_chaos")


def fail(msg, code=1):
    print("rsnbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd):
    """Run a build step with its output on stderr; fail on error."""
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no rsn sources next to the benchmark (%s)" % ROOT, 2)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", BUILD, "--target", "rsnbench",
               "-j", str(os.cpu_count() or 1)])


def git(*args):
    """Output of a git command on this checkout, or None outside git.

    GIT_CEILING_DIRECTORIES stops git from searching above the checkout.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        p = subprocess.run(["git", *args], cwd=ROOT, env=env,
                           capture_output=True, text=True)
    except OSError:
        return None
    return p.stdout.strip() if p.returncode == 0 else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    build()

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--git-sha", sha or "none",
           "--git-dirty", "unknown" if status is None else
           ("1" if status else "0")]
    if args.trace == "1":
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, args.workload + ".json")]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
