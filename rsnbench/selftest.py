#!/usr/bin/env python3
"""Short-mode self-test of the repo benchmark.

    python3 rsnbench/selftest.py

Builds the benchmark, checks that the kernel timing shim forwards every
table entry bit-exactly, then runs every workload briefly, untraced and
traced. Fails on any check failure, and on any metric name or unit that
differs from BENCHMARK.json.
"""

import json
import os
import subprocess
import sys

import run

SECONDS = "0.5"


def expected_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]},
            [w["name"] for w in bench["workloads"]])


def check_run(workload, trace, expect):
    cmd = [run.BINARY, "--workload", workload, "--seed", "7",
           "--seconds", SECONDS, "--trace", trace]
    p = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    problems = []
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return ["no JSON result (exit %d): %s" % (p.returncode,
                                                 p.stderr.strip()[-400:])]
    if p.returncode != 0 or not result["correct"] or result["failed"]:
        problems.append("checks failed: " + "; ".join(
            l for l in lines if l.startswith("CHECK FAILED")))
    if result["attempted"] < 1:
        problems.append("no ops attempted")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    for name in sorted(set(expect) - set(got)):
        problems.append("missing metric " + name)
    for name in sorted(set(got) - set(expect)):
        problems.append("metric not in BENCHMARK.json: " + name)
    for name in sorted(set(got) & set(expect)):
        if got[name] != expect[name]:
            problems.append("unit of %s is %s, BENCHMARK.json says %s"
                            % (name, got[name], expect[name]))
    if trace == "0":
        for name, m in result["metrics"].items():
            if m["value"] == 0:
                problems.append("end-to-end metric %s is 0" % name)
    return problems


def main():
    run.build()
    e2e, layer, workloads = expected_metrics()
    failed = False

    shim = subprocess.run([run.BINARY, "--check-shim"], cwd=run.ROOT,
                          capture_output=True, text=True)
    print(shim.stdout, end="")
    if shim.returncode != 0:
        print("FAIL shim does not forward bit-exactly")
        failed = True

    for w in workloads:
        for trace, expect in (("0", e2e), ("1", layer)):
            problems = check_run(w, trace, expect)
            print("%s %s --trace %s" % ("FAIL" if problems else "ok  ", w,
                                        trace))
            for problem in problems:
                print("    " + problem)
            failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
