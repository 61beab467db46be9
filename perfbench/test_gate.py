#!/usr/bin/env python3
"""The benchmark's own test: the correctness gate passes correct runs and
fails the command on a wrong answer or a lost acknowledged write, and every
result holds exactly the metrics BENCHMARK.json lists for its mode.

    python3 perfbench/test_gate.py

Runs every workload briefly from the repository root, clean in both modes
and once with a deliberate fault, and exits non-zero if the gate misjudges
any run or a result's metrics differ from the manifest's.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
MANIFEST = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

CASES = [
    # (workload, --trace, injected fault or None, gate should pass)
    ("search", "0", None, True),
    ("search", "1", None, True),
    ("search", "0", "wrong_answer", False),
    ("ingest", "0", None, True),
    ("ingest", "1", None, True),
    ("ingest", "0", "lost_write", False),
    ("image", "0", None, True),
    ("image", "1", None, True),
    ("image", "0", "wrong_answer", False),
    ("serve", "0", None, True),
    ("serve", "1", None, True),
    ("serve", "0", "wrong_answer", False),
]


def listed(trace):
    with open(MANIFEST) as f:
        manifest = json.load(f)
    return [m["name"] for m in
            manifest["per_layer" if trace == "1" else "end_to_end"]]


def run_case(workload, trace, inject):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "2", "--trace", trace]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc.returncode, result, lines


def main():
    failures = 0
    for workload, trace, inject, should_pass in CASES:
        code, result, lines = run_case(workload, trace, inject)
        # A faulty run must be caught by the gate (a result that says
        # correct=false, and a non-zero exit), not by a crash.
        ok = result is not None and result["correct"] == should_pass and \
            (code == 0) == should_pass and \
            list(result["metrics"]) == listed(trace)
        label = f"{workload} trace={trace} inject={inject or 'none'}"
        print(f"{'ok  ' if ok else 'FAIL'} {label}: exit={code} "
              f"correct={result and result['correct']}")
        if not ok:
            failures += 1
            print("\n".join(lines[-5:]))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
