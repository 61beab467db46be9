#!/usr/bin/env python3
"""Builds and runs the FAST benchmark.

    python3 perfbench/run.py --workload search|ingest|image|serve \
        --seed N --seconds S --trace 0|1 [--slo-p50-ms MS] \
        [--inject wrong_answer|lost_write]

Run from the repository root. The first run configures and builds a
Release tree of perfbench/ (which compiles ../src) under $CARGO_TARGET_DIR,
or .bench_build when that is unset; later runs only re-check the build.
Build output goes to stderr. The benchmark's output goes to stdout; its last
line is the JSON result. Its metrics are exactly those BENCHMARK.json lists
for the mode (end_to_end for --trace 0, per_layer for --trace 1), in that
order; any other figure the workload measures is printed on a context line
before it. The exit code is the benchmark's: 0 when every correctness check
passed, non-zero otherwise (and on a build failure or a listed metric the
workload did not report).
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds perfbench and fast_server, Release."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    with open(cache) as f:
        build_type = next((line.strip().split("=", 1)[1] for line in f
                           if line.startswith("CMAKE_BUILD_TYPE:")), "")
    if build_type != "Release":
        log(f"refusing a {build_type or 'unset'} build tree; need Release")
        return False
    jobs = str(len(os.sched_getaffinity(0)))
    cmd = ["cmake", "--build", build_dir, "-j", jobs,
           "--target", "perfbench", "fast_server_bin"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def source_sha():
    """The git commit when there is one, else a hash of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def listed_metrics(trace):
    """{name: unit} of the manifest's metrics for this mode, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    key = "per_layer" if trace == "1" else "end_to_end"
    return {m["name"]: m["unit"] for m in manifest[key]}


def select_metrics(out, listed):
    """Re-emits the program's output with the result line holding exactly
    the listed metrics. Returns (text, ok); ok is False when the last line
    is no result or lacks a listed metric."""
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
        measured = result["metrics"]
    except (IndexError, ValueError, KeyError, TypeError):
        log("the benchmark printed no result line")
        return "\n".join(lines[:-1]), False
    missing = [name for name, unit in listed.items()
               if measured.get(name, {}).get("unit") != unit]
    if missing:
        log("listed metrics missing from the result: " + ", ".join(missing))
        return "\n".join(lines[:-1]), False
    unlisted = [f"{name}={m['value']!r}[{m['unit']}]"
                for name, m in measured.items() if name not in listed]
    if unlisted:
        lines.insert(-1, "perfbench: unlisted: " + " ".join(unlisted))
    result["metrics"] = {name: measured[name] for name in listed}
    lines[-1] = json.dumps(result)
    return "\n".join(lines), True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["search", "ingest", "image", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--slo-p50-ms", default="0.5")
    parser.add_argument("--inject", choices=["wrong_answer", "lost_write"])
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no FAST sources under {ROOT}/src")
        return 1
    listed = listed_metrics(args.trace)
    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    if not build(build_dir):
        log("build failed")
        return 1

    work_dir = os.path.join(build_root, "work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--server-bin", os.path.join(build_dir, "fast_src", "server",
                                        "fast_server"),
           "--work-dir", work_dir, "--slo-p50-ms", args.slo_p50_ms,
           "--sha", source_sha()]
    if args.inject:
        cmd += ["--inject", args.inject]
    # Own process group, so a timeout also takes down a fast_server child.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"{args.workload} exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    text, ok = select_metrics(out, listed)
    sys.stdout.write(text + "\n")
    sys.stdout.flush()
    return proc.returncode if ok else 1


if __name__ == "__main__":
    sys.exit(main())
