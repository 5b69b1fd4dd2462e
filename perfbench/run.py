#!/usr/bin/env python3
"""Builds and runs the iobt benchmark.

    python3 perfbench/run.py --workload <sweep|serve|mission> --seed N \
        --seconds S --trace <0|1> [--expect-digest HEX]

Run from the repository root. The harness (perfbench/CMakeLists.txt) is
built from source into .bench_build/perfbench, together with src/; build
output goes to stderr. The harness's output is relayed to stdout, and its
last line is one JSON object {correct, attempted, failed, metrics}. The
metric names and units are checked against BENCHMARK.json when it is
present. The exit code is nonzero when the build fails, an output check
fails, or the result is malformed.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "iobt_perfbench"
WORKLOADS = ("sweep", "serve", "mission")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness; False on failure."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    cache = BUILD_DIR / "CMakeCache.txt"
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    compile_ = ["cmake", "--build", str(BUILD_DIR), "--target", "iobt_perfbench",
                "-j", str(max(1, min(4, os.cpu_count() or 1)))]
    with open(BUILD_DIR / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not cache.exists() and subprocess.run(configure, cwd=ROOT, stdout=sys.stderr).returncode:
            cache.unlink(missing_ok=True)  # a failed configure leaves no usable cache
            return False
        return subprocess.run(compile_, cwd=ROOT, stdout=sys.stderr).returncode == 0


def source_id():
    """The git commit when there is one, else a hash of the measured sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return "sha256:" + h.hexdigest()[:16]


def expected_metrics(trace):
    """{name: unit} of the set BENCHMARK.json declares, or None."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.exists():
        return None
    with open(spec) as f:
        bench = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def check_result(line, trace):
    """Problems with the result line, as a list of strings."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return ["last line is not JSON"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(result)}")
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if want is not None and got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        problems.append(f"metrics differ from BENCHMARK.json: missing {missing}, "
                        f"extra {extra}, unit mismatch {units}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--expect-digest",
                        help="sweep merged digest to require (hex), overriding the pin")
    args = parser.parse_args()

    if not build():
        log("build failed")
        return 2

    work_dir = (BUILD_DIR / "work" / args.workload).relative_to(ROOT)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", str(work_dir), "--source-id", source_id()]
    if args.expect_digest:
        cmd += ["--expect-digest", args.expect_digest]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"harness exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 3
    lines = run.stdout.rstrip("\n").split("\n")
    problems = check_result(lines[-1], args.trace == "1") if lines[-1] else ["no output"]
    if problems:
        # Without a valid result line, print nothing that could pass for one.
        sys.stderr.write(run.stdout)
        for p in problems:
            log(p)
        return run.returncode or 4
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
