#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. A tiny run (--seconds 1) of every workload, untraced and traced, exits 0
   with correct=true, and prints every metric of its set exactly once, by
   name and with its unit, in the result line and in the readable lines.
2. A sweep run told to expect a wrong merged digest fails: nonzero exit,
   correct=false, failed >= 1.
3. In a directory holding only BENCHMARK.json and perfbench/ (no sources to
   build), run.py exits nonzero and prints no result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def unique_pairs(pairs):
    keys = [k for k, _ in pairs]
    dupes = {k for k in keys if keys.count(k) > 1}
    if dupes:
        raise ValueError(f"duplicate keys {sorted(dupes)}")
    return dict(pairs)


def check_tiny(workload, trace):
    problems = []
    r = run(["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace])
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode != 0:
        return [f"exit {r.returncode}: {r.stderr[-1000:]}"]
    try:
        result = json.loads(lines[-1], object_pairs_hook=unique_pairs)
    except ValueError as e:
        return [f"result line: {e}"]
    if result.get("correct") is not True:
        problems.append("correct is not true")
    want = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace == "1" else "end_to_end"]}
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    if got != want:
        problems.append(f"metric set differs: {sorted(set(want) ^ set(got))}")
    readable = [line.split() for line in lines[:-1]]
    for name, unit in want.items():
        rows = [row for row in readable if row and row[0] == name]
        if len(rows) != 1 or rows[0][-1] != unit:
            problems.append(f"{name} printed {len(rows)} times (unit {unit})")
    return problems


def main():
    failures = []
    for workload in (w["name"] for w in BENCH["workloads"]):
        for trace in ("0", "1"):
            problems = check_tiny(workload, trace)
            print(f"tiny {workload} trace={trace}: {'ok' if not problems else problems}",
                  flush=True)
            failures += problems

    r = run(["--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
             "--expect-digest", "0123456789abcdef"])
    result = json.loads(r.stdout.rstrip("\n").split("\n")[-1])
    ok = r.returncode != 0 and result["correct"] is False and result["failed"] >= 1
    print(f"wrong expected digest fails the run: {'ok' if ok else 'NO'}", flush=True)
    if not ok:
        failures.append("a wrong expected digest did not fail the run")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    r = run(["--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    ok = r.returncode != 0 and r.stdout.strip() == ""
    print(f"no sources: nonzero exit, no result: {'ok' if ok else 'NO'}", flush=True)
    if not ok:
        failures.append("run.py without sources did not fail cleanly")
    shutil.rmtree(bare, ignore_errors=True)

    print("selftest: " + ("PASS" if not failures else f"FAIL ({len(failures)})"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
