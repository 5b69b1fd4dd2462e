#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload serve --seeds 1-10 [--trace 0]

For every metric it prints the median, the quartiles (statistics.quantiles,
n=4) and the quartile spread as a share of the median. For end-to-end
metrics it compares that spread with a third of the metric's bound in
BENCHMARK.json; setup_s is exempt, because its bound limits drift between
medians, not spread. Exits nonzero if a run fails or a spread is too wide.
Runs are sequential; each takes about run_seconds plus set-up.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--seconds", type=float, help="defaults to run_seconds")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    ok = True
    for seed in parse_seeds(args.seeds):
        run = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", args.trace],
            cwd=ROOT, capture_output=True, text=True)
        last = run.stdout.rstrip("\n").split("\n")[-1]
        if run.returncode != 0 or not last.startswith("{"):
            print(f"seed {seed}: run failed (exit {run.returncode})\n{run.stderr[-2000:]}")
            ok = False
            continue
        result = json.loads(last)
        meta = next((json.loads(line[5:]) for line in run.stdout.split("\n")
                     if line.startswith("meta ")), {})
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed} (steal {meta.get('host_steal_share', '?')}): " +
              ", ".join(f"{n}={m['value']:.4g}"
                        for n, m in list(result["metrics"].items())[:8]),
              flush=True)

    print(f"\n{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'limit':>8}")
    for name, xs in values.items():
        if len(xs) < 2:
            continue
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med if med else 0.0
        limit = bounds.get(name)
        verdict = ""
        if limit is not None and name != "setup_s":
            verdict = "ok" if spread < limit / 3 else "WIDE"
            ok = ok and verdict == "ok"
        print(f"{name:34} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} "
              f"{(limit / 3 if limit else 0):8.3f} {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
