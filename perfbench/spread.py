#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py WORKLOAD [--seeds 1,2,3] [--trace 0|1]

Runs the command in BENCHMARK.json from the repository root, once per
seed, and prints for every metric its median and its interquartile range
as a share of the median (`statistics.quantiles(values, n=4)`), next to
the metric's bound. Spreads should stay under a third of their bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seeds", default="1,2,3,4,5")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds.split(","):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", seed,
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
        ]
        start = time.monotonic()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        wall = time.monotonic() - start
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: {wall:.1f}s correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("    " + " ".join(f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
              flush=True)
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2 and med:
            q = statistics.quantiles(vs, n=4)
            spread = f"{(q[2] - q[0]) / med:.4f}"
        else:
            spread = "-"
        print(f"{name:32s} median {med:14.4f} spread {spread:>8} bound {bounds.get(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
