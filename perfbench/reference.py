#!/usr/bin/env python3
"""Reference figures for perfbench/README.md.

    python3 perfbench/reference.py

Runs the benchmark ten times on each workload of BENCHMARK.json, with seeds
1 to 10, and prints the median and quartiles (statistics.quantiles, n=4) of
every end-to-end metric with the spread (q3 - q1) / median; then one traced
run per workload with seed 1, printing the per-layer metrics that are not
zero.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    for name in names:
        values: dict[str, list[float]] = {}
        for seed in SEEDS:
            result = run(name, seed, seconds, 0)
            print(f"{name} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()), flush=True)
            for key, metric in result["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
        for key, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            print(f"| {name} | {key} | {median:.4f} | {q1:.4f} | {q3:.4f} | {(q3 - q1) / median:.3f} |")
    for name in names:
        result = run(name, SEEDS[0], seconds, 1)
        metrics = {k: v["value"] for k, v in result["metrics"].items() if v["value"]}
        print(name, json.dumps(metrics, indent=1), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
