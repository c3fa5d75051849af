"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload pair-born --seeds 1-10

Runs ``run.py`` once per seed, one after another, and prints for each
metric its median over the runs and the distance between the first and
third quartiles (``statistics.quantiles(values, n=4)``) as a share of that
median, next to the metric's bound from BENCHMARK.json. Each run measures
the end-to-end metrics for BENCHMARK.json's run_seconds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    args = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in seed_list(args.seeds):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT,
        )
        wall = perf_counter() - t0
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"seed {seed}: {wall:.1f} s wall, correct={result['correct']}, "
              f"{result['failed']}/{result['attempted']} failed", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"{'metric':36s} {'median':>12s} {'iqr/median':>11s} {'bound':>6s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            rel = f"{(q3 - q1) / abs(med):11.4f}"
        else:
            rel = f"{'-':>11s}"
        print(f"{name:36s} {med:12.5g} {rel} {bounds[name]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
