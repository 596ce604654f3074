"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 perfbench/spread.py --workload stair-mlco --seeds 1-10 [--seconds 30] [--trace 0]

Runs ``perfbench/run.py`` once per seed, one after another, and prints for
every metric its median, its quartiles (``statistics.quantiles(n=4)``) and
the spread: the distance between the quartiles as a share of the median.
The result lines are appended to ``perfbench/out/spread-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default=str(
        json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]))
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    args = ap.parse_args(argv)

    log = ROOT / "perfbench" / "out" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)
    results = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        with log.open("a") as f:
            f.write(json.dumps({"seed": seed, **result}) + "\n")
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)

    print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / abs(median) if median else 0.0
        print(f"{name:40s} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f}  {first['unit']}")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
