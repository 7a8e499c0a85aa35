"""Steadiness study: run the benchmark on several seeds and report each metric's spread.

    python3 bench/steadiness.py --workload shipped-d32 --seeds 1-10 --seconds 40

Runs are made one after another, each in a fresh process. For every metric
it prints the median, the first and third quartile
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median. A comparison between two commits
accepts a metric only when that spread stays within the metric's bound in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, float]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]  # fmt: skip
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args()
    bounds = {
        m["name"]: m["bound"]
        for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }

    results = []
    for seed in seed_list(args.seeds):
        result, wall = run_once(args.workload, seed, args.seconds)
        results.append(result)
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: {wall:.1f} s, correct={result['correct']}, "
              f"failed {result['failed']}/{result['attempted']}, {values}", flush=True)  # fmt: skip

    print(f"{args.workload}: {len(results)} runs of {args.seconds} s")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        verdict = "" if bound is None else f" bound {bound} ({spread / bound:.0%} of it)"
        print(f"  {name}: median {med:.6g}, quartiles {q1:.6g} .. {q3:.6g}, "
              f"spread {spread:.4f}{verdict}")  # fmt: skip
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"  failed share: {sorted(shares)}; all correct: {all(r['correct'] for r in results)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
