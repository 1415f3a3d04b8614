"""Steadiness report: run workloads repeatedly and summarise each metric.

    python3 perfbench/steadiness.py --workloads dense,dense-fine --seeds 1-10 --seconds 40 [--trace 0]

Each (workload, seed) pair is one ``run.py`` invocation, one after the
other. For every metric the report gives the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and their distance as a
share of the median, plus the share of failed operations. The raw results
are written to ``.perfbench_work/steadiness.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list[float]) -> dict[str, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    raw: dict[str, list[dict]] = {}
    for workload in args.workloads.split(","):
        for seed in seed_list(args.seeds):
            t0 = time.perf_counter()
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=ROOT,
            )
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            result["wall_s"] = time.perf_counter() - t0
            result["stderr"] = done.stderr
            raw.setdefault(workload, []).append(result)
            print(f"{workload} seed {seed}: {time.perf_counter() - t0:.1f} s, "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench_work", "steadiness.json"), "w", encoding="utf-8") as fh:
        json.dump(raw, fh, indent=1)
    for workload, runs in raw.items():
        failed = sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
        walls = summarise([r["wall_s"] for r in runs])
        print(f"\n{workload}: {len(runs)} runs, failed share {failed:.4f}, "
              f"all correct: {all(r['correct'] for r in runs)}, run wall median {walls['median']:.1f} s")
        print(f"  {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
        for name in runs[0]["metrics"]:
            s = summarise([r["metrics"][name]["value"] for r in runs])
            print(f"  {name:32} {s['median']:12.5g} {s['q1']:12.5g} {s['q3']:12.5g} {s['spread']:8.1%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
