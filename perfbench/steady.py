"""Steadiness command: run one workload K times and summarise each metric.

Usage (from the root of a checkout):

    python3 perfbench/steady.py --workload driver-ablation --runs 5 --first-seed 1

Runs ``perfbench/run.py`` once per seed, one run at a time, at
BENCHMARK.json's ``run_seconds`` with ``--trace 0``, and prints for
every end-to-end metric its median, first and third quartile
(``statistics.quantiles(values, n=4)``), min, max, and the spread
``(q3 - q1) / median`` that the bounds in BENCHMARK.json are set from.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def run_once(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(RUN_SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(results: list[dict]) -> dict[str, dict]:
    out = {}
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"], "median": med, "q1": q1, "q3": q3,
            "min": min(vals), "max": max(vals), "spread": (q3 - q1) / med if med else 0.0,
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        r = run_once(args.workload, seed)
        results.append(r)
        print(f"seed {seed}: attempted {r['attempted']} failed {r['failed']} "
              f"correct {r['correct']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()), flush=True)
    summary = summarise(results)
    print(f"\n{args.workload}: {args.runs} runs, seeds {args.first_seed}.."
          f"{args.first_seed + args.runs - 1}, failed share "
          f"{sum(r['failed'] for r in results)}/{sum(r['attempted'] for r in results)}")
    print(f"{'metric':28s} {'unit':6s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'min':>10s} {'max':>10s} {'spread':>7s}")
    for name, s in summary.items():
        print(f"{name:28s} {s['unit']:6s} {s['median']:10.4g} {s['q1']:10.4g} {s['q3']:10.4g} "
              f"{s['min']:10.4g} {s['max']:10.4g} {s['spread']:7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
