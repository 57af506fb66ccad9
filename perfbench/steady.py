"""Steadiness check: run every workload repeatedly, interleaved, and report
each end-to-end metric's median, quartiles and sample count.

    python3 perfbench/steady.py --runs 10

Pass i (from 1) runs every workload once with seed i, for ``run_seconds`` from
BENCHMARK.json, starting from a different workload each pass.  Each run is its
own process.  For every metric the report gives the spread (the distance
between the quartiles as a share of the median) and whether it is within the
bound in BENCHMARK.json.  The runs are then split into the first and the
second half, and the report says whether the second half's median is worse
than the first's by more than the bound, and whether both halves failed the
same share of operations.  Raw results go to perfbench/results/steady.json.
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


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(workload=workload, seed=seed, wall_s=wall)
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def worse_by(before: float, after: float, better: str) -> float:
    """How much worse ``after`` is than ``before``, as a share of ``before``."""
    change = (after - before) / before
    return change if better == "lower" else -change


def summarise(results: list[dict], bench: dict) -> tuple[list[str], bool]:
    lines, steady = [], True
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    for workload in [w["name"] for w in bench["workloads"]]:
        runs = [r for r in results if r["workload"] == workload]
        if not runs:
            continue
        half = len(runs) // 2
        first, second = runs[:half], runs[half:]
        shares = [sum(r["failed"] for r in part) / sum(r["attempted"] for r in part)
                  for part in (first, second) if part]
        same_share = len(set(shares)) <= 1
        correct = all(r["correct"] for r in runs)
        steady &= same_share and correct
        lines.append(f"## {workload}: {len(runs)} runs, all correct: {correct}, "
                     f"failed share equal in both halves: {same_share}, "
                     f"median wall {statistics.median(r['wall_s'] for r in runs):.1f} s")
        lines.append(f"{'metric':22} {'unit':7} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} "
                     f"{'spread':>7} {'bound':>6} {'halves':>7}  verdict")
        for name, spec in metrics.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med
            halves = (worse_by(statistics.median(v["metrics"][name]["value"] for v in first),
                               statistics.median(v["metrics"][name]["value"] for v in second),
                               spec["better"]) if first else 0.0)
            spread_ok = spread <= spec["bound"]
            halves_ok = halves <= spec["bound"]
            steady &= spread_ok and halves_ok
            verdict = "ok" if spread_ok and halves_ok else "UNSTEADY"
            if spread_ok and halves_ok and spread > spec["bound"] / 3:
                verdict = "ok (spread above a third of the bound)"
            lines.append(f"{name:22} {spec['unit']:7} {len(values):3d} {med:12.6g} {q1:12.6g} "
                         f"{q3:12.6g} {spread:7.3f} {spec['bound']:6.2f} {halves:+7.3f}  {verdict}")
        lines.append("")
    lines.append(f"steady within the bounds: {steady}")
    return lines, steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as f:
        bench = json.load(f)

    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    results = []
    for i in range(args.runs):
        for j in range(len(names)):
            workload = names[(i + j) % len(names)]
            result = run_once(workload, i + 1, seconds)
            print(f"pass {i + 1}/{args.runs} {workload} seed {result['seed']}: "
                  f"{result['wall_s']:.1f} s, correct {result['correct']}",
                  file=sys.stderr, flush=True)
            results.append(result)
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "steady.json"), "w", encoding="utf-8") as f:
        json.dump({"seconds": seconds, "results": results}, f, indent=1)
    lines, steady = summarise(results, bench)
    print("\n".join(lines))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
