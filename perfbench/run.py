"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload battery-1x --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program is imported from ``src/`` of
that checkout and driven through its public entry points only.  Set-up runs
``setups`` times before the rounds and ``setups`` times after them, and
``setup_s`` is the median of all those samples, so that it spans the same
stretch of time as the rounds.  Whole rounds run until another round and the
closing set-ups would end past ``--seconds`` (at least one round).
With ``--trace 0`` the last stdout line carries the end-to-end metrics (median
over rounds); with ``--trace 1`` it carries the per-layer metrics, and the
spans are written to ``perfbench/results/``.
"""

from __future__ import annotations

import os

# Fixed before numpy loads: one BLAS thread, so runs do not depend on how
# many cores happen to be free.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def load_program():
    """Import nextloc from this checkout's src/, and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        nl = importlib.import_module("nextloc")
    except ImportError as exc:
        raise SystemExit(f"error: cannot import nextloc from {SRC}: {exc}")
    if not os.path.abspath(nl.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: nextloc resolved to {nl.__file__}, not under {SRC}")
    for layer in ("data", "autodiff", "user_net", "poi_net", "association", "evaluate", "cli"):
        importlib.import_module(f"nextloc.{layer}")
    return nl


def metric_units() -> dict[str, dict[str, str]]:
    """Metric names and units, by kind, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as f:
        bench = json.load(f)
    return {kind: {m["name"]: m["unit"] for m in bench[kind]}
            for kind in ("end_to_end", "per_layer")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nl = load_program()
    units = metric_units()
    sys.path.insert(0, HERE)
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    run_round = workloads.ROUNDS[workload.name]
    tag = f"{workload.name}-seed{args.seed}"
    work_dir = os.path.join(HERE, "work", f"{tag}-{os.getpid()}")
    os.makedirs(work_dir)
    probe = tracing.TrainProbe(nl)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install(nl)
    try:
        raw_path = os.path.join(work_dir, "checkins.txt")
        setup_times = []

        def set_up_block():
            for _ in range(workload.setups):
                written = None  # the last set-up's objects are not alive during this one
                gc.collect()
                start = time.perf_counter()
                written = workloads.set_up(nl, workload, args.seed, raw_path)
                setup_times.append(time.perf_counter() - start)
            return written

        block_start = time.perf_counter()
        inputs = workloads.describe_inputs(raw_path, *set_up_block())
        block_s = time.perf_counter() - block_start
        # The benchmark's own long-lived objects (the expected check-ins) stay
        # out of the collector's way for the rest of the run.
        gc.collect()
        gc.freeze()

        figures, failures, attempted, round_times = [], [], 0, []
        measure_start = time.perf_counter()
        while True:
            r = workloads.Round(nl, tracer, probe, work_dir)
            outcome = run_round(nl, r, inputs, args.seed)
            if not figures:
                # Set-up and one round, before any check: later rounds would
                # add allocator fragmentation that depends on the round count.
                peak_rss = tracing.peak_rss_mb()
                rss = dict(r.rss)
            attempted += r.attempted
            round_times.append(r.run_s)
            figures.append(outcome.figures)
            if tracer:
                tracer.enabled = False
            try:
                outcome.verify()
            except AssertionError as exc:
                failures.append(str(exc))
            del outcome  # the next round starts without this one's dataset and networks
            if tracer:
                tracer.enabled = True
            elapsed = time.perf_counter() - measure_start
            if block_s + elapsed + statistics.median(round_times) + block_s > args.seconds:
                break
        set_up_block()
    finally:
        if tracer:
            tracer.uninstall()
        probe.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)

    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    rounds = len(figures)
    run_s = statistics.median(f["run_s"] for f in figures)
    print(f"workload={workload.name} seed={args.seed} rounds={rounds} setups={len(setup_times)} "
          f"blas_threads={BLAS_THREADS} run_s={run_s:.4f} trace={args.trace}")
    if tracer:
        results = os.path.join(HERE, "results")
        os.makedirs(results, exist_ok=True)
        trace_path = os.path.join(results, f"trace-{tag}.jsonl")
        tracer.write(trace_path)
        print(f"spans written to {os.path.relpath(trace_path, ROOT)}")
        values = tracing.layer_metrics(tracer, rounds, len(setup_times), rss)
        declared = units["per_layer"]
    else:
        values = {k: statistics.median(f[k] for f in figures) for k in figures[0]}
        values["setup_s"] = statistics.median(setup_times)
        values["peak_rss_mb"] = peak_rss
        declared = units["end_to_end"]
    if set(values) != set(declared):
        raise SystemExit(f"error: measured {sorted(set(values) ^ set(declared))} "
                         "differ from the metrics BENCHMARK.json declares")
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in declared.items()}
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": 0,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
