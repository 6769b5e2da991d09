"""scalarflat benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from the ``src`` directory next
to this one, never from an installed copy.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  The lines before it give the same run in words: the machine,
the set-up, each step's median, the error rate.  A fuller record of the run
(samples, failures, spans when traced) goes to ``.bench_out/`` in the
checkout.  Workloads, metrics and their reasons are described in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"

#: FFT workers, BLAS and OpenMP threads, all pinned to one (see pin_threads)
THREAD_VARS = ("SCALARFLAT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
#: set-ups timed per run, each in a fresh process, reported as their median
SETUP_RUNS = 3
#: a set-up that takes longer than this fails the run
SETUP_TIMEOUT_S = 120
#: candidate tail percentiles, highest first
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0)


def pin_threads() -> None:
    """Run every thread pool with one thread.  Must run before numpy is imported.

    Measured on a 2-CPU virtual machine at N=24: two OpenBLAS threads made
    the near-degenerate solve 8.2 s instead of 6.2 s, because the second
    one spin-waits between BiCGStab's dot products on a CPU the FFT workers
    need.  Two FFT workers then beat one by 20% while the host was quiet,
    but lost most of that and doubled the run-to-run swing while the host
    took CPU time away, since each transform waits for its slower worker.
    Unpinned, scalarflat would use os.cpu_count() FFT workers, which can
    exceed the affinity mask.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def machine_block() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "affinity_size": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def tail_percentile(samples: list[float]):
    """(p, value) for the highest percentile with at least ten samples beyond
    it, or None when there are too few samples for any."""
    n = len(samples)
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10.0:
            cuts = statistics.quantiles(samples, n=1000, method="inclusive")
            return p, cuts[int(round(p * 10)) - 1]
    return None


def describe(samples: list[float], scale: float, unit: str) -> str:
    """Median, tail percentile and sample count of step times given in ms."""
    if not samples:
        return "no completed ops"
    text = f"p50 {statistics.median(samples) * scale:.6g} {unit}"
    tail = tail_percentile(samples)
    if tail is None:
        text += ", no tail percentile (too few samples)"
    else:
        text += f", p{tail[0]:g} {tail[1] * scale:.6g} {unit}"
    return text + f" ({len(samples)} samples)"


def run_loop(workload, seconds: float, min_ops: int, tracer=None):
    """Closed loop with one client.  Once min_ops have run, no op starts that
    would, at the previous op's pace, end after `seconds`.  With a tracer,
    ops alternate between untraced (even) and traced (odd).

    Returns (untraced step samples, traced op samples, attempted, failures).
    """
    from bench_workloads import CheckFailure

    steps = {step: [] for step in workload.steps}
    steps["op"] = []
    traced_ms: list[float] = []
    failures: list[str] = []
    start = time.perf_counter()
    index = 0
    while True:
        op_start = time.perf_counter()
        traced = tracer is not None and index % 2 == 1
        if traced:
            mark = tracer.mark()
        try:
            workload.prepare(index)
            if traced:
                tracer.op_id = index
                tracer.install()
            try:
                timings = workload.op()
            finally:
                if traced:
                    tracer.uninstall()
            workload.check()
        except CheckFailure as exc:
            failures.append(f"op {index}: {exc}")
            if traced:
                tracer.rollback(mark)
        except Exception:  # any other error fails the op; the loop goes on
            failures.append(f"op {index}: {traceback.format_exc(limit=4)}")
            if traced:
                tracer.rollback(mark)
        else:
            total = sum(timings.values())
            if traced:
                traced_ms.append(total)
            else:
                steps["op"].append(total)
                for step, value in timings.items():
                    steps[step].append(value)
        index += 1
        now = time.perf_counter()
        if index >= min_ops and (now - start) + (now - op_start) > seconds:
            break
    return steps, traced_ms, index, failures


def child_setup_s(args) -> float:
    """Import plus set-up, timed in a fresh process, so that no cache of this
    one carries over."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--trace", str(args.trace),
            "--setup-only"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                          check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up process exited with {done.returncode}: "
                           f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def end_to_end_metrics(setup_s: float, op_ms: list[float]) -> dict:
    ops_per_s = len(op_ms) / (sum(op_ms) / 1e3) if op_ms else 0.0
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_ms.p50": {"value": statistics.median(op_ms) if op_ms else 0.0, "unit": "ms"},
        "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MiB"},
    }


def per_layer_metrics(tracer, traced_ms: list[float], untraced_ms: list[float]) -> dict:
    from bench_tracing import FFT_SPAN, SPAN_NAMES

    ops = max(1, len(traced_ms))
    totals = tracer.layer_totals()
    counts = tracer.counts
    metrics = {}
    for name in SPAN_NAMES:
        if name == FFT_SPAN:
            continue
        entry = totals[name]
        metrics[f"{name}.calls"] = {"value": entry["calls"] / ops, "unit": "count"}
        metrics[f"{name}.s"] = {"value": entry["s"] / ops, "unit": "s"}
        metrics[f"{name}.self_s"] = {"value": entry["self_s"] / ops, "unit": "s"}
    metrics["fft.transforms"] = {"value": counts["fft.transforms"] / ops, "unit": "count"}
    metrics["fft.bytes_computed"] = {"value": counts["fft.bytes_computed"] / ops, "unit": "B"}
    metrics["fft.s"] = {"value": totals[FFT_SPAN]["s"] / ops, "unit": "s"}
    solves = counts["pde.solves"]
    iterations = counts["pde.solve.iterations"]
    metrics["pde.solve.iterations"] = {
        "value": iterations / solves if solves else 0.0, "unit": "count"}
    metrics["pde.solve.rounds"] = {
        "value": counts["pde.solve.rounds"] / solves if solves else 0.0, "unit": "count"}
    applies = totals["pde.TraceOperator.apply"]["calls"]
    metrics["pde.apply_per_iteration"] = {
        "value": applies / iterations if iterations else 0.0, "unit": "ratio"}
    metrics["io.bytes_written"] = {"value": counts["io.bytes_written"] / ops, "unit": "B"}
    metrics["io.bytes_read"] = {"value": counts["io.bytes_read"] / ops, "unit": "B"}
    metrics["trace.spans"] = {"value": len(tracer.spans) / ops, "unit": "count"}
    overhead = (statistics.median(traced_ms) - statistics.median(untraced_ms)
                if traced_ms and untraced_ms else 0.0)
    metrics["trace.overhead_ms"] = {"value": overhead, "unit": "ms"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # time one set-up, print it and exit: the fresh process child_setup_s runs
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "scalarflat" / "__init__.py").is_file():
        print(f"error: no scalarflat sources under {SRC}", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    t0 = time.perf_counter()
    import scalarflat  # noqa: F401
    import bench_workloads
    import_s = time.perf_counter() - t0
    if Path(scalarflat.__file__).resolve().parent != (SRC / "scalarflat").resolve():
        print(f"error: imported scalarflat from {scalarflat.__file__}", file=sys.stderr)
        return 2
    if args.workload not in bench_workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(bench_workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    traced = bool(args.trace)
    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    workload = bench_workloads.WORKLOADS[args.workload](workdir, traced)
    try:
        if args.setup_only:
            t0 = time.perf_counter()
            workload.setup(args.seed)
            print(json.dumps({"setup_s": import_s + time.perf_counter() - t0}))
            return 0

        machine = machine_block()
        print(f"machine: {json.dumps(machine, sort_keys=True)}")
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
              f"trace {args.trace}")
        # the other set-ups run first, while this process holds little memory
        setup_runs = [child_setup_s(args) for _ in range(SETUP_RUNS - 1)]
        t0 = time.perf_counter()
        workload.setup(args.seed)
        setup_runs.insert(0, import_s + time.perf_counter() - t0)
        setup_s = statistics.median(setup_runs)
        print(f"setup_s: {setup_s:.6g} s (median of {SETUP_RUNS} set-ups, each the "
              f"import and the set-up in a fresh process: "
              f"{', '.join(f'{v:.6g}' for v in setup_runs)} s)")

        tracer = None
        if traced:
            from bench_tracing import Tracer
            tracer = Tracer()
        # a traced run needs at least one untraced and one traced op
        min_ops = max(workload.min_ops, 2) if traced else workload.min_ops
        steps, traced_ms, attempted, failures = run_loop(
            workload, args.seconds, min_ops, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()

    for step in workload.steps:
        unit = "ms" if step.endswith("_ms") else "s"
        print(f"{step}: {describe(steps[step], 1.0 if unit == 'ms' else 1e-3, unit)}")
    if "query_ms" in steps and steps["query_ms"]:
        queries = steps["query_ms"]
        print(f"queries_per_s: {len(queries) / (sum(queries) / 1e3):.6g} 1/s")
    summary = workload.summary()
    for key, value in summary.items():
        print(f"{key}: {value}")
    failed = len(failures)
    print(f"error_rate: {failed}/{attempted} = {failed / attempted:.6g}")
    for line in failures[:5]:
        print(f"failure: {line}")

    if traced:
        metrics = per_layer_metrics(tracer, traced_ms, steps["op"])
    else:
        metrics = end_to_end_metrics(setup_s, steps["op"])

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "setup_runs_s": setup_runs,
        "samples_ms": steps, "traced_op_ms": traced_ms,
        "summary": summary, "failures": failures, "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    if traced:
        tracer.write_spans(OUT_DIR / f"{stem}.spans.jsonl")

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
