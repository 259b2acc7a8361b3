#!/usr/bin/env python3
"""Benchmark of the nqsent exact pipeline, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: it imports nqsent from ``src/``
there and from nowhere else. With ``--trace 0`` it repeats the workload's
pass, on new inputs each time, until at least three timed passes add up to
S seconds, and reports the end-to-end metrics. With ``--trace 1`` it runs one pass plain and the same pass under the tracer and
reports the per-layer metrics. Outputs are checked after the timed passes.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
# wall_s is a median over at least this many timed passes, so one slow pass
# (the first full-size one, or a stall of the host) does not set it
MIN_PASSES = 3


def import_library() -> None:
    """Put this checkout's src/ first on the path and make sure nqsent comes from it."""
    if not (SRC / "nqsent" / "__init__.py").is_file():
        sys.exit(f"perfbench: no nqsent sources at {SRC / 'nqsent'}; run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    import nqsent

    if Path(nqsent.__file__).resolve().parent != SRC / "nqsent":
        sys.exit(f"perfbench: nqsent was imported from {nqsent.__file__}, not from {SRC}")


def time_setup(args) -> list[float]:
    """Wall time of fresh interpreters that import the library, warm up,
    make the inputs and exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdin=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples


def cpu_ticks() -> tuple[int, int]:
    """(stolen, total) jiffies of all CPUs so far, from /proc/stat. Time the
    hypervisor gives to other guests slows every pass, so the run record
    reports the stolen share."""
    with open("/proc/stat") as fh:
        fields = [int(v) for v in fh.readline().split()[1:9]]
    return fields[7], sum(fields)


def timed_pass(workload, inputs, threads: int):
    t0 = time.perf_counter()
    out = workload.run(inputs, threads)
    return time.perf_counter() - t0, out


def blas_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ}
    return {
        "vendor": blas.get("name"),
        "version": blas.get("version"),
        "config": blas.get("openblas configuration"),
        "thread_env": env or "unset (the BLAS library picks its own thread count)",
    }


def run_record(args, threads: int, passes: list[float], tally) -> dict:
    import numpy as np
    import scipy

    import spans
    import workloads

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": threads,
        "threads": threads,
        "blas": blas_record(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "pass_wall_s": passes,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "failed_frac": len(tally.failures) / tally.attempted,
        "failures": tally.failures[:20],
        "reduced_checked": len(tally.reduced_errors),
        "reduced_worst_rel_err": max(tally.reduced_errors, default=None),
        "reduced_over_library_tol": sum(e > workloads.LIBRARY_REDUCED_TOL for e in tally.reduced_errors),
        "reduced_worst_feature_cond": max(tally.reduced_conds, default=None),
        "why": {name: w.why for name, w in workloads.WORKLOADS.items()},
        "computed_not_measured": [
            name for name, _, _ in spans.LAYER_METRICS if name.endswith(("edge_evals", "gram_flop", "eig_dim3_sum", "poly_terms"))
        ],
        "known_defects": workloads.KNOWN_DEFECTS,
    }


def end_to_end(args, workload, threads: int, setup_samples: list[float]):
    """Timed passes, each on new inputs, until there are MIN_PASSES and they
    add up to --seconds. The checks run after the last pass."""
    import workloads

    walls, passes = [], []
    while len(walls) < MIN_PASSES or sum(walls) < args.seconds:
        inputs = workload.inputs(args.seed, len(walls) + 1)
        wall, out = timed_pass(workload, inputs, threads)
        walls.append(wall)
        passes.append((inputs, workload.keep(inputs, out)))
        del out  # free the pass's full output before the next pass
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    tally = workloads.Tally()
    for inputs, out in passes:
        workload.check(inputs, [out], threads, tally)
    metrics = {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "rows_per_s": {
            "value": statistics.median(workload.rows(out) / wall for (_, out), wall in zip(passes, walls)),
            "unit": "1/s",
        },
        "peak_rss_mib": {"value": peak_mib, "unit": "MiB"},
    }
    return metrics, tally, walls


def traced(workload, seed: int, threads: int):
    """A warm pass, then one plain and one traced pass on the same inputs,
    then the single-threaded baseline."""
    import nqsent as nq

    import spans
    import workloads

    t0 = time.perf_counter()
    workload.run(workload.inputs(seed, 0), threads)
    warm_s = time.perf_counter() - t0
    inputs = workload.inputs(seed, 1)
    wall_plain, plain = timed_pass(workload, inputs, threads)
    plain = workload.keep(inputs, plain)
    tracer = spans.Tracer()
    tracer.install()
    try:
        workloads.warm_up(threads)
        lo = time.perf_counter_ns()
        wall_traced, out = timed_pass(workload, inputs, threads)
        hi = time.perf_counter_ns()
    finally:
        tracer.uninstall()
    out = workload.keep(inputs, out)

    # single-threaded baseline on the workload's graph, untraced
    graph = workload.graph(inputs)
    t0 = time.perf_counter()
    one = nq.materialize(graph, threads=1)
    t1 = time.perf_counter()
    many = nq.materialize(graph, threads=threads)
    t2 = time.perf_counter()
    identical = one.amplitudes.tobytes() == many.amplitudes.tobytes()
    del one, many

    tally = workloads.Tally()
    workload.check(inputs, [plain, out], threads, tally)
    tally.op(identical, f"materialize output differs between threads=1 and threads={threads}")
    index = spans.SpanIndex(tracer.spans)
    metrics = spans.layer_metrics(index, (lo, hi), (t1 - t0) / (t2 - t1), wall_traced - wall_plain)
    return metrics, tally, [wall_plain, wall_traced], warm_s, tracer, index.table()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=8.0, help="measure passes until this much time has elapsed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    threads = len(os.sched_getaffinity(0))

    import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    setup_samples = [] if args.trace or args.setup_only else time_setup(args)
    workloads.warm_up(threads)
    if args.setup_only:
        workload.inputs(args.seed, 0)
        return 0
    stolen0, total0 = cpu_ticks()
    if args.trace:
        metrics, tally, walls, warm_s, tracer, layers = traced(workload, args.seed, threads)
    else:
        metrics, tally, walls = end_to_end(args, workload, threads, setup_samples)
    stolen1, total1 = cpu_ticks()

    record = run_record(args, threads, walls, tally)
    if args.trace:
        record["warm_pass_s"] = warm_s
    record["cpu_steal_frac"] = (stolen1 - stolen0) / max(total1 - total0, 1)
    if setup_samples:
        record["setup_samples_s"] = setup_samples
    doc = {"run_record": record, "metrics": metrics}
    if args.trace:
        doc["layers"] = layers
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    if args.trace:
        tracer.write(OUT / f"{stem}-spans.jsonl", record)

    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':42s} {record['failed_frac']:.6g} ratio ({record['failed']}/{record['attempted']})")
    print("run_record " + json.dumps(record))
    result = {"correct": not tally.failures, "attempted": tally.attempted, "failed": len(tally.failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
