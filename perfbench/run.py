"""Benchmark of the synergy engine over the tpcw-micro schema and workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (view-reads, base-joins or mixed-rw) against the sources
in ``src/`` of the checkout this file sits in, checks every output, prints
a human-readable summary and, as the last line of standard output, one JSON
object: {"correct", "attempted", "failed", "metrics"}. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the per-layer ones
from a traced run. Results and span dumps go to ``perfbench/out/``;
databases live under ``perfbench/work/`` while the run lasts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: traced runs do fixed work, sized per second of --seconds
TRACE_READ_ROUNDS_PER_S = {"view-reads": 300, "base-joins": 4}
#: mixed-rw writer rounds (100 writes each) per second of --seconds
WRITE_ROUNDS_PER_S = 10


def import_program():
    """Import synergy from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    try:
        import synergy
    except ImportError as exc:
        raise SystemExit(f"cannot import synergy from {SRC}: {exc}")
    where = os.path.dirname(os.path.abspath(synergy.__file__))
    if os.path.dirname(where) != SRC:
        raise SystemExit(f"synergy imported from {where}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_program()
    import bench
    from model import CheckFailed
    from spans import PER_LAYER, Tracer

    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(choose from {', '.join(bench.WORKLOADS)})")
    cfg = bench.Config(seconds=args.seconds,
                       write_rounds=max(1, math.ceil(
                           WRITE_ROUNDS_PER_S * args.seconds)))
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        cfg.slices = 1
        if args.workload in TRACE_READ_ROUNDS_PER_S:
            cfg.read_rounds = max(1, math.ceil(
                TRACE_READ_ROUNDS_PER_S[args.workload] * args.seconds))

    out_dir = os.path.join(HERE, "out")
    work_dir = os.path.join(HERE, "work", f"run-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(work_dir)
    correct = True
    try:
        run = bench.run_workload(args.workload, args.seed, cfg, work_dir,
                                 tracer)
    except CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        correct = False
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if not correct:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0,
                          "metrics": {}}))
        return 1

    e2e = bench.end_to_end(run)
    units = {name: unit for name, unit, _ in bench.END_TO_END}
    print(f"workload {args.workload} seed {args.seed}"
          f"{' (traced: timings include tracing)' if tracer else ''}: "
          f"{run.attempted} operations, {run.failed} failed")
    for name, (value, samples) in e2e.items():
        print(f"  {name:16s} {value:14.4f} {units[name]:6s} "
              f"({samples} samples)")
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "end_to_end": {k: {"value": v, "samples": n}
                             for k, (v, n) in e2e.items()},
              "samples_s": {"setup": run.setup, "checkpoint": run.checkpoint,
                            "restart": run.restart}}
    if tracer is None:
        metrics = {name: {"value": e2e[name][0], "unit": unit}
                   for name, unit, _ in bench.END_TO_END}
    else:
        tracer.uninstall()
        values = tracer.per_layer()
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER}
        spans = tracer.write(os.path.join(out_dir,
                                          f"trace-{args.workload}.spans"))
        record["spans"] = spans
        print(f"  {spans} spans written to perfbench/out/")
        for name, unit in PER_LAYER:
            print(f"  {name:40s} {values[name]:14.2f} {unit}")
    record["metrics"] = metrics
    with open(os.path.join(out_dir, f"result-{args.workload}-trace"
                           f"{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": True, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
