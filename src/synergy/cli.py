"""Command-line operator surface.

Subcommands: ``gen-views`` (planning pipeline and reports),
``rewrite-workload`` (rewritten statements and DDL only), ``populate``
(deterministic fixture data through the transaction layer), ``verify``
(brute-force view/index consistency check), ``bench-join`` (view scan vs
join), ``bench-locks`` (acquire/release overhead), ``explain`` (query
plans of a read, over base tables and rewritten onto views), ``run``
(workload driver), ``to-gnuplot`` (CSV to plot data).
``SYNERGY_DATA_DIR`` is the default store/WAL location.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import random
import statistics
import sys
import time

from . import fixtures
from .db import Database
from .errors import SynergyError
from .schema import LOCK_COLUMN, TableHandle, load_schema
from .sqlparse import (SelectJoin, count_placeholders, bind_params,
                       load_workload, parse_statement, render_statement)
from .storage import Store, encode_key
from .viewgen import WorkloadWeights

DATA_DIR_ENV = "SYNERGY_DATA_DIR"


# -- report rendering -----------------------------------------------------------

def format_generation_report(db: Database) -> str:
    """Stable text report of the whole planning pipeline."""
    gen = db.generation
    weights = WorkloadWeights(db.workload)
    lines = ["== schema graph =="]
    for e in gen.graph.edges:
        lines.append(f"{e.describe()} weight={weights.edge_weight(e)}")
    lines.append("== workload ==")
    for i, stmt in enumerate(db.workload):
        lines.append(f"[{i}] {render_statement(stmt)}")
    lines.append("== dag ==")
    for e in gen.dag.edges:
        lines.append(f"kept: {e.describe()}")
    for e in gen.dropped:
        lines.append(f"dropped: {e.describe()}")
    lines.append("== topological order ==")
    lines.append(" -> ".join(gen.order))
    lines.append("== root assignment ==")
    for a in gen.assignments:
        if a.root is None:
            lines.append(f"{a.relation}: unassigned")
        else:
            lines.append(f"{a.relation} -> {a.root} via "
                         f"{', '.join((a.root,) + tuple(e.dst for e in a.path))} "
                         f"(weight={a.weight})")
    lines.append("== rooted trees ==")
    for tree in gen.trees:
        if tree.edges:
            chain = "; ".join(e.describe() for e in tree.edges)
        else:
            chain = "(no edges)"
        lines.append(f"{tree.root}: {chain}")
    lines.append("== candidate views ==")
    for cv in gen.candidates:
        lines.append(", ".join(cv.relations))
    lines.append("== selected views ==")
    for view in db.views:
        lines.append(f"{view.name}: key=({', '.join(view.key)}) "
                     f"queries={view.provenance}")
    lines.append("== rewritten workload ==")
    for i, stmt in enumerate(db.rewrite.statements):
        lines.append(f"[{i}] {render_statement(stmt)}")
    lines.append("== view indexes ==")
    for idx in db.view_indexes:
        lines.append(f"{idx.name} on {idx.base} "
                     f"({', '.join(idx.indexed_on)})")
    lines.append("== maintenance indexes ==")
    for idx in db.maintenance_indexes:
        lines.append(f"{idx.name} on {idx.base} "
                     f"({', '.join(idx.indexed_on)})")
    lines.append("== unassigned relations ==")
    unassigned = gen.unassigned
    lines.append(", ".join(unassigned) if unassigned else "(none)")
    return "\n".join(lines) + "\n"


def _mean_stderr(samples_ms: list[float]) -> tuple[float, float]:
    mean = statistics.fmean(samples_ms)
    if len(samples_ms) < 2:
        return mean, 0.0
    return mean, statistics.stdev(samples_ms) / math.sqrt(len(samples_ms))


# -- commands -----------------------------------------------------------------

def cmd_gen_views(args) -> int:
    schema = load_schema(args.schema)
    workload = load_workload(args.workload)
    roots = tuple(args.roots.split(",")) if args.roots else None
    db = Database.create(schema, workload, roots=roots)
    try:
        os.makedirs(args.out, exist_ok=True)
        report = format_generation_report(db)
        with open(os.path.join(args.out, "report.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(report)
        with open(os.path.join(args.out, "workload_rewritten.sql"), "w",
                  encoding="utf-8") as fh:
            for stmt in db.rewrite.statements:
                fh.write(render_statement(stmt) + "\n")
        with open(os.path.join(args.out, "ddl.txt"), "w",
                  encoding="utf-8") as fh:
            for view in db.views:
                fh.write(f"CREATE VIEW {view.name} AS PATH "
                         f"{' -> '.join(view.relations)} "
                         f"KEY ({', '.join(view.key)})\n")
            for idx in db.view_indexes + db.maintenance_indexes:
                fh.write(f"CREATE INDEX {idx.name} ON {idx.base} "
                         f"({', '.join(idx.indexed_on)})\n")
        print(report, end="")
        return 0
    finally:
        db.close()


def cmd_rewrite_workload(args) -> int:
    schema = load_schema(args.schema)
    workload = load_workload(args.workload)
    roots = tuple(args.roots.split(",")) if args.roots else None
    db = Database.create(schema, workload, roots=roots)
    try:
        for stmt in db.rewrite.statements:
            print(render_statement(stmt))
        return 0
    finally:
        db.close()


def _make_fixture_db(args, data_dir=None) -> Database:
    schema, workload = fixtures.build_fixture(args.fixture)
    return Database.create(schema, workload, data_dir=data_dir,
                           fsync=getattr(args, "fsync", False))


def cmd_populate(args) -> int:
    data_dir = args.data_dir or os.environ.get(DATA_DIR_ENV)
    if not data_dir:
        print("populate: --data-dir or SYNERGY_DATA_DIR required",
              file=sys.stderr)
        return 2
    db = _make_fixture_db(args, data_dir=data_dir)
    try:
        t0 = time.perf_counter()
        fixtures.populate(db, args.fixture, args.scale, args.ratio, args.seed)
        db.save(data_dir)
        dt = time.perf_counter() - t0
        total = sum(db.store.count(r) for r in db.schema.relations)
        print(f"populated fixture={args.fixture} scale={args.scale} "
              f"ratio={args.ratio} seed={args.seed} "
              f"base_rows={total} in {dt:.1f}s -> {data_dir}")
        return 0
    finally:
        db.close()


def cmd_verify(args) -> int:
    if args.data_dir or os.environ.get(DATA_DIR_ENV):
        db = Database.open(args.data_dir or os.environ[DATA_DIR_ENV])
    else:
        db = _make_fixture_db(args)
        fixtures.populate(db, args.fixture, args.scale, args.ratio, args.seed)
    try:
        report = db.verify()
        print(report.describe())
        return 0 if report.ok else 1
    finally:
        db.close()


def cmd_bench_join(args) -> int:
    db = _make_fixture_db(args)
    try:
        fixtures.populate(db, args.fixture, args.scale, args.ratio, args.seed)
        queries = [(i, stmt) for i, stmt in enumerate(db.workload)
                   if isinstance(stmt, SelectJoin) and stmt.joins]
        wanted = None if args.query == "all" else int(args.query[1:]) - 1
        rows = []
        rng = random.Random(args.seed)
        params_per_repeat = [rng.randrange(1, args.scale + 1)
                             for _ in range(args.repeats)]
        for qnum, (pos, stmt) in enumerate(queries):
            if wanted is not None and qnum != wanted:
                continue
            modes = ("join", "view") if args.mode == "both" else (args.mode,)
            for mode in modes:
                target = stmt if mode == "join" \
                    else db.rewrite.statements[pos]
                plan = db.engine.plan(target)
                samples = []
                for r in range(args.repeats):
                    params = (params_per_repeat[r],) * \
                        count_placeholders(target)
                    t0 = time.perf_counter()
                    db.engine.execute_plan(plan, params)
                    samples.append((time.perf_counter() - t0) * 1000.0)
                mean, err = _mean_stderr(samples)
                rows.append({"scale": args.scale, "query": f"q{qnum + 1}",
                             "mode": mode, "mean_ms": f"{mean:.3f}",
                             "stderr_ms": f"{err:.3f}"})
        _write_csv(args.out, ("scale", "query", "mode", "mean_ms",
                              "stderr_ms"), rows)
        return 0
    finally:
        db.close()


def bench_locks(counts: list[int], repeats: int = 10) -> list[dict]:
    """Median time of acquire+release of N uncontended locks via
    check-and-put, over ``repeats`` timings."""
    rows = []
    for count in counts:
        store = Store()
        handle = TableHandle("LK_bench", "lock", ("id",), ("int",),
                             (LOCK_COLUMN,))
        store.create_table(handle)
        keys = [encode_key((i,), ("int",)) for i in range(count)]
        for key in keys:
            store.put("LK_bench", key, {LOCK_COLUMN: False})
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for key in keys:
                store.check_and_put("LK_bench", key, LOCK_COLUMN, False, True)
                store.check_and_put("LK_bench", key, LOCK_COLUMN, True, False)
            samples.append((time.perf_counter() - t0) * 1000.0)
        # the median: one scheduler pause inside a sub-millisecond repeat
        # moves a mean several-fold
        rows.append({"count": count,
                     "median_ms": f"{statistics.median(samples):.4f}"})
    return rows


def cmd_bench_locks(args) -> int:
    counts = [int(c) for c in args.counts.split(",")]
    rows = bench_locks(counts, args.repeats)
    _write_csv(args.out, ("count", "median_ms"), rows)
    return 0


def cmd_explain(args) -> int:
    db = _make_fixture_db(args)
    try:
        if args.sql is not None:
            stmt = parse_statement(args.sql)
        elif 0 <= args.position < len(db.workload):
            stmt = db.workload[args.position]
        else:
            print(f"explain: the workload has {len(db.workload)} "
                  f"statements", file=sys.stderr)
            return 2
        if not isinstance(stmt, SelectJoin):
            print("explain: only SELECT statements have plans",
                  file=sys.stderr)
            return 2
        rewritten = (db.rewrite_statement(stmt) if args.sql is not None
                     else db.rewrite.statements[args.position])
        for label, target in (("base", stmt), ("rewritten", rewritten)):
            print(f"{label}: {render_statement(target)}")
            print(db.engine.plan(target).describe())
        return 0
    finally:
        db.close()


def cmd_run(args) -> int:
    data_dir = args.data_dir or os.environ.get(DATA_DIR_ENV)
    if data_dir:
        db = Database.open(data_dir)
    else:
        db = _make_fixture_db(args)
        fixtures.populate(db, args.fixture, args.scale, args.ratio, args.seed)
    try:
        workload = load_workload(args.workload)
        rng = random.Random(args.seed)
        jobs = []
        for i, stmt in enumerate(workload):
            for _ in range(args.repeats):
                params = tuple(rng.randrange(1, args.param_max + 1)
                               for _ in range(count_placeholders(stmt)))
                jobs.append((i, stmt, params))
        rng.shuffle(jobs)
        times: dict[int, list[float]] = {i: [] for i in range(len(workload))}
        errors: list[str] = []

        import queue as queue_mod
        import threading
        q: queue_mod.Queue = queue_mod.Queue()
        for job in jobs:
            q.put(job)

        def worker():
            while True:
                try:
                    i, stmt, params = q.get_nowait()
                except queue_mod.Empty:
                    return
                t0 = time.perf_counter()
                try:
                    if isinstance(stmt, SelectJoin):
                        db.execute(db.rewrite_statement(
                            bind_params(stmt, params)))
                    else:
                        db.execute(stmt, params)
                except SynergyError as exc:
                    errors.append(f"[{i}] {exc}")
                times[i].append((time.perf_counter() - t0) * 1000.0)

        threads = [threading.Thread(target=worker)
                   for _ in range(args.threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        rows = []
        for i, stmt in enumerate(workload):
            if not times[i]:
                continue
            mean, err = _mean_stderr(times[i])
            rows.append({"statement": i,
                         "kind": type(stmt).__name__.lower(),
                         "mean_ms": f"{mean:.3f}",
                         "stderr_ms": f"{err:.3f}"})
        _write_csv(args.out, ("statement", "kind", "mean_ms", "stderr_ms"),
                   rows)
        if data_dir:
            db.save(data_dir)       # checkpoint the executed writes
        for msg in errors[:10]:
            print(f"error: {msg}", file=sys.stderr)
        return 1 if errors else 0
    finally:
        db.close()


def cmd_to_gnuplot(args) -> int:
    with open(args.csv, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    out = sys.stdout if args.out in (None, "-") else \
        open(args.out, "w", encoding="utf-8")
    try:
        for row in rows:
            out.write(" ".join(row) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _write_csv(path, columns, rows) -> None:
    out = sys.stdout if path in (None, "-") else \
        open(path, "w", newline="", encoding="utf-8")
    try:
        writer = csv.DictWriter(out, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    finally:
        if out is not sys.stdout:
            out.close()


# -- argument parsing -------------------------------------------------------------

def _add_fixture_args(p, with_fsync=False):
    p.add_argument("--fixture", choices=fixtures.FIXTURES,
                   default="tpcw-micro")
    p.add_argument("--scale", type=int, default=500)
    p.add_argument("--ratio", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    if with_fsync:
        p.add_argument("--fsync", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synergy",
        description="Materialized-view engine over an ordered KV store")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-views", help="run the view pipeline")
    p.add_argument("--schema", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--roots", default=None,
                   help="comma-separated root relations (default: schema)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_views)

    p = sub.add_parser("rewrite-workload",
                       help="print the rewritten workload")
    p.add_argument("--schema", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--roots", default=None)
    p.set_defaults(func=cmd_rewrite_workload)

    p = sub.add_parser("populate", help="load fixture data")
    _add_fixture_args(p, with_fsync=True)
    p.add_argument("--data-dir", default=None)
    p.set_defaults(func=cmd_populate)

    p = sub.add_parser("verify", help="check views against base tables")
    _add_fixture_args(p)
    p.add_argument("--data-dir", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench-join", help="view scan vs join benchmark")
    _add_fixture_args(p)
    p.add_argument("--query", choices=("q1", "q2", "all"), default="all")
    p.add_argument("--mode", choices=("join", "view", "both"),
                   default="both")
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench_join)

    p = sub.add_parser("bench-locks", help="lock acquire/release overhead")
    p.add_argument("--counts", default="10,100,1000")
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench_locks)

    p = sub.add_parser("explain", help="print the plans of a read")
    p.add_argument("--fixture", choices=fixtures.FIXTURES,
                   default="tpcw-micro")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--position", type=int,
                        help="index of a statement in the fixture workload")
    target.add_argument("--sql", help="a SELECT over the fixture schema")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("run", help="execute a workload file")
    _add_fixture_args(p)
    p.add_argument("--workload", required=True)
    p.add_argument("--data-dir", default=None)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--param-max", type=int, default=1000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("to-gnuplot", help="CSV to gnuplot data")
    p.add_argument("--csv", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_to_gnuplot)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SynergyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
