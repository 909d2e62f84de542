"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 1-3 share one orchestrated run: seeded population at scale 1000,
an 8-thread mixed workload of 10000 statements with a concurrent read
monitor, crash injection at each of the six update steps with recovery,
and a final brute-force verification.
"""

import random
import threading
import time
from pathlib import Path

import pytest

from synergy import oracle
from synergy.cli import bench_locks, format_generation_report
from synergy.db import Database
from synergy.errors import SynergyError
from synergy.fixtures import (company_schema, company_workload,
                              mixed_statements, populate_tpcw_micro,
                              tpcw_micro_schema, tpcw_micro_workload)
from synergy.maintenance import build_insert_view_tuple
from synergy.schema import ForeignKey, RelationDef, SchemaDef
from synergy.sqlparse import Insert, parse_statement, render_statement
from synergy.storage import DIRTY, encode_key
from synergy.txn import CrashInjected, TransactionManager

GOLDEN = Path(__file__).parent / "golden" / "company_report.txt"

MIXED_SCALE = 1000
MIXED_RATIO = 10
MIXED_STATEMENTS = 10_000
MIXED_WORKERS = 8
MONITOR_TARGET = 100_000


@pytest.fixture(scope="module")
def mixed_run():
    started = time.perf_counter()
    db = Database.create(tpcw_micro_schema(), tpcw_micro_workload())
    populate_tpcw_micro(db, scale=MIXED_SCALE, ratio=MIXED_RATIO, seed=1)

    view_columns = {v.name: set(v.attributes) for v in db.views}
    q1 = db.rewrite.statements[0]
    q2 = db.rewrite.statements[1]
    q1_cols = view_columns["V_Customer_Order"]
    q2_cols = view_columns["V_Customer_Order_Order_line"]

    stop_monitor = threading.Event()
    monitor = {"reads": 0, "dirty": 0, "torn": 0, "errors": 0,
               "error_samples": []}

    def run_monitor():
        rng = random.Random(2024)
        while True:
            if stop_monitor.is_set() and monitor["reads"] >= MONITOR_TARGET:
                return
            param = rng.randrange(1, MIXED_SCALE + 1)
            query, cols = (q1, q1_cols) if rng.random() < 0.9 else \
                (q2, q2_cols)
            try:
                rows = db.engine.execute(query, (param,))
            except SynergyError as exc:
                monitor["errors"] += 1
                if len(monitor["error_samples"]) < 3:
                    monitor["error_samples"].append(repr(exc))
                continue
            monitor["reads"] += 1
            for row in rows:
                if DIRTY in row:
                    monitor["dirty"] += 1
                if set(row) != cols:
                    monitor["torn"] += 1

    monitor_thread = threading.Thread(target=run_monitor)
    monitor_thread.start()

    streams = mixed_statements(MIXED_SCALE, MIXED_RATIO, MIXED_STATEMENTS,
                               MIXED_WORKERS, seed=7)
    results = [[] for _ in range(MIXED_WORKERS)]
    failures = []

    def worker(wid):
        try:
            for stmt in streams[wid]:
                results[wid].append(db.txn.execute_write(stmt))
        except Exception as exc:      # noqa: BLE001 - surfaced in the assert
            failures.append((wid, repr(exc)))

    workers = [threading.Thread(target=worker, args=(w,))
               for w in range(MIXED_WORKERS)]
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    stop_monitor.set()
    monitor_thread.join()

    # crash injection at each of the six update steps, then recovery
    crash_log = []
    for step in (1, 2, 3, 4, 5, 6):
        db.txn.crash_after_step = step
        text = (f"UPDATE Customer SET C_BALANCE = {770_000 + step} "
                f"WHERE C_ID = {step}")
        with pytest.raises(CrashInjected):
            db.txn.execute_write(parse_statement(text))
        replacement = TransactionManager(db.store, db.catalog, db.views,
                                         db.trees, db.wal)
        report = replacement.recover()
        crash_log.append((step, len(report.replayed), len(report.aborted)))
        row = db.store.get("Customer", encode_key((step,), ("int",)))
        assert row["C_BALANCE"] == 770_000 + step

    verify = db.verify()
    elapsed = time.perf_counter() - started
    run = {
        "db": db,
        "results": [r for worker_results in results for r in worker_results],
        "failures": failures,
        "monitor": monitor,
        "crash_log": crash_log,
        "verify": verify,
        "elapsed": elapsed,
    }
    yield run
    db.close()


def test_criterion_1_view_consistency(mixed_run):
    """Populate + mixed workload + crash/recover leaves views exact."""
    assert mixed_run["failures"] == []
    report = mixed_run["verify"]
    assert report.dirty_cells == 0, report.describe()
    assert report.ok, report.describe()
    assert report.locks_held == 0
    assert all(replayed == 1 and aborted == 0
               for _, replayed, aborted in mixed_run["crash_log"])
    assert mixed_run["elapsed"] < 300, "must finish inside five minutes"
    print(f"\nCRITERION 1 PASS: zero diffs, zero dirty cells after "
          f"{len(mixed_run['results'])} mixed statements + 6 crash/recover "
          f"cycles ({mixed_run['elapsed']:.0f}s)")


def test_criterion_2_single_lock_property(mixed_run):
    """Exactly one lock per in-tree write, zero for out-of-tree writes."""
    in_tree = out_tree = 0
    for result in mixed_run["results"]:
        assert result.orphan is False
        if result.relation == "Country":
            assert result.locks_acquired == 0, result
            out_tree += 1
        else:
            assert result.locks_acquired == 1, result
            in_tree += 1
    assert in_tree > 0 and out_tree > 0
    print(f"\nCRITERION 2 PASS: {in_tree} in-tree writes took exactly one "
          f"lock, {out_tree} out-of-tree writes took none")


def test_criterion_3_read_committed_monitor(mixed_run):
    """No dirty or torn rows over at least 1e5 concurrent view reads."""
    monitor = mixed_run["monitor"]
    assert monitor["reads"] >= MONITOR_TARGET
    assert monitor["dirty"] == 0
    assert monitor["torn"] == 0
    assert monitor["errors"] == 0, monitor["error_samples"]
    print(f"\nCRITERION 3 PASS: {monitor['reads']} view reads, "
          f"0 dirty rows, 0 torn rows")


def test_criterion_4_company_golden_pipeline():
    """The company pipeline drops (AID, EOffice_AID) and reproduces the
    golden report byte for byte on every run."""
    reports = []
    for _ in range(2):
        db = Database.create(company_schema(), company_workload())
        reports.append(format_generation_report(db))
        db.close()
    assert reports[0] == reports[1], "pipeline must be deterministic"
    assert "dropped: Address -> Employee (AID -> EOffice_AID)" in reports[0]
    golden = GOLDEN.read_text(encoding="utf-8")
    assert reports[0] == golden
    print("\nCRITERION 4 PASS: dropped (AID, EOffice_AID); report matches "
          "the golden file byte-exactly")


def test_criterion_5_microbenchmark_direction():
    """At scale 5000 the view scan beats the join by 2x or more for both
    queries, and the deeper join gains more."""
    started = time.perf_counter()
    db = Database.create(tpcw_micro_schema(), tpcw_micro_workload())
    try:
        populate_tpcw_micro(db, scale=5000, ratio=10, seed=1)
        rng = random.Random(5)
        params = [rng.randrange(1, 5001) for _ in range(3)]
        timings = {}
        for pos, label in ((0, "q1"), (1, "q2")):
            for mode, stmt in (("join", db.workload[pos]),
                               ("view", db.rewrite.statements[pos])):
                plan = db.engine.plan(stmt)
                samples = []
                for p in params:
                    t0 = time.perf_counter()
                    rows = db.engine.execute_plan(plan, (p,))
                    samples.append(time.perf_counter() - t0)
                    assert rows, "benchmark queries must return rows"
                timings[(label, mode)] = sum(samples) / len(samples)
        speedup_q1 = timings[("q1", "join")] / timings[("q1", "view")]
        speedup_q2 = timings[("q2", "join")] / timings[("q2", "view")]
        elapsed = time.perf_counter() - started
        assert speedup_q1 >= 2.0, f"q1 speedup {speedup_q1:.1f}x"
        assert speedup_q2 >= 2.0, f"q2 speedup {speedup_q2:.1f}x"
        assert speedup_q2 > speedup_q1, (speedup_q1, speedup_q2)
        assert elapsed < 120, "must finish inside two minutes"
        print(f"\nCRITERION 5 PASS: view-scan speedups q1={speedup_q1:.0f}x "
              f"q2={speedup_q2:.0f}x, q2 > q1 ({elapsed:.0f}s)")
    finally:
        db.close()


def test_criterion_6_lock_overhead_trend():
    """Acquire+release time grows monotonically and near-linearly."""
    rows = bench_locks([10, 100, 1000], repeats=10)
    medians = {int(r["count"]): float(r["median_ms"]) for r in rows}
    assert medians[10] < medians[100] < medians[1000]
    ratio = medians[1000] / medians[100]
    assert 5.0 <= ratio <= 20.0, f"1000/100 ratio {ratio:.1f}"
    print(f"\nCRITERION 6 PASS: lock overhead {medians[10]:.3f} / "
          f"{medians[100]:.3f} / {medians[1000]:.3f} ms, "
          f"1000:100 ratio {ratio:.1f}")


# -- criterion 7: randomized engine vs oracle --------------------------------------


def _random_database(rng: random.Random):
    """A random relation tree (2-5 relations) with random parent-first rows;
    at most 200 rows total."""
    n = rng.randrange(2, 6)
    relations = {}
    parents = {}
    for i in range(n):
        name = f"R{i}"
        attrs = [(f"k{i}", "int"), (f"v{i}", "int")]
        fks = ()
        if i:
            parent = f"R{rng.randrange(i)}"
            parents[name] = parent
            attrs.append((f"p{i}", "int"))
            fks = (ForeignKey(f"p{i}", (f"p{i}",), parent),)
        relations[name] = RelationDef(name, tuple(attrs), (f"k{i}",), fks)
    schema = SchemaDef(relations, roots=("R0",))

    chains = []
    for i in range(1, n):
        chain = [f"R{i}"]
        while chain[0] in parents:
            chain.insert(0, parents[chain[0]])
        chains.append(chain)

    queries = []
    for chain in chains:
        tables = ", ".join(f"{r} as {r.lower()}" for r in chain)
        joins = " and ".join(
            f"{chain[j].lower()}.k{chain[j][1:]} = "
            f"{chain[j + 1].lower()}.p{chain[j + 1][1:]}"
            for j in range(len(chain) - 1))
        queries.append(parse_statement(
            f"SELECT * FROM {tables} WHERE {joins}"))

    db = Database.create(schema, queries)
    budget = 200
    counts = {}
    rows_per = max(2, budget // (2 * n))
    for i in range(n):
        counts[f"R{i}"] = rng.randrange(1, rows_per + 1)
    for i in range(n):
        name = f"R{i}"
        for k in range(1, counts[name] + 1):
            cols = [(f"k{i}", k), (f"v{i}", rng.randrange(6))]
            if i:
                cols.append((f"p{i}", rng.randrange(1, counts[parents[name]] + 1)))
            db.txn.execute_write(Insert(name, tuple(cols)))
    return db, chains


def _random_query(rng, chains):
    chain = rng.choice(chains)
    length = rng.randrange(1, len(chain) + 1)
    start = rng.randrange(0, len(chain) - length + 1)
    segment = chain[start:start + length]
    tables = ", ".join(f"{r} as {r.lower()}" for r in segment)
    conds = [
        f"{segment[j].lower()}.k{segment[j][1:]} = "
        f"{segment[j + 1].lower()}.p{segment[j + 1][1:]}"
        for j in range(len(segment) - 1)]
    for _ in range(rng.randrange(0, 3)):
        rel = rng.choice(segment)
        attr = rng.choice((f"k{rel[1:]}", f"v{rel[1:]}"))
        op = rng.choice(("=", "<", ">", "<=", ">="))
        conds.append(f"{rel.lower()}.{attr} {op} {rng.randrange(0, 8)}")
    where = " WHERE " + " and ".join(conds) if conds else ""
    return parse_statement(f"SELECT * FROM {tables}{where}")


def test_criterion_7_engine_equals_oracle_randomized():
    """200 random equi-join queries, with and without view rewriting,
    match the independent evaluator exactly."""
    rng = random.Random(4242)
    checked = 0
    while checked < 200:
        db, chains = _random_database(rng)
        try:
            tables = {name: [c for _, c in db.store.scan(name)]
                      for name in db.schema.relations}
            for _ in range(20):
                stmt = _random_query(rng, chains)
                want = oracle.row_multiset(oracle.eval_select(stmt, tables))
                direct = db.engine.execute(stmt)
                assert oracle.row_multiset(direct) == want, \
                    render_statement(stmt)
                rewritten = db.rewrite_statement(stmt)
                via_views = db.engine.execute(rewritten)
                assert oracle.row_multiset(via_views) == want, \
                    render_statement(rewritten)
                checked += 1
                if checked == 200:
                    break
        finally:
            db.close()
    print(f"\nCRITERION 7 PASS: {checked} randomized queries equal the "
          f"oracle with and without rewriting")


def test_criterion_8_insert_maintenance_read_count():
    """Building a view tuple for an insert reads exactly k-1 ancestors."""

    class CountingReader:
        def __init__(self, store):
            self.store = store
            self.gets = 0

        def get(self, table, key):
            self.gets += 1
            return self.store.get(table, key)

        def scan(self, *args, **kwargs):
            return self.store.scan(*args, **kwargs)

    observed = {}
    for k in (2, 3, 4):
        relations = {}
        for i in range(k):
            name = f"R{i}"
            attrs = [(f"k{i}", "int")]
            fks = ()
            if i:
                attrs.append((f"p{i}", "int"))
                fks = (ForeignKey(f"p{i}", (f"p{i}",), f"R{i-1}"),)
            relations[name] = RelationDef(name, tuple(attrs), (f"k{i}",), fks)
        schema = SchemaDef(relations, roots=("R0",))
        tables = ", ".join(f"R{i} as r{i}" for i in range(k))
        joins = " and ".join(f"r{i}.k{i} = r{i+1}.p{i+1}"
                             for i in range(k - 1))
        db = Database.create(schema,
                             [parse_statement(
                                 f"SELECT * FROM {tables} WHERE {joins}")])
        try:
            for i in range(k):
                cols = [(f"k{i}", 1)] + ([(f"p{i}", 1)] if i else [])
                db.txn.execute_write(Insert(f"R{i}", tuple(cols)))
            view = next(v for v in db.views if len(v.relations) == k)
            insert = Insert(f"R{k-1}", ((f"k{k-1}", 2), (f"p{k-1}", 1)))
            reader = CountingReader(db.store)
            assert build_insert_view_tuple(view, insert, reader,
                                           db.catalog) is not None
            assert reader.gets == k - 1, f"k={k}: {reader.gets} reads"
            observed[k] = reader.gets
        finally:
            db.close()
    print(f"\nCRITERION 8 PASS: insert maintenance reads {observed} "
          f"(exactly k-1 for k relations)")
