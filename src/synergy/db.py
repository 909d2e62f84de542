"""Embeddable database: wires schema, pipeline, store, transactions, reads.

The constructor is the one place that plans, for ``create`` and ``open``
alike: from the schema, workload and roots it runs the pipeline (graph,
DAG, rooted trees, view selection, rewriting, index recommendation), then
builds the catalog (one lock table per rooted tree) and the store, WAL,
transaction manager and query engine.  ``execute`` routes reads through
the engine and writes through the transaction manager.

``save`` writes ``schema.json``, ``pipeline.json`` (the planner's inputs:
roots and baseline workload), ``snapshot.bin`` and ``wal.bin``, each under
a temporary name renamed into place once all are written.  ``open`` plans
again from those inputs, loads the snapshot and replays unfinished
transactions.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import tempfile
from dataclasses import dataclass, field

from . import oracle
from .engine import QueryEngine
from .schema import (BASE, INDEX, LOCK, LOCK_COLUMN, VIEW, SchemaDef,
                     baseline_transform, build_catalog, build_schema_graph,
                     load_schema, save_schema)
from .sqlparse import (SelectJoin, Statement, WriteStatement, bind_params,
                       parse_statement, render_statement)
from .storage import DIRTY, Store, key_of
from .txn import TransactionManager, WriteAheadLog
from .viewgen import generate_candidate_views
from .viewselect import (recommend_maintenance_indexes, recommend_view_indexes,
                         rewrite_statement, rewrite_workload)

WAL_FILE = "wal.bin"
SNAPSHOT_FILE = "snapshot.bin"
SCHEMA_FILE = "schema.json"
PIPELINE_FILE = "pipeline.json"


@dataclass
class TableDiff:
    missing: int = 0
    extra: int = 0
    mismatched: int = 0
    samples: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not (self.missing or self.extra or self.mismatched)


@dataclass
class VerifyReport:
    diffs: dict[str, TableDiff] = field(default_factory=dict)
    dirty_cells: int = 0
    locks_held: int = 0

    @property
    def ok(self) -> bool:
        return self.dirty_cells == 0 and self.locks_held == 0 and all(
            d.clean for d in self.diffs.values())

    def describe(self) -> str:
        lines = []
        for name in sorted(self.diffs):
            d = self.diffs[name]
            state = "ok" if d.clean else (
                f"missing={d.missing} extra={d.extra} "
                f"mismatched={d.mismatched}")
            lines.append(f"{name}: {state}")
            lines.extend(f"  {s}" for s in d.samples[:3])
        lines.append(f"dirty cells: {self.dirty_cells}")
        lines.append(f"locks held: {self.locks_held}")
        lines.append("verify: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


class Database:
    def __init__(self, schema: SchemaDef, workload: list[Statement],
                 roots: tuple[str, ...] | None, wal_path: str,
                 fsync: bool = False, lock_timeout: float = 10.0,
                 tmp_dir: str | None = None):
        self.schema = schema
        baseline = baseline_transform(schema, workload)
        self.workload = baseline.statements
        self.generation = generate_candidate_views(
            build_schema_graph(schema), schema, self.workload, roots)
        self.trees = self.generation.trees
        self.rewrite = rewrite_workload(self.workload, self.trees, schema)
        self.views = self.rewrite.views
        self.view_indexes = recommend_view_indexes(self.rewrite.statements,
                                                   self.views)
        self.maintenance_indexes = recommend_maintenance_indexes(
            self.views, self.workload, schema, existing=self.view_indexes)
        self.catalog = build_catalog(
            schema, self.views, self.view_indexes + self.maintenance_indexes,
            [t.root for t in self.trees])
        self.store = Store()
        for handle in self.catalog.all_handles():
            self.store.create_table(handle)
        self.wal = WriteAheadLog(wal_path, fsync=fsync)
        self.txn = TransactionManager(self.store, self.catalog, self.views,
                                      self.trees, self.wal,
                                      lock_timeout=lock_timeout)
        self.engine = QueryEngine(self.store, self.catalog)
        self._tmp_dir = tmp_dir
        self.recovery = None

    # -- construction ---------------------------------------------------------

    @classmethod
    def create(cls, schema: SchemaDef, workload: list[Statement],
               roots: tuple[str, ...] | None = None,
               data_dir: str | None = None, fsync: bool = False,
               lock_timeout: float = 10.0) -> "Database":
        tmp_dir = None
        if data_dir is None:
            data_dir = tmp_dir = tempfile.mkdtemp(prefix="synergy-")
        else:
            os.makedirs(data_dir, exist_ok=True)
        wal_path = os.path.join(data_dir, WAL_FILE)
        # a new database starts a new log: an earlier database's log left
        # here would otherwise be replayed into this one by the next open
        open(wal_path, "wb").close()
        try:
            return cls(schema, workload, roots, wal_path, fsync, lock_timeout,
                       tmp_dir=tmp_dir)
        except BaseException:
            if tmp_dir is not None:
                shutil.rmtree(tmp_dir, ignore_errors=True)
            raise

    def close(self) -> None:
        self.wal.close()
        if self._tmp_dir:
            shutil.rmtree(self._tmp_dir, ignore_errors=True)
            self._tmp_dir = None

    # -- execution --------------------------------------------------------------

    def execute(self, stmt: Statement | str, params=()):
        """Route a statement: reads return row dicts, writes a TxnResult."""
        if isinstance(stmt, str):
            stmt = parse_statement(stmt)
        if isinstance(stmt, SelectJoin):
            return self.engine.execute(stmt, params)
        if isinstance(stmt, WriteStatement):
            if params:
                stmt = bind_params(stmt, params)
            return self.txn.execute_write(stmt)
        raise ValueError(f"cannot execute {stmt!r}")

    def rewrite_statement(self, stmt: SelectJoin) -> SelectJoin:
        """Rewrite an ad-hoc query using whichever selected views exist."""
        return rewrite_statement(stmt, self.trees, self.views)

    # -- verification --------------------------------------------------------------

    def verify(self) -> VerifyReport:
        """Recompute every view and index from the base tables and diff."""
        report = VerifyReport()
        base_rows = {name: [cells for _, cells in self.store.scan(name)]
                     for name in self.schema.relations}
        expected_view: dict[str, list[dict]] = {}
        for view in self.views:
            expected_view[view.name] = oracle.expected_view_rows(
                view, base_rows)

        for handle in self.catalog.all_handles():
            if handle.kind == BASE:
                continue
            if handle.kind == LOCK:
                for _, cells in self.store.scan(handle.name):
                    if cells.get(LOCK_COLUMN):
                        report.locks_held += 1
                continue
            if handle.kind == VIEW:
                rows = expected_view[handle.name]
            elif handle.kind == INDEX:
                idx = self.catalog.index_defs[handle.name]
                source = (expected_view[idx.base]
                          if idx.base in expected_view
                          else base_rows[idx.base])
                rows = [{a: r[a] for a in handle.columns if a in r}
                        for r in source]
            expected = {}
            for row in rows:
                key = key_of(handle, row)
                if key is not None:       # no key attribute: no row here
                    expected[key] = row
            diff = TableDiff()
            seen = set()
            for key, cells in self.store.scan(handle.name):
                if cells.get(DIRTY):
                    report.dirty_cells += 1
                seen.add(key)
                want = expected.get(key)
                clean = {a: v for a, v in cells.items() if a != DIRTY}
                if want is None:
                    diff.extra += 1
                    diff.samples.append(f"extra row {key!r}")
                elif clean != want:
                    diff.mismatched += 1
                    diff.samples.append(
                        f"row {key!r}: stored {clean!r} expected {want!r}")
            for key in expected:
                if key not in seen:
                    diff.missing += 1
                    diff.samples.append(f"missing row {key!r}")
            report.diffs[handle.name] = diff
        return report

    # -- persistence ------------------------------------------------------------------

    def save(self, data_dir: str) -> None:
        """Checkpoint into ``data_dir``: every file is written under a
        temporary name first and renamed into place only once all are
        written, so a failure leaves the previous checkpoint as it was."""
        os.makedirs(data_dir, exist_ok=True)
        pipeline = {"roots": [t.root for t in self.trees],
                    "workload": [render_statement(s) for s in self.workload]}
        writers = {SCHEMA_FILE: lambda tmp: save_schema(self.schema, tmp),
                   PIPELINE_FILE: lambda tmp: pathlib.Path(tmp).write_text(
                       json.dumps(pipeline, indent=2) + "\n", encoding="utf-8"),
                   SNAPSHOT_FILE: self.store.save_snapshot}
        if os.path.abspath(self.wal.path) != os.path.abspath(
                os.path.join(data_dir, WAL_FILE)):
            writers[WAL_FILE] = lambda tmp: shutil.copyfile(self.wal.path, tmp)
        paths = [os.path.join(data_dir, name) for name in writers]
        try:
            for path, write in zip(paths, writers.values()):
                write(path + ".tmp")
        except BaseException:
            for path in paths:
                if os.path.exists(path + ".tmp"):
                    os.remove(path + ".tmp")
            raise
        for path in paths:
            if self.wal.fsync:
                _fsync(path + ".tmp")
            os.replace(path + ".tmp", path)
        if self.wal.fsync:
            _fsync(data_dir)

    @classmethod
    def open(cls, data_dir: str, fsync: bool = False,
             lock_timeout: float = 10.0) -> "Database":
        """Plan again from the saved schema, roots and workload, load the
        snapshot, and replay unfinished transactions; recovery sets the
        next transaction id."""
        schema = load_schema(os.path.join(data_dir, SCHEMA_FILE))
        with open(os.path.join(data_dir, PIPELINE_FILE),
                  encoding="utf-8") as fh:
            pipeline = json.load(fh)
        db = cls(schema, [parse_statement(t) for t in pipeline["workload"]],
                 tuple(pipeline["roots"]), os.path.join(data_dir, WAL_FILE),
                 fsync, lock_timeout)
        snapshot = os.path.join(data_dir, SNAPSHOT_FILE)
        try:
            if os.path.exists(snapshot):
                db.store.load_snapshot(snapshot)
            db.recovery = db.txn.recover()
        except BaseException:
            db.close()
            raise
        return db


def _fsync(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
