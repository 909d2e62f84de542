"""Embeddable database: wires schema, pipeline, store, transactions, reads.

The constructor is the one place that plans, for ``create`` and ``open``
alike: from the schema, workload and roots it runs the pipeline (graph,
DAG, rooted trees, view selection, rewriting, index recommendation), then
builds the catalog (one lock table per rooted tree) and the store, WAL,
transaction manager and query engine.  ``execute`` routes reads through
the engine and writes through the transaction manager.

``save`` is a quiescent checkpoint: behind the transaction manager's gate
(no write begins; it waits, with no poll, until no write is in flight) it
writes ``schema.json``, ``pipeline.json`` (the planner's inputs: roots
and baseline workload), ``snapshot.bin`` (the base, view and lock tables;
no index) and ``wal.bin``, each under a temporary name renamed into place
once all are written, ``wal.bin`` last.
The saved log is compacted: the begins still pending, in id order, then a
commit of the highest id logged unless that id is pending.  Saved into the
live log's directory, it replaces the live log, so an ``open`` reads only
the writes since the last checkpoint.  ``open`` plans again from those
inputs, reads the log once (cutting a torn final record), loads the
snapshot, rebuilds every index from its table, replays the pending
begins, and continues ids from the log's high water.
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
from .errors import MissingCheckpointError
from .schema import (BASE, LOCK, LOCK_COLUMN, VIEW, SchemaDef,
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
#: the files ``open`` needs; ``wal.bin`` is made by ``create``
CHECKPOINT_FILES = (SCHEMA_FILE, PIPELINE_FILE, SNAPSHOT_FILE)


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


@dataclass(frozen=True)
class CheckpointReport:
    """What one ``save`` did: the seconds its gate waited for writes in
    flight, the ids of the pending begins its log kept, the live log's
    bytes at the gate and the saved log's bytes."""
    gate_wait_s: float
    pending_kept: tuple[int, ...]
    wal_bytes_before: int
    wal_bytes_after: int


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
        self.engine = QueryEngine(self.store, self.catalog, lock_timeout)
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
        # a new database starts with no checkpoint and a new log: an earlier
        # database's files left here would otherwise be loaded, or replayed,
        # into this one by the next open
        for name in CHECKPOINT_FILES:
            pathlib.Path(data_dir, name).unlink(missing_ok=True)
        wal_path = os.path.join(data_dir, WAL_FILE)
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
        # every table's expected rows; an index holds its base's rows
        source = dict(base_rows)
        for view in self.views:
            source[view.name] = oracle.expected_view_rows(view, base_rows)

        for handle in self.catalog.all_handles():
            if handle.kind == BASE:
                continue
            if handle.kind == LOCK:
                for _, cells in self.store.scan(handle.name):
                    if cells.get(LOCK_COLUMN):
                        report.locks_held += 1
                continue
            rows = source[handle.name if handle.kind == VIEW
                          else self.catalog.index_defs[handle.name].base]
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

    def save(self, data_dir: str) -> CheckpointReport:
        """Checkpoint into ``data_dir`` behind the transaction manager's
        gate: no write begins, and every write already begun has resolved
        or is held for recovery, so the snapshot holds no half-applied
        write the saved log does not replay.  The saved log is the live
        one compacted to its pending begins and high-water id.  Every file
        is written under a temporary name and renamed into place once all
        are written, ``wal.bin`` last, so a failure leaves the previous
        checkpoint as it was; a save cut before that last rename leaves the
        old log, whose pending begins are the same.  A save truncates the
        live log to the compacted one when it saves into the log's own
        directory, or when that directory lacks a checkpoint file, since
        ``open`` refuses such a directory; a live log beside a checkpoint
        of its own is kept whole, since that checkpoint still needs it."""
        os.makedirs(data_dir, exist_ok=True)
        pipeline = {"roots": [t.root for t in self.trees],
                    "workload": [render_statement(s) for s in self.workload]}
        live_log = os.path.abspath(self.wal.path)
        live_dir = os.path.dirname(live_log)
        with self.txn.quiesced() as waited:
            log, kept = self.wal.compacted()
            before = os.path.getsize(self.wal.path)
            write_log = lambda tmp: pathlib.Path(tmp).write_bytes(log)
            writers = {
                SCHEMA_FILE: lambda tmp: save_schema(self.schema, tmp),
                PIPELINE_FILE: lambda tmp: pathlib.Path(tmp).write_text(
                    json.dumps(pipeline, indent=2) + "\n", encoding="utf-8"),
                SNAPSHOT_FILE: self.store.save_snapshot,
                WAL_FILE: write_log}
            targets = {os.path.abspath(os.path.join(data_dir, name)): write
                       for name, write in writers.items()}
            if not all(os.path.exists(os.path.join(live_dir, name))
                       for name in CHECKPOINT_FILES):
                targets.setdefault(live_log, write_log)
            try:
                for path, write in targets.items():
                    write(path + ".tmp")
            except BaseException:
                for path in targets:
                    if os.path.exists(path + ".tmp"):
                        os.remove(path + ".tmp")
                raise
            for path in targets:
                if self.wal.fsync:
                    _fsync(path + ".tmp")
                if path == live_log:
                    self.wal.replace_with(path + ".tmp")
                else:
                    os.replace(path + ".tmp", path)
            if self.wal.fsync:
                _fsync(data_dir)
        return CheckpointReport(waited, kept, before, len(log))

    @classmethod
    def open(cls, data_dir: str, fsync: bool = False,
             lock_timeout: float = 10.0) -> "Database":
        """Plan again from the saved schema, roots and workload, read the
        log, load the snapshot, rebuild every index from its table, and
        replay unfinished transactions; ids continue from the log's high
        water.  A directory missing a checkpoint file (never created,
        created and not yet saved, or its first save cut between two
        renames) raises MissingCheckpointError."""
        missing = [name for name in CHECKPOINT_FILES
                   if not os.path.exists(os.path.join(data_dir, name))]
        if missing:
            raise MissingCheckpointError(
                f"no checkpoint in {data_dir}: {', '.join(missing)} missing")
        schema = load_schema(os.path.join(data_dir, SCHEMA_FILE))
        with open(os.path.join(data_dir, PIPELINE_FILE),
                  encoding="utf-8") as fh:
            pipeline = json.load(fh)
        db = cls(schema, [parse_statement(t) for t in pipeline["workload"]],
                 tuple(pipeline["roots"]), os.path.join(data_dir, WAL_FILE),
                 fsync, lock_timeout)
        try:
            db.store.load_snapshot(os.path.join(data_dir, SNAPSHOT_FILE))
            for name, idx in db.catalog.index_defs.items():
                db.store.rebuild_index(db.catalog.handle(name), idx.base)
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
