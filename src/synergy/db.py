"""Embeddable database: wires schema, pipeline, store, transactions, reads.

``Database.create`` runs the whole planning pipeline for a schema and
workload (graph, DAG, rooted trees, view selection, rewriting, index
recommendation); ``Database.open`` reads those artifacts back.  Both then
share one assembly, the constructor: it builds the catalog (one lock table
per rooted tree), creates every store table, and wires the WAL, the
transaction manager and the query engine.  One ``execute`` entry point
routes reads through the query engine and writes through the transaction
manager.

``save``/``open`` persist and restore the pipeline artifacts, a store
snapshot, and the WAL; opening replays unfinished transactions.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field

from . import oracle
from .engine import QueryEngine
from .schema import (BASE, INDEX, LOCK, LOCK_COLUMN, VIEW, Edge, IndexDef,
                     SchemaDef, baseline_transform, build_catalog,
                     build_schema_graph, index_from_dict, index_to_dict,
                     load_schema, save_schema)
from .sqlparse import (SelectJoin, Statement, WriteStatement, bind_params,
                       parse_statement, render_statement)
from .storage import DIRTY, Store, key_of
from .txn import TransactionManager, WriteAheadLog, read_wal, wal_high_water
from .viewgen import (GenerationResult, RootedTree, generate_candidate_views)
from .viewselect import (RewriteResult, ViewDef, recommend_maintenance_indexes,
                         recommend_view_indexes, rewrite_query,
                         rewrite_workload, select_views_for_query)

WAL_FILE = "wal.bin"
SNAPSHOT_FILE = "snapshot.bin"
SCHEMA_FILE = "schema.json"
PIPELINE_FILE = "pipeline.json"


def _tree_to_dict(tree: RootedTree) -> dict:
    return {"root": tree.root, "nodes": list(tree.nodes),
            "edges": [e.to_list() for e in tree.edges]}


def _tree_from_dict(doc: dict) -> RootedTree:
    return RootedTree(doc["root"], tuple(doc["nodes"]),
                      tuple(Edge.from_list(e) for e in doc["edges"]))


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
    def __init__(self, schema: SchemaDef, trees: list[RootedTree],
                 rewrite: RewriteResult, view_indexes: list[IndexDef],
                 maintenance_indexes: list[IndexDef], wal_path: str,
                 fsync: bool = False, lock_timeout: float = 10.0,
                 next_txn_id: int = 1,
                 generation: GenerationResult | None = None,
                 workload: list[Statement] | None = None,
                 tmp_dir: str | None = None):
        self.schema = schema
        self.views = rewrite.views
        self.trees = trees
        self.rewrite = rewrite
        self.view_indexes = view_indexes
        self.maintenance_indexes = maintenance_indexes
        self.catalog = build_catalog(
            schema, self.views, view_indexes + maintenance_indexes,
            [t.root for t in trees])
        self.store = Store()
        for handle in self.catalog.all_handles():
            self.store.create_table(handle)
        self.wal = WriteAheadLog(wal_path, fsync=fsync)
        self.txn = TransactionManager(self.store, self.catalog, self.views,
                                      trees, self.wal, next_txn_id=next_txn_id,
                                      lock_timeout=lock_timeout)
        self.engine = QueryEngine(self.store, self.catalog)
        self.generation = generation
        self.workload = workload or []
        self._views_by_path = {v.relations: v for v in self.views}
        self._tmp_dir = tmp_dir
        self.recovery = None

    # -- construction ---------------------------------------------------------

    @classmethod
    def create(cls, schema: SchemaDef, workload: list[Statement],
               roots: tuple[str, ...] | None = None,
               data_dir: str | None = None, fsync: bool = False,
               lock_timeout: float = 10.0) -> "Database":
        graph = build_schema_graph(schema)
        baseline = baseline_transform(schema, workload)
        generation = generate_candidate_views(graph, schema,
                                              baseline.statements, roots)
        rewrite = rewrite_workload(baseline.statements, generation.trees,
                                   schema)
        view_indexes = recommend_view_indexes(rewrite.statements,
                                              rewrite.views)
        maintenance_indexes = recommend_maintenance_indexes(
            rewrite.views, baseline.statements, schema, existing=view_indexes)
        tmp_dir = None
        if data_dir is None:
            data_dir = tmp_dir = tempfile.mkdtemp(prefix="synergy-")
        else:
            os.makedirs(data_dir, exist_ok=True)
        wal_path = os.path.join(data_dir, WAL_FILE)
        try:
            return cls(schema, list(generation.trees), rewrite, view_indexes,
                       maintenance_indexes, wal_path, fsync, lock_timeout,
                       next_txn_id=wal_high_water(read_wal(wal_path)) + 1,
                       generation=generation, workload=baseline.statements,
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
        chosen = [self._views_by_path[cv.relations]
                  for cv in select_views_for_query(stmt, self.trees)
                  if cv.relations in self._views_by_path]
        return rewrite_query(stmt, chosen)

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
        os.makedirs(data_dir, exist_ok=True)
        save_schema(self.schema, os.path.join(data_dir, SCHEMA_FILE))
        pipeline = {
            "roots": [t.root for t in self.trees],
            "trees": [_tree_to_dict(t) for t in self.trees],
            "views": [v.to_dict() for v in self.views],
            "view_indexes": [index_to_dict(i) for i in self.view_indexes],
            "maintenance_indexes": [index_to_dict(i)
                                    for i in self.maintenance_indexes],
            "workload": [render_statement(s) for s in self.workload],
            "rewritten": [render_statement(s)
                          for s in self.rewrite.statements],
        }
        with open(os.path.join(data_dir, PIPELINE_FILE), "w",
                  encoding="utf-8") as fh:
            json.dump(pipeline, fh, indent=2)
            fh.write("\n")
        self.store.save_snapshot(os.path.join(data_dir, SNAPSHOT_FILE))
        wal_dest = os.path.join(data_dir, WAL_FILE)
        if os.path.abspath(self.wal.path) != os.path.abspath(wal_dest):
            shutil.copyfile(self.wal.path, wal_dest)

    @classmethod
    def open(cls, data_dir: str, fsync: bool = False,
             lock_timeout: float = 10.0) -> "Database":
        schema = load_schema(os.path.join(data_dir, SCHEMA_FILE))
        with open(os.path.join(data_dir, PIPELINE_FILE),
                  encoding="utf-8") as fh:
            pipeline = json.load(fh)
        views = [ViewDef.from_dict(v) for v in pipeline["views"]]
        rewrite = RewriteResult(
            [parse_statement(t) for t in pipeline["rewritten"]], views, {})
        db = cls(schema, [_tree_from_dict(t) for t in pipeline["trees"]],
                 rewrite,
                 [index_from_dict(i) for i in pipeline["view_indexes"]],
                 [index_from_dict(i) for i in pipeline["maintenance_indexes"]],
                 os.path.join(data_dir, WAL_FILE), fsync, lock_timeout,
                 workload=[parse_statement(t) for t in pipeline["workload"]])
        snapshot = os.path.join(data_dir, SNAPSHOT_FILE)
        try:
            if os.path.exists(snapshot):
                db.store.load_snapshot(snapshot)
            db.recovery = db.txn.recover()
        except BaseException:
            db.close()
            raise
        return db
