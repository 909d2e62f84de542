"""Transaction layer: root locks, write procedures, WAL durability.

Every write transaction holds at most one lock: the lock-table row of the
root relation covering its target (none when the relation is outside every
rooted tree).  One scope takes it and gives it up exactly when the WAL
resolves the write: on success and on a ``SynergyError`` (raised before any
mutation).  Any other exception, an injected crash included, leaves the
write half-applied with its begin record pending, so the lock stays held
until recovery replays it; releasing it earlier would let a later write
commit and then be overwritten by that replay.  A delete of a root row
gives its lock up by deleting the lock row.

Every write changes rows by one move rule: a row of a base table or view
going from an old row to a new one (or from or to no row) writes each of
its index rows, keyed and projected from the row, and then the row itself;
an index row whose key changed or went has its old key deleted.  Inserts
move the base row, then each applicable view row; deletes move the view
rows first and the base row last.  Updates run the six-step procedure:
lock, read, mark, update, un-mark, release; readers seeing a marked row
re-scan.

Admission is ``schema.check_write`` alone, run before the begin record
and the lock: a write pins its relation's full key and assigns no key or
foreign-key attribute, and the write procedures check none of it again.

The WAL records (txn id, phase, statement text) with a begin before the
mutations and a commit after.  Recovery admits each logged statement by
the same rule, then re-executes every begin without a commit; a
statement refused or failing there is reported aborted.  Either way it
gets its commit record.  Replay is idempotent at any crash point because
of the write order: a row is written after its index rows, so until the
row itself changes, a replay reads the old row and derives the old index
keys from it again; a delete keeps the base row until its view rows are
gone, so a replay still finds it.  An update's replay finds its base row
already written once that row carries every value it assigns; a filter on
an assigned attribute then tested the old value and holds.
"""

from __future__ import annotations

import functools
import itertools
import os
import struct
import threading
import time
from dataclasses import dataclass, field

from .errors import LockTimeout, OrphanError, SynergyError, WalCorruptionError
from .maintenance import (build_insert_view_tuple, key_values_from_filters,
                          parent_key, plan_update_rows)
from .schema import (BASE, INDEX, LOCK_COLUMN, VIEW, StoreCatalog,
                     TableHandle, check_write)
from .sqlparse import (COMPARE, Delete, Insert, Update, WriteStatement,
                       count_placeholders, parse_statement, render_statement)
from .storage import (ABSENT, DIRTY, Store, decode_text, encode_key,
                      encode_text, key_of)
from .viewgen import RootedTree
from .viewselect import ViewDef

PHASE_BEGIN = 0
PHASE_COMMIT = 1


class CrashInjected(Exception):
    """Raised by the test-only crash hook; leaves the transaction mid-way."""


@dataclass(frozen=True)
class WalRecord:
    txn_id: int
    phase: int
    statement: str


class WriteAheadLog:
    """Append-only log of length-prefixed {txn id, phase, statement} records."""

    MAGIC = b"SYWAL1\n"

    def __init__(self, path, fsync: bool = False):
        self.path = path
        self.fsync = fsync
        self._lock = threading.Lock()
        exists = os.path.exists(path) and os.path.getsize(path) > 0
        self._fh = open(path, "ab")
        if not exists:
            self._fh.write(self.MAGIC)
            self._fh.flush()

    def append(self, txn_id: int, phase: int, statement: str) -> None:
        payload = struct.pack(">QB", txn_id, phase) + encode_text(statement)
        record = struct.pack(">I", len(payload)) + payload
        with self._lock:
            self._fh.write(record)
            self._fh.flush()
            if self.fsync:
                os.fsync(self._fh.fileno())

    def close(self) -> None:
        self._fh.close()


def read_wal(path) -> list[WalRecord]:
    """Parse the log; a torn final record is treated as the end of the log,
    structural damage raises WalCorruptionError."""
    if not os.path.exists(path):
        return []
    with open(path, "rb") as fh:
        data = fh.read()
    if not data:
        return []
    if not data.startswith(WriteAheadLog.MAGIC):
        raise WalCorruptionError("bad WAL header")
    records: list[WalRecord] = []
    pos = len(WriteAheadLog.MAGIC)
    last_begin = 0
    while pos < len(data):
        if pos + 4 > len(data):
            break                     # torn length prefix
        (n,) = struct.unpack_from(">I", data, pos)
        if pos + 4 + n > len(data):
            break                     # torn payload
        payload = data[pos + 4:pos + 4 + n]
        pos += 4 + n
        if n < 9:
            raise WalCorruptionError("record too short")
        txn_id, phase = struct.unpack_from(">QB", payload)
        if phase not in (PHASE_BEGIN, PHASE_COMMIT):
            raise WalCorruptionError(f"bad phase {phase}")
        if phase == PHASE_BEGIN:
            if txn_id <= last_begin:
                raise WalCorruptionError(
                    f"transaction ids not increasing at {txn_id}")
            last_begin = txn_id
        records.append(WalRecord(txn_id, phase, decode_text(payload[9:])))
    return records


def wal_high_water(records: list[WalRecord]) -> int:
    return max((r.txn_id for r in records), default=0)


def pending_transactions(records: list[WalRecord]) -> list[WalRecord]:
    committed = {r.txn_id for r in records if r.phase == PHASE_COMMIT}
    return [r for r in records
            if r.phase == PHASE_BEGIN and r.txn_id not in committed]


# -- locks ---------------------------------------------------------------------

class LockManager:
    """Root-key locks backed by per-root lock tables and check-and-put."""

    def __init__(self, store: Store, catalog: StoreCatalog,
                 timeout: float = 10.0):
        self.store = store
        self.catalog = catalog
        self.timeout = timeout

    def _table(self, root: str) -> str:
        return self.catalog.lock_table_for(root)

    def acquire(self, root: str, key: bytes) -> None:
        """Spin with bounded exponential backoff until the CAS lands; an
        absent lock row counts as free and is created held."""
        table = self._table(root)
        deadline = time.monotonic() + self.timeout
        backoff = 0.00005
        while True:
            if self.store.check_and_put(table, key, LOCK_COLUMN, False, True):
                return
            if self.store.check_and_put(table, key, LOCK_COLUMN, ABSENT, True):
                return
            if time.monotonic() >= deadline:
                raise LockTimeout(f"lock on {root} not acquired "
                                  f"within {self.timeout}s")
            time.sleep(backoff)
            backoff = min(backoff * 2, 0.005)

    def force_acquire(self, root: str, key: bytes) -> None:
        """Recovery path: take ownership regardless of the recorded state."""
        self.store.put(self._table(root), key, {LOCK_COLUMN: True})

    def release(self, root: str, key: bytes) -> None:
        table = self._table(root)
        if self.store.check_and_put(table, key, LOCK_COLUMN, True, False):
            return
        raise SynergyError(f"released a lock not held on {root}")

    def remove(self, root: str, key: bytes) -> None:
        self.store.delete(self._table(root), key)

    def held(self, root: str, key: bytes) -> bool:
        row = self.store.get(self._table(root), key)
        return bool(row and row.get(LOCK_COLUMN))


# -- transactions ----------------------------------------------------------------

@dataclass
class TxnResult:
    """A write's outcome.  ``base_rows``, ``view_rows`` and ``index_rows``
    count each row of that kind of table once when the write put it, or
    deleted it without a replacement."""
    txn_id: int
    kind: str
    relation: str
    root: str | None = None
    locks_acquired: int = 0
    base_rows: int = 0
    view_rows: int = 0
    index_rows: int = 0
    orphan: bool = False


@dataclass
class RecoveryReport:
    replayed: list[tuple[int, str]] = field(default_factory=list)
    aborted: list[tuple[int, str, str]] = field(default_factory=list)


class TransactionManager:
    """Thread-safe write entry point; transactions serialize per root key."""

    def __init__(self, store: Store, catalog: StoreCatalog,
                 views: list[ViewDef], trees: list[RootedTree],
                 wal: WriteAheadLog, lock_timeout: float = 10.0):
        self.store = store
        self.catalog = catalog
        self.schema = catalog.schema
        self.views = views
        self.wal = wal
        self.locks = LockManager(store, catalog, lock_timeout)
        self._ids = itertools.count(1)   # recover() continues a saved log
        self._begin_mutex = threading.Lock()
        self.crash_after_update_step: int | None = None

        self._chain: dict[str, tuple[str, tuple]] = {}
        for tree in trees:
            for node in tree.nodes:
                path = tree.path_from_root(node)
                edges = tuple(tree.parent_edge(n) for n in path[1:])
                self._chain[node] = (tree.root, edges)
        self._views_last: dict[str, list[ViewDef]] = {}
        self._views_containing: dict[str, list[ViewDef]] = {}
        for view in views:
            self._views_last.setdefault(view.last, []).append(view)
            for rel_name in view.relations:
                self._views_containing.setdefault(rel_name, []).append(view)
        # resolved once per table: a write's moves look both up per row
        self._index_handles: dict[str, list[TableHandle]] = {}
        self._count_field: dict[str, str] = {}
        counted = {BASE: "base_rows", VIEW: "view_rows", INDEX: "index_rows"}
        for handle in catalog.all_handles():
            self._index_handles[handle.name] = [
                catalog.handle(idx.name)
                for idx in catalog.indexes_of(handle.name)]
            self._count_field[handle.name] = counted.get(handle.kind)

    # -- root resolution ---------------------------------------------------

    def _row_key(self, stmt) -> bytes:
        """Key of the written row in its base table: from an insert's
        values, from a delete's or update's key filters."""
        handle = self.catalog.handle(stmt.relation)
        if isinstance(stmt, Insert):
            return key_of(handle, stmt.value_map)
        rel = self.schema.relation(stmt.relation)
        return encode_key(key_values_from_filters(stmt, rel.primary_key),
                          handle.key_types)

    def resolve_root(self, stmt) -> tuple[str, bytes] | None:
        """Root relation and encoded root key covering this write, or None
        when the relation is in no rooted tree or an insert's ancestor
        chain is broken (then no view row can exist either); a delete or
        update with a broken chain raises OrphanError.  The walk reads every
        ancestor below the root, never the root row."""
        chain = self._chain.get(stmt.relation)
        if chain is None:
            return None
        root, edges = chain
        if not edges:
            return root, self._row_key(stmt)
        row = (stmt.value_map if isinstance(stmt, Insert)
               else self.store.get(stmt.relation, self._row_key(stmt)))
        for edge in reversed(edges):
            key = None if row is None else parent_key(edge, row, self.catalog)
            if key is None or edge is edges[0]:
                break
            row = self.store.get(edge.src, key)
        if key is not None:
            return root, key
        if isinstance(stmt, Insert):
            return None
        raise OrphanError(f"{edge.dst} row is absent or lacks foreign key "
                          f"{edge.fk_name}")

    # -- entry point ----------------------------------------------------------

    def execute_write(self, stmt) -> TxnResult:
        if not isinstance(stmt, WriteStatement):
            raise ValueError(f"not a write statement: {stmt!r}")
        if count_placeholders(stmt):
            raise ValueError("bind parameters before executing")
        # admission runs before the begin record and the root lock: a
        # refused statement leaves neither behind
        check_write(self.schema, stmt)
        text = render_statement(stmt)
        # id assignment and the begin record must land in the same order
        with self._begin_mutex:
            txn_id = next(self._ids)
            self.wal.append(txn_id, PHASE_BEGIN, text)
        try:
            result = self._run(stmt, txn_id)
        except SynergyError:
            # failed before any mutation: resolve it in the log
            self.wal.append(txn_id, PHASE_COMMIT, "")
            raise
        self.wal.append(txn_id, PHASE_COMMIT, "")
        return result

    def _run(self, stmt, txn_id: int, replay: bool = False) -> TxnResult:
        """The one lock scope of every write (``replay``: recovery takes
        the lock whatever its state, and an update accepts the base row its
        crashed pass wrote)."""
        if isinstance(stmt, Insert):
            kind, body = "insert", self._insert
        elif isinstance(stmt, Delete):
            kind, body = "delete", self._delete
        else:
            kind, body = "update", functools.partial(self._update,
                                                     replay=replay)
        result = TxnResult(txn_id, kind, stmt.relation)
        target = self.resolve_root(stmt)
        if target is None:
            # in a tree yet unresolved: an insert with a broken chain
            result.orphan = stmt.relation in self._chain
        else:
            root, root_key = target
            if replay:
                self.locks.force_acquire(root, root_key)
            else:
                self.locks.acquire(root, root_key)
            result.root = root
            result.locks_acquired = 1
        try:
            body(stmt, result)
        except SynergyError:
            # refused before any mutation: the log resolves it, so let go
            self._let_go(stmt, target)
            raise
        # any other exception (an injected crash included) leaves the write
        # half-applied and its begin record pending: the lock stays held
        # until recovery replays it, so no later write on this root can
        # commit before that replay and be overwritten by it
        self._let_go(stmt, target)
        if kind == "update":
            self._crash(6)
        return result

    def _let_go(self, stmt, target: tuple[str, bytes] | None) -> None:
        if target is None:
            return
        root, root_key = target
        if isinstance(stmt, Delete) and stmt.relation == root:
            # deleting the lock row frees it in one store call; a release
            # first would let a waiter take a doomed row
            self.locks.remove(root, root_key)
        else:
            self.locks.release(root, root_key)

    # -- row moves ----------------------------------------------------------------

    def _moves(self, table: str, key: bytes, old: dict | None,
               new: dict | None) -> list[tuple]:
        """The writes that take the row of ``table`` at ``key`` from ``old``
        to ``new`` (None: no row), each as (table, old key, new key, new
        cells), a key None on a side without a row: first one per index
        row, keyed and projected from the row, then the row itself."""
        moves = []
        for ih in self._index_handles[table]:
            old_key = None if old is None else key_of(ih, old)
            new_key = None if new is None else key_of(ih, new)
            if new_key is not None:
                moves.append((ih.name, old_key, new_key,
                              {a: new[a] for a in ih.columns if a in new}))
            elif old_key is not None:
                moves.append((ih.name, old_key, None, None))
        moves.append((table, None if old is None else key,
                      None if new is None else key, new))
        return moves

    def _apply(self, moves: list[tuple], result: TxnResult,
               staged: bool = False) -> None:
        """Put each move's new row (marked when ``staged``), then delete its
        old key if the row moved or went, in list order."""
        for table, old_key, new_key, cells in moves:
            touched = new_key is not None
            if touched:
                self.store.put(table, new_key,
                               {**cells, DIRTY: True} if staged else cells)
            if old_key is not None and old_key != new_key:
                touched = self.store.delete(table, old_key) or touched
            if touched:
                field_name = self._count_field[table]
                setattr(result, field_name,
                        getattr(result, field_name) + 1)

    # -- insert -----------------------------------------------------------------

    def _insert(self, stmt: Insert, result: TxnResult) -> None:
        values = stmt.value_map
        base_key = self._row_key(stmt)
        # overwriting an existing row moves its index rows; a view row can
        # only exist while its base row does
        old = self.store.get(stmt.relation, base_key)
        self._apply(self._moves(stmt.relation, base_key, old, values), result)
        for view in self._views_last.get(stmt.relation, ()):
            built = build_insert_view_tuple(view, stmt, self.store,
                                            self.catalog)
            vkey, cells = built or (
                key_of(self.catalog.handle(view.name), values), None)
            old_view = None if old is None else self.store.get(view.name, vkey)
            self._apply(self._moves(view.name, vkey, old_view, cells), result)

    # -- delete -----------------------------------------------------------------

    def _delete(self, stmt: Delete, result: TxnResult) -> None:
        base_key = self._row_key(stmt)
        old = self.store.get(stmt.relation, base_key)
        if old is None or not _row_matches(old, stmt.filters):
            return
        # views first so a replay still sees the base row
        for view in self._views_last.get(stmt.relation, ()):
            vkey = key_of(self.catalog.handle(view.name), old)
            self._apply(self._moves(view.name, vkey,
                                    self.store.get(view.name, vkey), None),
                        result)
        self._apply(self._moves(stmt.relation, base_key, old, None), result)

    # -- update (six steps) --------------------------------------------------------

    def _crash(self, step: int) -> None:
        if self.crash_after_update_step == step:
            self.crash_after_update_step = None
            raise CrashInjected(f"crash injected after update step {step}")

    def _update(self, stmt: Update, result: TxnResult, replay: bool) -> None:
        """Steps 2 to 5; ``_run`` takes the lock (step 1) and gives it up
        (step 6)."""
        self._crash(1)

        # step 2: read every row to be updated
        base_key = self._row_key(stmt)
        base_old = self.store.get(stmt.relation, base_key)
        filters = stmt.filters
        if replay and base_old is not None and all(
                base_old.get(a) == v for a, v in stmt.assignments):
            # the crashed pass may have written the base row: a filter on
            # an assigned attribute tested the old value, so it holds
            assigned = {a for a, _ in stmt.assignments}
            filters = [f for f in filters if f.ref.name not in assigned]
        base_moves, view_rows = [], []
        if base_old is not None and _row_matches(base_old, filters):
            new_base = dict(base_old)
            new_base.update(stmt.assignments)
            base_moves = self._moves(stmt.relation, base_key, base_old,
                                     new_base)
            for view in self._views_containing.get(stmt.relation, ()):
                plan = plan_update_rows(view, stmt, self.store, self.catalog)
                view_rows += [(old, self._moves(view.name, vkey, old, new))
                              for vkey, old, new in plan.rows]
        self._crash(2)

        # step 3: mark every view and view-index row to be updated, each at
        # its old key with the old view row's cells: a replay derives the
        # old index keys from the view row, and readers re-scan on any mark
        # until step 4 overwrites or deletes it
        for old, moves in view_rows:
            for table, old_key, _, _ in moves:
                if old_key is not None:
                    self.store.put(table, old_key, {**old, DIRTY: True})
        self._crash(3)

        # step 4: apply the updates (marks stay on until step 5)
        self._apply(base_moves, result)
        for _, moves in view_rows:
            self._apply(moves, result, staged=True)
        self._crash(4)

        # step 5: un-mark everything written
        for _, moves in view_rows:
            for table, _, new_key, cells in moves:
                if new_key is not None:
                    self.store.put(table, new_key, cells)
        self._crash(5)

    # -- recovery ------------------------------------------------------------------

    def recover(self) -> RecoveryReport:
        """Re-execute every begin-without-commit transaction from its logged
        statement, then release its lock; runs before serving traffic."""
        records = read_wal(self.wal.path)
        report = RecoveryReport()
        self._ids = itertools.count(wal_high_water(records) + 1)
        for record in pending_transactions(records):
            stmt = parse_statement(record.statement)
            try:
                check_write(self.schema, stmt)
                self._run(stmt, record.txn_id, replay=True)
                report.replayed.append((record.txn_id, record.statement))
            except SynergyError as exc:
                report.aborted.append(
                    (record.txn_id, record.statement, str(exc)))
            self.wal.append(record.txn_id, PHASE_COMMIT, "")
        return report


def _row_matches(row: dict, filters) -> bool:
    for f in filters:
        value = row.get(f.ref.name)
        if value is None or not COMPARE[f.op](value, f.value):
            return False
    return True
