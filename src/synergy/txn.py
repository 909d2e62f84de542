"""Transaction layer: root locks, write procedures, WAL durability.

Every write transaction holds at most one lock: the lock-table row of the
root relation covering its target (none when the relation is outside every
rooted tree).  One scope takes it and gives it up exactly when the WAL
resolves the write: on success and on a ``SynergyError`` (raised before any
mutation).  Any other exception, an injected crash included, leaves the
write unapplied or half-applied with its begin record pending, so the lock
stays held until recovery replays it; releasing it earlier would let a
later write commit and then be overwritten by that replay.  A delete of a
root row gives its lock up by deleting the lock row.

Every write runs six steps: lock; plan, which only reads; mark; apply;
un-mark; release.  A plan lists rows, each with its moves and the stored
row to mark, if any; one applier, ``_write``, runs steps 3 to 5 for every
kind.  A move takes a row of a base table or view from an old row to a
new one (or from or to no row): it writes each of its index rows, keyed
from the row and holding the row's own dict, then the row itself, and
deletes the old key of an index row whose key changed or went.  An
insert takes a new key (a row already there raises ``DuplicateKeyError``
while planned) and moves the base row, then each applicable view row; a
delete moves the view rows first and the base row last; an update moves
the base row, then each view row holding it, marked from step 3 to 5.
Readers seeing a mark re-scan, never using its cells.  So a marked row
whose keys all stay takes two writes: its new cells, marked (step 3),
then un-marked (5); one with a moving key takes three: its stored row
marked at each old key, then its new cells marked (4), then not (5).

Admission is ``schema.check_write`` alone, run before the begin record
and the lock: a write pins its relation's full key and assigns no key or
foreign-key attribute, and the write procedures check none of it again.

The WAL records (txn id, phase, statement text) with a begin before the
mutations and a commit after.  It reads its file once, when opened,
cutting a torn final record, then keeps the pending begins and the highest
id seen; each write's id is one past that high water.  ``quiesced`` is the
checkpoint gate: it holds the mutex every begin is written and counted
under, and waits, with no poll, until as many writes have ended (resolved
or held for recovery).  A write waiting on a held write's lock ends in
``LockTimeout``, so the wait ends within the lock timeout.  The checkpoint
then keeps only ``WriteAheadLog.compacted``: the pending begins and a
commit of the high-water id, from which an ``open`` resumes ids.
Recovery first frees every lock held at rest, each a crashed write's, then
admits each pending begin's statement by the same rule and re-executes
it; a statement refused or failing there is reported aborted.
Either way it gets its commit record.  Replay is idempotent at any crash
point because of the write order: a row is written after its index rows,
so until the row itself changes, a replay reads the old row and derives
the old index keys from it again (and indexes that ``open`` rebuilds from
the rows give the store as it was just before that row's move began); a
delete keeps the base row until its view rows are gone, so a replay
still finds it (one finding it gone is done: it takes no lock).  An
insert's replay accepts a row at its key that holds the insert's own
values.  An update's replay finds its base row already written once that
row carries every value it assigns; a filter on an assigned attribute
then tested the old value and holds.  That write order keeps a moving
row's replay idempotent; a row written twice holds its new cells,
marked, at its keys after step 3, from which a replay plans the same
cells and keys again.
"""

from __future__ import annotations

import contextlib
import functools
import operator
import os
import struct
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from .errors import (DuplicateKeyError, LockTimeout, OrphanError,
                     SynergyError, WalCorruptionError)
from .maintenance import (build_insert_view_tuple, key_values_from_filters,
                          parent_key, plan_update_rows)
from .schema import (BASE, INDEX, LOCK_COLUMN, LOCK_TABLE_PREFIX, VIEW,
                     StoreCatalog, check_write)
from .sqlparse import (COMPARE, Delete, Insert, Update, WriteStatement,
                       count_placeholders, parse_statement, render_statement)
from .storage import (ABSENT, DIRTY, Store, decode_text, encode_text,
                      key_encoder, key_of)
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


def _record(txn_id: int, phase: int, statement: str) -> bytes:
    payload = struct.pack(">QB", txn_id, phase) + encode_text(statement)
    return struct.pack(">I", len(payload)) + payload


class WriteAheadLog:
    """Append-only log of length-prefixed {txn id, phase, statement} records.

    The file is read once, here, for the begins still pending (id ->
    statement) and the highest id seen, which every append then updates;
    a torn final record is cut before anything is appended after it."""

    MAGIC = b"SYWAL1\n"

    def __init__(self, path, fsync: bool = False):
        self.path = path
        self.fsync = fsync
        self._lock = threading.Lock()
        records = read_wal(path)
        self._pending = {r.txn_id: r.statement
                         for r in pending_transactions(records)}
        self.high_water = wal_high_water(records)
        end = len(self.MAGIC) + sum(
            len(_record(r.txn_id, r.phase, r.statement)) for r in records)
        self._fh = open(path, "ab")
        if not self._fh.tell():
            self._fh.write(self.MAGIC)
        self._fh.truncate(end)           # flushes; cuts a torn final record
        if fsync:
            os.fsync(self._fh.fileno())

    def append(self, txn_id: int, phase: int, statement: str) -> None:
        record = _record(txn_id, phase, statement)
        with self._lock:
            self._fh.write(record)
            self._fh.flush()
            if self.fsync:
                os.fsync(self._fh.fileno())
            if phase == PHASE_BEGIN:
                self._pending[txn_id] = statement
            else:
                self._pending.pop(txn_id, None)
            if txn_id > self.high_water:
                self.high_water = txn_id

    def pending(self) -> list[tuple[int, str]]:
        """The begins still pending, as (id, statement) in id order."""
        with self._lock:
            return sorted(self._pending.items())

    def compacted(self) -> tuple[bytes, tuple[int, ...]]:
        """The log a checkpoint keeps, and the ids of its begins: the
        magic, every pending begin in id order, then a commit of the
        high-water id unless that id is pending, so that ids resume past
        it."""
        with self._lock:
            pending = dict(self._pending)
            high = self.high_water
        ids = tuple(sorted(pending))
        parts = [self.MAGIC] + [_record(i, PHASE_BEGIN, pending[i])
                                for i in ids]
        if high and high not in pending:
            parts.append(_record(high, PHASE_COMMIT, ""))
        return b"".join(parts), ids

    def replace_with(self, tmp_path) -> None:
        """Rename ``tmp_path`` over this log and append to it from now on."""
        with self._lock:
            self._fh.close()
            try:
                os.replace(tmp_path, self.path)
            finally:
                self._fh = open(self.path, "ab")

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

def _backoff_until(ready: Callable[[], bool], deadline: float) -> bool:
    """For a ``ready`` that did not hold: sleep with bounded exponential
    backoff and call it again until it holds; False once the monotonic
    ``deadline`` passes."""
    backoff = 0.00005
    while time.monotonic() < deadline:
        time.sleep(backoff)
        if ready():
            return True
        backoff = min(backoff * 2, 0.005)
    return False


class LockManager:
    """Root-key locks backed by per-root lock tables and check-and-put."""

    def __init__(self, store: Store, timeout: float = 10.0):
        self.store = store
        self.timeout = timeout

    def _table(self, root: str) -> str:
        return LOCK_TABLE_PREFIX + root

    def acquire(self, root: str, key: bytes) -> None:
        """Spin with bounded exponential backoff until the CAS lands; an
        absent lock row counts as free and is created held."""
        table = self._table(root)
        if self._take(table, key) or _backoff_until(
                functools.partial(self._take, table, key),
                time.monotonic() + self.timeout):
            return
        raise LockTimeout(f"lock on {root} not acquired "
                          f"within {self.timeout}s")

    def _take(self, table: str, key: bytes) -> bool:
        cas = self.store.check_and_put
        return (cas(table, key, LOCK_COLUMN, False, True)
                or cas(table, key, LOCK_COLUMN, ABSENT, True))

    def free_all(self, roots) -> None:
        """Recovery path: release every lock held on these roots."""
        for root in roots:
            for key, cells in self.store.scan(self._table(root)):
                if cells.get(LOCK_COLUMN):
                    self.release(root, key)

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
        self.locks = LockManager(store, lock_timeout)
        self._begin_mutex = threading.Lock()    # guards _begun
        self._settled = threading.Condition()   # guards _ended
        self._begun = self._ended = 0    # writes begun; resolved or held
        self.crash_after_step: int | None = None

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
        # resolved once per table: a write's moves look both up per row;
        # each index handle comes with the getter of its key values
        self._index_handles: dict[str, list[tuple]] = {}
        self._count_slot: dict[str, int] = {}
        counted = {BASE: 0, VIEW: 1, INDEX: 2}   # TxnResult's count order
        for handle in catalog.all_handles():
            self._index_handles[handle.name] = [
                (ih, operator.itemgetter(*ih.key_attrs))
                for ih in catalog.indexes_of(handle.name)]
            self._count_slot[handle.name] = counted.get(handle.kind)

    # -- root resolution ---------------------------------------------------

    def _row_key(self, stmt) -> bytes:
        """Key of the written row in its base table: from an insert's
        values, from a delete's or update's key filters."""
        handle = self.catalog.handle(stmt.relation)
        if isinstance(stmt, Insert):
            return key_of(handle, stmt.value_map)
        rel = self.schema.relation(stmt.relation)
        return key_encoder(handle.key_types)(
            key_values_from_filters(stmt, rel.primary_key))

    def resolve_root(self, stmt,
                     replay: bool = False) -> tuple[str, bytes] | None:
        """Root relation and encoded root key covering this write, or None
        when the relation is in no rooted tree, an insert's ancestor chain
        is broken (then no view row can exist either) or, in a ``replay``,
        a delete's row is gone (its crashed pass finished it); a delete or
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
        if row is None and replay and isinstance(stmt, Delete):
            return None
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
        # taking the next id and writing its begin must land in one order
        with self._begin_mutex:
            txn_id = self.wal.high_water + 1
            self.wal.append(txn_id, PHASE_BEGIN, text)
            self._begun += 1
        try:
            result = self._run(stmt, txn_id)
        except SynergyError:
            # failed before any mutation: resolve it in the log
            self.wal.append(txn_id, PHASE_COMMIT, "")
            raise
        else:
            self.wal.append(txn_id, PHASE_COMMIT, "")
        finally:
            # resolved or held for recovery; the lock is _run's to keep
            with self._settled:
                self._ended += 1
                self._settled.notify_all()
        return result

    @contextlib.contextmanager
    def quiesced(self):
        """The checkpoint gate: admit no begin record, wait until no write
        is in flight, and yield the seconds waited."""
        with self._begin_mutex:
            start = time.monotonic()
            with self._settled:
                self._settled.wait_for(lambda: self._ended == self._begun)
            yield time.monotonic() - start

    def _run(self, stmt, txn_id: int, replay: bool = False) -> TxnResult:
        """The one lock scope of every write, and the one place its crash
        hooks fire: step 1 once the lock is taken, step 2 once the write
        is planned, steps 3 to 5 in ``_write``, step 6 once the lock is let
        go (``replay``: an insert or update accepts the base row its
        crashed pass wrote, a delete the row it deleted)."""
        if isinstance(stmt, Insert):
            kind, planner = "insert", self._insert
        elif isinstance(stmt, Delete):
            kind, planner = "delete", self._delete
        else:
            kind, planner = "update", self._update
        result = TxnResult(txn_id, kind, stmt.relation)
        target = self.resolve_root(stmt, replay)
        if target is None:
            # in a tree yet unresolved: an insert's broken chain, or done
            result.orphan = stmt.relation in self._chain
        else:
            self.locks.acquire(*target)
            result.root = target[0]
            result.locks_acquired = 1
        self._crash(1)
        try:
            plan = planner(stmt, replay)
        except SynergyError:
            # refused before any mutation: the log resolves it, so let go
            self._let_go(stmt, target)
            raise
        self._crash(2)
        # any other exception (an injected crash included) leaves the write
        # unapplied or half-applied and its begin record pending: the lock
        # stays held until recovery replays it, so no later write on this
        # root can commit before that replay and be overwritten by it
        self._write(plan, result)
        self._let_go(stmt, target)
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

    def _crash(self, step: int) -> None:
        if self.crash_after_step == step:
            self.crash_after_step = None
            raise CrashInjected(f"crash injected after step {step}")

    # -- row moves ----------------------------------------------------------------

    def _moves(self, table: str, key: bytes, old: dict | None,
               new: dict | None) -> list[tuple]:
        """The writes that take the row of ``table`` at ``key`` from ``old``
        to ``new`` (None: no row), each as (table, old key, new key, new
        cells), a key None on a side without a row: first one per index
        row, keyed from the row and holding the row itself, then the row.
        An index row whose key values the move leaves as they were keeps
        its old key, which is not encoded again."""
        moves = []
        for ih, key_values in self._index_handles[table]:
            old_key = None if old is None else key_of(ih, old)
            if new is None:
                new_key = None
            elif old_key is not None and _agree(key_values, old, new):
                new_key = old_key
            else:
                new_key = key_of(ih, new)
            if new_key is not None:
                moves.append((ih.name, old_key, new_key, new))
            elif old_key is not None:
                moves.append((ih.name, old_key, None, None))
        moves.append((table, None if old is None else key,
                      None if new is None else key, new))
        return moves

    def _write(self, plan: list[tuple], result: TxnResult) -> None:
        """Steps 3 to 5 of any write, for each (stored row to mark or None,
        moves) of ``plan``: mark the stored row at each old key of its
        moves (a replay derives the old index keys from it), or where no
        key moves put the new row marked, finished but for step 5; put each
        other new row, marked where its row was, then delete its old key if
        the row moved or went, in plan order; un-mark."""
        counts = [0, 0, 0]
        slot, put = self._count_slot, self.store.put
        staged = []
        for marked, moves in plan:
            if marked is not None and all(o == n for _, o, n, _ in moves):
                dirty = {**moves[-1][3], DIRTY: True}
                for table, key, _, _ in moves:
                    put(table, key, dirty)
                    counts[slot[table]] += 1
                continue
            staged.append((marked, moves))
            if marked is not None:
                dirty = {**marked, DIRTY: True}
                for table, old_key, _, _ in moves:
                    if old_key is not None:
                        put(table, old_key, dirty)
        self._crash(3)
        for marked, moves in staged:
            for table, old_key, new_key, cells in moves:
                touched = new_key is not None
                if touched:
                    put(table, new_key, cells if marked is None
                        else {**cells, DIRTY: True})
                if old_key is not None and old_key != new_key:
                    touched = self.store.delete(table, old_key) or touched
                if touched:
                    counts[slot[table]] += 1
        self._crash(4)
        for marked, moves in plan:
            if marked is not None:
                for table, _, new_key, cells in moves:
                    if new_key is not None:
                        put(table, new_key, cells)
        self._crash(5)
        result.base_rows, result.view_rows, result.index_rows = counts

    # -- planners: each only reads, and returns its write's plan -------------

    def _insert(self, stmt: Insert, replay: bool) -> list[tuple]:
        """The base row, then each view row.  An insert takes a new key
        (``replay``: or one holding the insert's own values, its crashed
        pass's write)."""
        values = stmt.value_map
        base_key = self._row_key(stmt)
        old = self.store.get(stmt.relation, base_key)
        if old is not None and not (replay and old == values):
            key = {a: values[a]
                   for a in self.catalog.handle(stmt.relation).key_attrs}
            raise DuplicateKeyError(f"{stmt.relation} already holds key {key}")
        plan = [(None, self._moves(stmt.relation, base_key, None, values))]
        for view in self._views_last.get(stmt.relation, ()):
            built = build_insert_view_tuple(view, stmt, self.store,
                                            self.catalog)
            if built is not None:
                vkey, cells = built
                plan.append((None, self._moves(view.name, vkey, None, cells)))
        return plan

    def _delete(self, stmt: Delete, replay: bool) -> list[tuple]:
        """The view rows, then the base row the delete matches, last, so
        that a replay still finds it."""
        base_key = self._row_key(stmt)
        old = self.store.get(stmt.relation, base_key)
        if old is None or not _row_matches(old, stmt.filters):
            return []
        plan = []
        for view in self._views_last.get(stmt.relation, ()):
            vkey = key_of(self.catalog.handle(view.name), old)
            plan.append((None, self._moves(
                view.name, vkey, self.store.get(view.name, vkey), None)))
        plan.append((None, self._moves(stmt.relation, base_key, old, None)))
        return plan

    def _update(self, stmt: Update, replay: bool) -> list[tuple]:
        """The base row, then each view row holding it, marked while it
        changes."""
        base_key = self._row_key(stmt)
        old = self.store.get(stmt.relation, base_key)
        filters = stmt.filters
        if replay and old is not None and all(
                old.get(a) == v for a, v in stmt.assignments):
            # the crashed pass may have written the base row: a filter on
            # an assigned attribute tested the old value, so it holds
            assigned = {a for a, _ in stmt.assignments}
            filters = [f for f in filters if f.ref.name not in assigned]
        if old is None or not _row_matches(old, filters):
            return []
        new = dict(old)
        new.update(stmt.assignments)
        plan = [(None, self._moves(stmt.relation, base_key, old, new))]
        for view in self._views_containing.get(stmt.relation, ()):
            rows = plan_update_rows(view, stmt, self.store, self.catalog).rows
            plan += [(vold, self._moves(view.name, vkey, vold, vnew))
                     for vkey, vold, vnew in rows]
        return plan

    # -- recovery ------------------------------------------------------------------

    def recover(self) -> RecoveryReport:
        """Free every lock held at rest, then re-execute every begin the
        log holds pending, in id order, from its statement; runs before
        serving traffic.  At rest each held lock is a crashed write's, and
        that write is pending, so its replay takes the lock again, or is
        aborted, its lock free either way."""
        self.locks.free_all(dict.fromkeys(r for r, _ in self._chain.values()))
        report = RecoveryReport()
        for txn_id, text in self.wal.pending():
            stmt = parse_statement(text)
            try:
                check_write(self.schema, stmt)
                self._run(stmt, txn_id, replay=True)
                report.replayed.append((txn_id, text))
            except SynergyError as exc:
                report.aborted.append((txn_id, text, str(exc)))
            self.wal.append(txn_id, PHASE_COMMIT, "")
        return report


def _agree(key_values: Callable, old: dict, new: dict) -> bool:
    """Whether ``new`` holds every value ``key_values`` takes from
    ``old``, each equal: then both rows have the same index key."""
    try:
        return key_values(new) == key_values(old)
    except KeyError:
        return False


def _row_matches(row: dict, filters) -> bool:
    for f in filters:
        value = row.get(f.ref.name)
        if value is None or not COMPARE[f.op](value, f.value):
            return False
    return True
