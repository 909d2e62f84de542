import collections
import hashlib
import os
import sys
import threading
import time

import pytest

from synergy import storage
from synergy.db import Database
from synergy.errors import (DuplicateKeyError, LockTimeout, OrphanError,
                            SchemaError, UnsupportedUpdate,
                            WalCorruptionError)
from synergy.fixtures import (company_schema, company_workload,
                              mixed_statements, populate_company,
                              populate_tpcw_micro, tpcw_micro_schema,
                              tpcw_micro_workload)
from synergy.schema import LOCK_COLUMN, IndexDef
from synergy.sqlparse import parse_statement
from synergy.storage import DIRTY, encode_key
from synergy.txn import (CrashInjected, PHASE_BEGIN, PHASE_COMMIT,
                         TransactionManager, WriteAheadLog,
                         pending_transactions, read_wal, wal_high_water)


@pytest.fixture()
def db(tmp_path):
    database = Database.create(tpcw_micro_schema(), tpcw_micro_workload(),
                               data_dir=str(tmp_path / "data"))
    yield database
    database.close()


def seed_rows(db, customers=2, orders=2, lines=2):
    oid = lid = 0
    for c in range(1, customers + 1):
        db.execute(f"INSERT INTO Customer (C_ID, C_UNAME, C_BALANCE) "
                   f"VALUES ({c}, 'u{c}', 0)")
        for _ in range(orders):
            oid += 1
            db.execute(f"INSERT INTO Order (O_ID, O_C_ID, O_STATUS, O_TOTAL)"
                       f" VALUES ({oid}, {c}, 's', 5)")
            for _ in range(lines):
                lid += 1
                db.execute(f"INSERT INTO Order_line (OL_ID, OL_O_ID, "
                           f"OL_I_ID, OL_QTY) VALUES ({lid}, {oid}, 1, 1)")
    return oid, lid


def key_of(value):
    return encode_key((value,), ("int",))


# -- root resolution ----------------------------------------------------------------

def test_resolve_root_walks_fk_chain(db):
    seed_rows(db)
    stmt = parse_statement("INSERT INTO Order_line (OL_ID, OL_O_ID, OL_I_ID,"
                           " OL_QTY) VALUES (99, 3, 1, 1)")
    root, key = db.txn.resolve_root(stmt)
    assert root == "Customer"
    assert key == key_of(2)          # order 3 belongs to customer 2


def test_resolve_root_for_root_insert_is_own_key(db):
    stmt = parse_statement("INSERT INTO Customer (C_ID, C_UNAME, C_BALANCE) "
                           "VALUES (42, 'x', 0)")
    assert db.txn.resolve_root(stmt) == ("Customer", key_of(42))


def test_resolve_root_outside_trees_is_none(db):
    stmt = parse_statement("INSERT INTO Country (CO_ID, CO_NAME) "
                           "VALUES (1, 'n')")
    assert db.txn.resolve_root(stmt) is None


def test_resolve_root_orphan_delete_raises(db):
    with pytest.raises(OrphanError):
        db.txn.resolve_root(parse_statement(
            "DELETE FROM Order_line WHERE OL_ID = 12345"))
    # stored lines whose walk breaks one step up: the Order is absent, or
    # the line has no OL_O_ID at all
    db.execute("INSERT INTO Order_line (OL_ID, OL_O_ID, OL_I_ID, OL_QTY) "
               "VALUES (7, 999, 1, 1)")
    db.execute("INSERT INTO Order_line (OL_ID, OL_I_ID, OL_QTY) "
               "VALUES (8, 1, 1)")
    for line in (7, 8):
        for text in (f"DELETE FROM Order_line WHERE OL_ID = {line}",
                     f"UPDATE Order_line SET OL_QTY = 2 WHERE OL_ID = {line}"):
            with pytest.raises(OrphanError):
                db.txn.resolve_root(parse_statement(text))


def test_orphan_insert_takes_no_lock_and_writes_base_only(db):
    result = db.execute("INSERT INTO Order_line (OL_ID, OL_O_ID, OL_I_ID, "
                        "OL_QTY) VALUES (7, 999, 1, 1)")
    assert result.orphan is True
    assert result.locks_acquired == 0
    assert result.base_rows == 1
    assert result.view_rows == 0


# -- lock manager -----------------------------------------------------------------------

def test_lock_acquire_release_cycle(db):
    locks = db.txn.locks
    locks.acquire("Customer", key_of(1))
    assert locks.held("Customer", key_of(1)) is True
    locks.release("Customer", key_of(1))
    assert locks.held("Customer", key_of(1)) is False


def test_blocked_acquirer_proceeds_after_release(db):
    locks = db.txn.locks
    locks.acquire("Customer", key_of(1))
    acquired = threading.Event()

    def waiter():
        locks.acquire("Customer", key_of(1))
        acquired.set()

    t = threading.Thread(target=waiter)
    t.start()
    time.sleep(0.05)
    assert not acquired.is_set()
    locks.release("Customer", key_of(1))
    t.join(timeout=5)
    assert acquired.is_set()


def test_contended_lock_is_mutually_exclusive(db):
    locks = db.txn.locks
    holders = []
    errors = []

    def worker():
        for _ in range(20):
            locks.acquire("Customer", key_of(9))
            holders.append(1)
            if len(holders) > 1:
                errors.append("two holders")
            holders.pop()
            locks.release("Customer", key_of(9))

    threads = [threading.Thread(target=worker) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []


def test_lock_timeout(tmp_path):
    database = Database.create(tpcw_micro_schema(), tpcw_micro_workload(),
                               data_dir=str(tmp_path / "t"),
                               lock_timeout=0.1)
    try:
        database.txn.locks.acquire("Customer", key_of(1))
        with pytest.raises(LockTimeout):
            database.txn.locks.acquire("Customer", key_of(1))
    finally:
        database.close()


# -- write procedures ----------------------------------------------------------------------

#: per fixture, each step with its store writes' count and the first 16
#: hex digits of the sha256 of their reprs, one per line in call order
PINNED_WRITES = {
    "tpcw-micro": [
        ("populate", (114, "941d7b59d1da83b3")),
        ("INSERT INTO Customer (C_ID, C_UNAME, C_BALANCE) VALUES (90, 'x', 1)",
         (4, "4a050c1de97ee540")),
        ("INSERT INTO Order (O_ID, O_C_ID, O_STATUS, O_TOTAL) "
         "VALUES (90, 90, 's', 5)", (5, "f3066d2f5cfc7f4e")),
        ("INSERT INTO Order_line (OL_ID, OL_O_ID, OL_I_ID, OL_QTY) "
         "VALUES (90, 90, 1, 1)", (6, "b68c43da3d70e41a")),
        ("UPDATE Customer SET C_BALANCE = 7 WHERE C_ID = 1",
         (35, "218f1b806ae9e962")),
        ("UPDATE Order SET O_STATUS = 'x' WHERE O_ID = 1",
         (19, "665e5cd9ed9bbc55")),
        ("UPDATE Order_line SET OL_QTY = 4 WHERE OL_ID = 1",
         (9, "783e1da6c0e1a4cc")),
        ("DELETE FROM Order_line WHERE OL_ID = 90", (6, "45880d01e7ab6a32")),
        ("DELETE FROM Order WHERE O_ID = 90", (5, "5b41d08d8e103de3")),
        ("DELETE FROM Customer WHERE C_ID = 90", (3, "263d0dd9bb24d6ad")),
    ],
    "company": [
        ("populate", (73, "a4e0c51c02486a70")),
        ("INSERT INTO Address (AID, Astreet, Acity) VALUES (90, 's', 'c')",
         (4, "e26e41c47793b5fe")),
        ("INSERT INTO Employee (EID, EName, ESalary, EHome_AID, EOffice_AID, "
         "E_DNo) VALUES (90, 'e', 10, 90, 1, 1)", (4, "4baa60f80e13d48e")),
        ("INSERT INTO Works_On (WO_EID, WO_PNo, Hours) VALUES (90, 1, 7)",
         (5, "bf49621be880feb3")),
        ("UPDATE Address SET Acity = 'x' WHERE AID = 1",
         (7, "239e7de5c8976cbe")),
        ("UPDATE Employee SET ESalary = 5 WHERE EID = 1",
         (5, "8ccfb948e60428ed")),
        ("UPDATE Works_On SET Hours = 8 WHERE WO_EID = 90 AND WO_PNo = 1",
         (10, "bd19b8a72c46244c")),
        ("DELETE FROM Works_On WHERE WO_EID = 90 AND WO_PNo = 1",
         (5, "351dfe7ca240a4d3")),
        ("DELETE FROM Employee WHERE EID = 90", (4, "81bf2cb2a3dfd1fb")),
        ("DELETE FROM Address WHERE AID = 90", (3, "bd2b760991970f7d")),
    ],
}


@pytest.mark.parametrize("fixture", sorted(PINNED_WRITES))
def test_every_store_write_is_pinned_in_order(tmp_path, fixture):
    """Each step's store writes (put, delete, check_and_put with their
    table, key and cells, in call order) hash to a pinned digest: root and
    non-root inserts, updates and deletes, and the population before
    them."""
    if fixture == "company":
        db = Database.create(company_schema(), company_workload(),
                             data_dir=str(tmp_path / "d"))
    else:
        db = Database.create(tpcw_micro_schema(), tpcw_micro_workload(),
                             data_dir=str(tmp_path / "d"))
    calls = []

    def recorded(name):
        write = getattr(db.store, name)

        def wrapper(*args):
            calls.append(repr((name,) + args))
            return write(*args)
        return wrapper

    for name in ("put", "delete", "check_and_put"):
        setattr(db.store, name, recorded(name))
    seen = []
    try:
        for text, _ in PINNED_WRITES[fixture]:
            calls.clear()
            if text != "populate":
                db.execute(text)
            elif fixture == "company":
                populate_company(db, employees=5)
            else:
                populate_tpcw_micro(db, scale=3, ratio=2)
            digest = hashlib.sha256("\n".join(calls).encode()).hexdigest()
            seen.append((text, (len(calls), digest[:16])))
        report = db.verify()
        assert report.ok, report.describe()
    finally:
        db.close()
    assert seen == PINNED_WRITES[fixture]


def test_insert_applies_only_to_views_where_relation_is_last(db):
    seed_rows(db, customers=1, orders=0, lines=0)
    result = db.execute("INSERT INTO Order (O_ID, O_C_ID, O_STATUS, O_TOTAL)"
                        " VALUES (1, 1, 's', 5)")
    # one view row in V_Customer_Order; none in the three-relation view
    assert result.view_rows == 1
    assert db.store.count("V_Customer_Order") == 1
    assert db.store.count("V_Customer_Order_Order_line") == 0


def test_every_in_tree_write_takes_exactly_one_lock(db):
    oid, lid = seed_rows(db)
    statements = [
        "INSERT INTO Customer (C_ID, C_UNAME, C_BALANCE) VALUES (50, 'x', 1)",
        f"INSERT INTO Order (O_ID, O_C_ID, O_STATUS, O_TOTAL) "
        f"VALUES ({oid + 1}, 1, 's', 5)",
        f"INSERT INTO Order_line (OL_ID, OL_O_ID, OL_I_ID, OL_QTY) "
        f"VALUES ({lid + 1}, 1, 1, 1)",
        "UPDATE Customer SET C_BALANCE = 9 WHERE C_ID = 1",
        "UPDATE Order SET O_STATUS = 'x' WHERE O_ID = 1",
        f"DELETE FROM Order_line WHERE OL_ID = {lid}",
    ]
    for text in statements:
        result = db.execute(text)
        assert result.locks_acquired == 1, text
    out_of_tree = db.execute("INSERT INTO Country (CO_ID, CO_NAME) "
                             "VALUES (1, 'n')")
    assert out_of_tree.locks_acquired == 0


def test_root_insert_creates_lock_row_and_root_delete_removes_it(db):
    db.execute("INSERT INTO Customer (C_ID, C_UNAME, C_BALANCE) "
               "VALUES (5, 'u', 0)")
    row = db.store.get("LK_Customer", key_of(5))
    assert row == {LOCK_COLUMN: False}
    db.execute("DELETE FROM Customer WHERE C_ID = 5")
    assert db.store.get("LK_Customer", key_of(5)) is None


def test_update_rejects_key_and_fk_assignments(db):
    seed_rows(db, customers=1, orders=1, lines=0)
    with pytest.raises(UnsupportedUpdate):
        db.execute("UPDATE Order SET O_C_ID = 2 WHERE O_ID = 1")
    with pytest.raises(UnsupportedUpdate):
        db.execute("UPDATE Order SET O_ID = 2 WHERE O_ID = 1")


def test_write_missing_key_attributes_is_rejected(db):
    with pytest.raises(SchemaError):
        db.execute("INSERT INTO Order (O_C_ID, O_STATUS, O_TOTAL) "
                   "VALUES (1, 's', 5)")


def test_mistyped_key_is_rejected_before_the_lock(db):
    db.txn.locks.timeout = 0.5
    seed_rows(db, customers=1, orders=0, lines=0)
    records = len(read_wal(db.wal.path))
    with pytest.raises(SchemaError):
        db.execute("INSERT INTO Order (O_ID, O_C_ID, O_STATUS, O_TOTAL) "
                   "VALUES ('x', 1, 's', 9)")
    with pytest.raises(SchemaError):
        db.execute("UPDATE Order SET O_TOTAL = 1 WHERE O_ID = 'x'")
    # an attribute the relation lacks, in WHERE as in VALUES or SET
    for text in ("UPDATE Customer SET C_BALANCE = 5 "
                 "WHERE C_ID = 1 AND NOPE = 3",
                 "DELETE FROM Customer WHERE C_ID = 1 AND NOPE = 3"):
        with pytest.raises(SchemaError, match="NOPE"):
            db.execute(text)
    assert len(read_wal(db.wal.path)) == records
    assert not db.txn.locks.held("Customer", key_of(1))
    assert db.verify().locks_held == 0
    db.execute("UPDATE Customer SET C_BALANCE = 3 WHERE C_ID = 1")
    assert db.verify().ok


@pytest.mark.parametrize("under_lock, text, follow_up, row", [
    ("plan_update_rows", "UPDATE Order SET O_STATUS = 'x' WHERE O_ID = 1",
     "UPDATE Order SET O_STATUS = 'y' WHERE O_ID = 1",
     ("Order", 1, "O_STATUS", "y")),
    ("key_of", "DELETE FROM Order_line WHERE OL_ID = 1",
     "UPDATE Order_line SET OL_QTY = 9 WHERE OL_ID = 1",
     ("Order_line", 1, "OL_QTY", 9)),
])
def test_refusal_under_the_lock_lets_the_lock_go(db, tmp_path, monkeypatch,
                                                 under_lock, text, follow_up,
                                                 row):
    seed_rows(db, customers=1, orders=1, lines=1)
    db.txn.locks.timeout = 0.3

    def refuse(*args, **kwargs):
        raise SchemaError("refused before any mutation")

    monkeypatch.setattr(f"synergy.txn.{under_lock}", refuse)
    with pytest.raises(SchemaError):
        db.execute(text)
    monkeypatch.undo()
    # the commit record resolves the write, so its lock is free
    assert not db.txn.locks.held("Customer", key_of(1))
    assert pending_transactions(read_wal(db.wal.path)) == []
    db.execute(follow_up)
    db.save(str(tmp_path / "copy"))
    reopened = Database.open(str(tmp_path / "copy"))
    try:
        assert reopened.recovery.replayed == []
        relation, key, attr, value = row
        assert reopened.store.get(relation, key_of(key))[attr] == value
        report = reopened.verify()
        assert report.ok, report.describe()
    finally:
        reopened.close()


@pytest.mark.parametrize("under_lock, text, follow_up, row", [
    ("build_insert_view_tuple", "INSERT INTO Order_line (OL_ID, OL_O_ID, "
                                "OL_I_ID, OL_QTY) VALUES (90, 1, 1, 1)",
     "INSERT INTO Order_line (OL_ID, OL_O_ID, OL_I_ID, OL_QTY) "
     "VALUES (91, 1, 1, 9)",
     ("Order_line", 91, "OL_QTY", 9)),
    ("plan_update_rows", "UPDATE Order SET O_STATUS = 'x' WHERE O_ID = 1",
     "UPDATE Order SET O_STATUS = 'y' WHERE O_ID = 1",
     ("Order", 1, "O_STATUS", "y")),
    ("key_of", "DELETE FROM Order_line WHERE OL_ID = 1",
     "INSERT INTO Order_line (OL_ID, OL_O_ID, OL_I_ID, OL_QTY) "
     "VALUES (1, 1, 1, 9)",
     ("Order_line", 1, "OL_QTY", 9)),
])
def test_failure_under_the_lock_holds_it_for_recovery(db, tmp_path,
                                                      monkeypatch, under_lock,
                                                      text, follow_up, row):
    seed_rows(db, customers=1, orders=1, lines=1)
    db.txn.locks.timeout = 0.3

    def fail(*args, **kwargs):
        raise RuntimeError("not a SynergyError")

    monkeypatch.setattr(f"synergy.txn.{under_lock}", fail)
    with pytest.raises(RuntimeError):
        db.execute(text)
    monkeypatch.undo()
    # no commit record: the next open replays the write, so no write on
    # the same row may commit before that replay
    assert db.txn.locks.held("Customer", key_of(1))
    assert len(pending_transactions(read_wal(db.wal.path))) == 1
    with pytest.raises(LockTimeout):
        db.execute(follow_up)
    db.save(str(tmp_path / "copy"))
    reopened = Database.open(str(tmp_path / "copy"))
    try:
        assert len(reopened.recovery.replayed) == 1
        assert not reopened.txn.locks.held("Customer", key_of(1))
        if under_lock == "build_insert_view_tuple":
            # the replay wrote the insert, which failed before any write
            assert reopened.store.get("Order_line", key_of(90)) is not None
        reopened.execute(follow_up)
        reopened.save(str(tmp_path / "again"))
    finally:
        reopened.close()
    again = Database.open(str(tmp_path / "again"))
    try:
        assert again.recovery.replayed == []
        relation, key, attr, value = row
        assert again.store.get(relation, key_of(key))[attr] == value
        report = again.verify()
        assert report.ok, report.describe()
    finally:
        again.close()


def test_root_delete_frees_its_lock_in_one_step(db, monkeypatch):
    db.execute("INSERT INTO Customer (C_ID, C_UNAME, C_BALANCE) "
               "VALUES (5, 'u', 0)")
    store, locks = db.store, db.txn.locks
    check_and_put, delete = store.check_and_put, store.delete
    waiter = []

    def waiter_takes_the_freed_lock(table, key):
        if table == "LK_Customer" and key == key_of(5) and not waiter:
            waiter.append(key)
            locks.acquire("Customer", key_of(5))

    def freeing_check_and_put(table, key, column, expected, new):
        landed = check_and_put(table, key, column, expected, new)
        if landed and new is False:
            waiter_takes_the_freed_lock(table, key)
        return landed

    def freeing_delete(table, key):
        gone = delete(table, key)
        waiter_takes_the_freed_lock(table, key)
        return gone

    monkeypatch.setattr(store, "check_and_put", freeing_check_and_put)
    monkeypatch.setattr(store, "delete", freeing_delete)
    db.execute("DELETE FROM Customer WHERE C_ID = 5")
    assert waiter
    # the waiter holds Customer 5: nobody else may take it too
    locks.timeout = 0.2
    with pytest.raises(LockTimeout):
        locks.acquire("Customer", key_of(5))


def test_verify_fails_on_a_stranded_lock(db):
    seed_rows(db, customers=1, orders=0, lines=0)
    db.txn.locks.acquire("Customer", key_of(1))
    report = db.verify()
    assert report.locks_held == 1
    assert not report.ok


def test_observer_never_sees_dirty_rows_during_update(db):
    seed_rows(db, customers=1, orders=3, lines=3)
    stop = threading.Event()
    violations = []

    def observer():
        q = db.rewrite.statements[1]       # view-backed customer scan
        while not stop.is_set():
            for row in db.execute(q, (1,)):
                if DIRTY in row:
                    violations.append(row)

    t = threading.Thread(target=observer)
    t.start()
    for i in range(60):
        db.execute(f"UPDATE Customer SET C_BALANCE = {i} WHERE C_ID = 1")
    stop.set()
    t.join()
    assert violations == []
    assert db.verify().ok


def test_reader_sees_pre_or_post_update_values_only(db):
    seed_rows(db, customers=1, orders=2, lines=2)
    q = db.rewrite.statements[1]
    stop = threading.Event()
    bad = []

    def reader():
        while not stop.is_set():
            rows = db.execute(q, (1,))
            balances = {r["C_BALANCE"] for r in rows}
            if len(balances) > 1:      # torn across the multi-row update
                bad.append(balances)

    t = threading.Thread(target=reader)
    t.start()
    for i in range(60):
        db.execute(f"UPDATE Customer SET C_BALANCE = {i} WHERE C_ID = 1")
    stop.set()
    t.join()
    assert bad == []


def test_view_reads_under_contention_see_whole_updates_in_order(db):
    """Writers raise the balance of hot customers (one writer per customer,
    so each customer's balance only rises) while readers run Q1 and Q2
    through the views: every result carries one balance per customer, and
    no reader sees a customer's balance go down."""
    hot = (1, 2, 3, 4)
    seed_rows(db, customers=len(hot), orders=3, lines=3)
    queries = db.rewrite.statements[:2]
    stop = threading.Event()
    failures = []
    reads = []

    def writer(customers):
        balance = 0
        try:
            while not stop.is_set():
                balance += 1
                for c in customers:
                    db.execute(f"UPDATE Customer SET C_BALANCE = {balance} "
                               f"WHERE C_ID = {c}")
        except Exception as exc:       # noqa: BLE001 - recorded for assert
            failures.append(exc)

    def reader(first):
        latest = dict.fromkeys(hot, 0)
        n = first
        try:
            while not stop.is_set():
                c = hot[n % len(hot)]
                rows = db.execute(queries[n // len(hot) % 2], (c,))
                balances = {r["C_BALANCE"] for r in rows}
                if len(balances) != 1:
                    failures.append(("torn", c, balances))
                elif min(balances) < latest[c]:
                    failures.append(("went down", c, latest[c], balances))
                else:
                    latest[c] = min(balances)
                n += 1
        except Exception as exc:       # noqa: BLE001 - recorded for assert
            failures.append(exc)
        reads.append(n - first)

    threads = ([threading.Thread(target=writer, args=(hot[i::2],))
                for i in range(2)]
               + [threading.Thread(target=reader, args=(i,))
                  for i in range(2)])
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        time.sleep(1.5)
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=30)
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    assert min(reads) > 0
    assert all(db.store.get("Customer", key_of(c))["C_BALANCE"] > 1
               for c in hot)
    report = db.verify()
    assert report.ok, report.describe()


# -- WAL ------------------------------------------------------------------------------------

def test_wal_records_begin_then_commit(db):
    seed_rows(db, customers=1, orders=0, lines=0)
    records = read_wal(db.wal.path)
    assert [r.phase for r in records] == [PHASE_BEGIN, PHASE_COMMIT]
    assert records[0].txn_id == records[1].txn_id
    assert "INSERT INTO Customer" in records[0].statement
    assert pending_transactions(records) == []


def test_wal_ids_strictly_increase(db):
    seed_rows(db)
    records = read_wal(db.wal.path)
    begins = [r.txn_id for r in records if r.phase == PHASE_BEGIN]
    assert begins == sorted(begins)
    assert len(set(begins)) == len(begins)


def test_wal_truncated_tail_is_tolerated(tmp_path):
    path = tmp_path / "wal.bin"
    wal = WriteAheadLog(path)
    wal.append(1, PHASE_BEGIN, "DELETE FROM T WHERE k = 1")
    wal.append(1, PHASE_COMMIT, "")
    wal.append(2, PHASE_BEGIN, "DELETE FROM T WHERE k = 2")
    wal.close()
    data = path.read_bytes()
    path.write_bytes(data[:-3])     # torn final record
    records = read_wal(path)
    assert [r.txn_id for r in records] == [1, 1]


def test_wal_structural_corruption_raises(tmp_path):
    path = tmp_path / "wal.bin"
    wal = WriteAheadLog(path)
    wal.append(1, PHASE_BEGIN, "x")
    wal.close()
    data = bytearray(path.read_bytes())
    data[len(WriteAheadLog.MAGIC) + 4 + 8] = 9      # invalid phase byte
    path.write_bytes(bytes(data))
    with pytest.raises(WalCorruptionError):
        read_wal(path)
    path.write_bytes(b"garbage")
    with pytest.raises(WalCorruptionError):
        read_wal(path)


def test_txn_ids_resume_from_wal_high_water(db, tmp_path):
    seed_rows(db, customers=1, orders=1, lines=1)
    db.save(str(tmp_path / "copy"))
    high = wal_high_water(read_wal(db.wal.path))
    reopened = Database.open(str(tmp_path / "copy"))
    try:
        result = reopened.execute(
            "INSERT INTO Customer (C_ID, C_UNAME, C_BALANCE) "
            "VALUES (99, 'z', 0)")
        assert result.txn_id == high + 1
    finally:
        reopened.close()
    # a save into the database's own directory truncates its log to the
    # high-water commit: ids resume past it there too
    own = os.path.dirname(db.wal.path)
    db.save(own)
    db.close()
    reopened = Database.open(own)
    try:
        result = reopened.execute(
            "INSERT INTO Customer (C_ID, C_UNAME, C_BALANCE) "
            "VALUES (98, 'y', 0)")
        assert result.txn_id == high + 1
    finally:
        reopened.close()


# -- crash injection and recovery ----------------------------------------------------------

def manager_like(db) -> TransactionManager:
    return TransactionManager(db.store, db.catalog, db.views, db.trees,
                              db.wal)


#: per write kind: the statement, and its row once recovered as
#: (relation, key, attribute, value), attribute None for a row deleted
CRASHED_WRITES = {
    "update": ("UPDATE Customer SET C_BALANCE = 777 WHERE C_ID = 1",
               ("Customer", 1, "C_BALANCE", 777)),
    "insert": ("INSERT INTO Order_line (OL_ID, OL_O_ID, OL_I_ID, OL_QTY) "
               "VALUES (90, 1, 1, 7)", ("Order_line", 90, "OL_QTY", 7)),
    "delete": ("DELETE FROM Order_line WHERE OL_ID = 1",
               ("Order_line", 1, None, None)),
}


@pytest.mark.parametrize("kind, step", [
    pytest.param(kind, step,
                 id=str(step) if kind == "update" else f"{kind}-{step}")
    for kind in CRASHED_WRITES for step in range(1, 7)])
def test_crash_at_each_update_step_then_recover(db, kind, step):
    seed_rows(db, customers=2, orders=3, lines=3)
    text, (relation, key, attr, value) = CRASHED_WRITES[kind]
    db.txn.crash_after_step = step
    with pytest.raises(CrashInjected):
        db.execute(text)
    # the failed transaction must keep its lock until recovery (except
    # after step 6, where it was already released)
    if step < 6:
        assert db.txn.locks.held("Customer", key_of(1))

    replacement = manager_like(db)
    report = replacement.recover()
    # a delete crashed once its base row went has nothing left to find:
    # its replay does nothing, and the store shows the delete done
    logged = report.replayed + [a[:2] for a in report.aborted]
    assert [t.split()[0] for _, t in logged] == [kind.upper()]
    assert len(report.replayed) == 1
    assert not replacement.locks.held("Customer", key_of(1))

    verify = db.verify()
    assert verify.dirty_cells == 0
    assert verify.ok, verify.describe()
    # the write landed exactly once
    row = db.store.get(relation, key_of(key))
    assert (row if attr is None else row[attr]) == value
    # recovery resolved the transaction: nothing pending remains
    assert pending_transactions(read_wal(db.wal.path)) == []


def test_a_delete_that_dies_after_its_base_row_strands_no_lock(tmp_path):
    """Recovery replays a delete whose base row is already gone as done
    (it has nothing left to do and takes no lock); the crashed write's
    lock is freed all the same, at this open and every later one."""
    db = Database.create(tpcw_micro_schema(), tpcw_micro_workload(),
                         data_dir=str(tmp_path / "live"), lock_timeout=0.3)
    seed_rows(db, customers=1, orders=1, lines=0)
    db.execute("INSERT INTO Order_line (OL_ID, OL_O_ID, OL_I_ID, OL_QTY) "
               "VALUES (11, 1, 1, 1)")
    delete = db.store.delete

    def dies_after_the_base_row(table, key):
        gone = delete(table, key)
        if table == "Order_line":
            raise CrashInjected("crash after the base row is deleted")
        return gone

    db.store.delete = dies_after_the_base_row
    with pytest.raises(CrashInjected):
        db.execute("DELETE FROM Order_line WHERE OL_ID = 11")
    db.save(str(tmp_path / "first"))
    db.close()
    for saved, then in (("first", "second"), ("second", None)):
        reopened = Database.open(str(tmp_path / saved), lock_timeout=0.3)
        try:
            assert len(reopened.recovery.replayed) == (saved == "first")
            assert reopened.recovery.aborted == []
            report = reopened.verify()
            assert report.locks_held == 0
            assert report.ok, report.describe()
            reopened.execute("UPDATE Customer SET C_BALANCE = 5 "
                             "WHERE C_ID = 1")
            if then:
                reopened.save(str(tmp_path / then))
        finally:
            reopened.close()


def test_recover_empty_wal_is_noop(db):
    report = manager_like(db).recover()
    assert report.replayed == []
    assert report.aborted == []


def test_recover_skips_committed_transactions(db):
    seed_rows(db, customers=1, orders=1, lines=0)
    before = db.store.get("Customer", key_of(1))
    report = manager_like(db).recover()
    assert report.replayed == []
    assert db.store.get("Customer", key_of(1)) == before


def test_recover_resolves_failed_statement_as_aborted(db):
    # a begin record whose statement cannot re-execute cleanly: orphan
    db.wal.append(500, PHASE_BEGIN,
                  "UPDATE Order_line SET OL_QTY = 2 WHERE OL_ID = 31337")
    report = manager_like(db).recover()
    assert len(report.aborted) == 1
    assert pending_transactions(read_wal(db.wal.path)) == []


def test_ids_continue_past_a_begin_appended_by_hand(db):
    """Every id comes from the log's high water, so a write after the
    recovery of a begin appended by hand takes the next id and the log
    still parses whole."""
    db.wal.append(500, PHASE_BEGIN,
                  "DELETE FROM Order_line WHERE OL_ID = 31337")
    manager_like(db).recover()
    result = db.execute("INSERT INTO Customer (C_ID, C_UNAME, C_BALANCE) "
                        "VALUES (1, 'u', 0)")
    assert result.txn_id == 501
    assert [(r.txn_id, r.phase) for r in read_wal(db.wal.path)] == [
        (500, PHASE_BEGIN), (500, PHASE_COMMIT),
        (501, PHASE_BEGIN), (501, PHASE_COMMIT)]


def test_recovery_aborts_a_logged_statement_admission_refuses(db, tmp_path):
    seed_rows(db, customers=1, orders=1, lines=0)
    high = wal_high_water(read_wal(db.wal.path))
    db.wal.append(high + 1, PHASE_BEGIN,
                  "UPDATE Order SET O_TOTAL = 1 WHERE O_ID = 'x'")
    db.wal.append(high + 2, PHASE_BEGIN,
                  "INSERT INTO Order (O_ID, O_C_ID, O_STATUS, O_TOTAL) "
                  "VALUES ('x', 1, 's', 9)")
    db.save(str(tmp_path / "copy"))
    reopened = Database.open(str(tmp_path / "copy"), lock_timeout=0.3)
    try:
        assert [a[0] for a in reopened.recovery.aborted] == [high + 1,
                                                             high + 2]
        assert reopened.recovery.replayed == []
        assert pending_transactions(read_wal(reopened.wal.path)) == []
        report = reopened.verify()
        assert report.locks_held == 0
        assert report.ok, report.describe()
    finally:
        reopened.close()


def company_with_hours(data_dir, workload=None, projects=1):
    """Employee 5 working ``projects`` projects, from project 2 on."""
    db = Database.create(company_schema(), workload or company_workload(),
                         data_dir=data_dir)
    db.execute("INSERT INTO Address (AID, Astreet, Acity) "
               "VALUES (1, 'a', 'c')")
    db.execute("INSERT INTO Department (DNo, DName) VALUES (1, 'd')")
    db.execute("INSERT INTO Employee (EID, EName, ESalary, EHome_AID, "
               "EOffice_AID, E_DNo) VALUES (5, 'e', 10, 1, 1, 1)")
    for pno in range(2, 2 + projects):
        db.execute(f"INSERT INTO Works_On (WO_EID, WO_PNo, Hours) "
                   f"VALUES (5, {pno}, {10 * pno + 10})")
    return db


#: two reads of V_Employee_Works_On, which give it a covered index on EID
#: and one on ESalary, and the update they maintain
SALARY_READS = (
    "SELECT * FROM Employee as e, Works_On as wo "
    "WHERE e.EID = wo.WO_EID and e.EID = ?",
    "SELECT * FROM Employee as e, Works_On as wo "
    "WHERE e.EID = wo.WO_EID and e.ESalary = ?",
    "UPDATE Employee SET ESalary = ? WHERE EID = ?",
)


def company_with_salary_reads(data_dir):
    """An ESalary update here finds its 3 view rows through the EID index
    and moves their ESalary index rows, so a replay meets marked rows in
    the index it scans."""
    workload = [parse_statement(text) for text in SALARY_READS]
    return company_with_hours(data_dir, workload, projects=3)


@pytest.mark.parametrize("text, row, build", [
    ("UPDATE Works_On SET Hours = 40 WHERE WO_EID = 5 AND WO_PNo = 2",
     ("Works_On", (5, 2), "Hours", 40), company_with_hours),
    ("INSERT INTO Works_On (WO_EID, WO_PNo, Hours) VALUES (5, 3, 50)",
     ("Works_On", (5, 3), "Hours", 50), company_with_hours),
    ("DELETE FROM Works_On WHERE WO_EID = 5 AND WO_PNo = 2",
     ("Works_On", (5, 2), None, None), company_with_hours),
    ("UPDATE Employee SET ESalary = 99 WHERE EID = 5",
     ("Employee", (5,), "ESalary", 99), company_with_hours),
    ("UPDATE Employee SET ESalary = 99 WHERE EID = 5 AND ESalary = 10",
     ("Employee", (5,), "ESalary", 99), company_with_hours),
    ("UPDATE Employee SET ESalary = 99 WHERE EID = 5",
     ("Employee", (5,), "ESalary", 99), company_with_salary_reads),
])
def test_crash_at_every_store_write_then_reopen(tmp_path, text, row, build):
    """A crash in place of the n-th store put or delete of a write, for
    every n until the write completes, leaves a checkpoint that open and
    replay bring to the written value with every view and index exact."""
    relation, key, attr, value = row
    n = 0
    completed = False
    while not completed:
        db = build(str(tmp_path / f"live{n}"))
        writes = []

        def crash_at_n(write):
            def wrapper(*args):
                writes.append(args[0])
                if len(writes) == n + 1:
                    raise CrashInjected(f"crash in place of store write {n}")
                return write(*args)
            return wrapper

        db.store.put = crash_at_n(db.store.put)
        db.store.delete = crash_at_n(db.store.delete)
        try:
            db.execute(text)
            completed = True
        except CrashInjected:
            pass
        copy = str(tmp_path / f"copy{n}")
        db.save(copy)
        db.close()
        reopened = Database.open(copy)
        try:
            assert len(reopened.recovery.replayed) == (0 if completed else 1)
            report = reopened.verify()
            assert report.ok, f"crash at write {n}:\n{report.describe()}"
            assert report.locks_held == 0
            stored = reopened.store.get(
                relation, encode_key(key, ("int",) * len(key)))
            assert (stored if attr is None else stored[attr]) == value
        finally:
            reopened.close()
        n += 1


def company_with_a_schema_index():
    schema = company_schema()
    schema.indexes = (IndexDef("X_Employee_EName", "Employee", ("EName",)),)
    return schema


def populate_small_company(db):
    populate_company(db, employees=6, seed=8)


def populate_small_tpcw_micro(db):
    populate_tpcw_micro(db, scale=3, ratio=2)


@pytest.mark.parametrize("schema, workload, populate", [
    (tpcw_micro_schema(), tpcw_micro_workload(), populate_small_tpcw_micro),
    (company_schema(), company_workload(), populate_small_company),
    (company_schema(), [parse_statement(text) for text in SALARY_READS],
     populate_small_company),
    (company_with_a_schema_index(), company_workload(),
     populate_small_company),
], ids=["tpcw-micro", "company", "salary-reads", "schema-index"])
def test_every_view_index_covers_its_view(schema, workload, populate):
    """An update plans a view row from the unmarked index row it scans,
    and a read returns an index row as its table's row: both hold only
    because every index, of a view or of a relation, has every column of
    its table, and every index row is its table row's own dict."""
    db = Database.create(schema, workload)
    try:
        populate(db)
        indexed = [(ih, handle) for handle in db.catalog.all_handles()
                   for ih in db.catalog.indexes_of(handle.name)]
        assert any(h.kind == "view" for _, h in indexed)
        for ih, handle in indexed:
            assert ih.columns == handle.columns, ih.name
            rows = db.store.scan(ih.name)
            assert len(rows) == db.store.count(handle.name), ih.name
            for _, cells in rows:
                key = storage.key_of(handle, cells)
                assert db.store.get(handle.name, key) is cells, ih.name
    finally:
        db.close()


def test_replayed_update_keeps_its_other_filters(tmp_path):
    """A replay relaxes only a filter on an assigned attribute, and only
    once the row carries every assigned value: a filter on another
    attribute, or on an old value the row never had, still refuses it."""
    db = company_with_hours(str(tmp_path / "live"))
    high = wal_high_water(read_wal(db.wal.path))
    for i, text in enumerate([
            "UPDATE Employee SET ESalary = 99 WHERE EID = 5 AND EName = 'zz'",
            "UPDATE Employee SET ESalary = 99 WHERE EID = 5 AND ESalary = 20",
            "UPDATE Employee SET EName = 'x' WHERE EID = 5 AND ESalary = 1"],
            start=1):
        db.wal.append(high + i, PHASE_BEGIN, text)
    db.save(str(tmp_path / "copy"))
    db.close()
    reopened = Database.open(str(tmp_path / "copy"))
    try:
        assert len(reopened.recovery.replayed) == 3
        row = reopened.store.get("Employee", encode_key((5,), ("int",)))
        assert (row["ESalary"], row["EName"]) == (10, "e")
        assert reopened.verify().ok
    finally:
        reopened.close()


def test_recovered_insert_is_idempotent(db):
    seed_rows(db, customers=1, orders=1, lines=1)
    # simulate a crash right before the commit record of a fully applied
    # insert: replay must not duplicate rows
    text = ("INSERT INTO Order_line (OL_ID, OL_O_ID, OL_I_ID, OL_QTY) "
            "VALUES (70, 1, 2, 3)")
    db.execute(text)
    db.wal.append(700, PHASE_BEGIN, text)
    report = manager_like(db).recover()
    assert len(report.replayed) == 1
    assert db.store.count("Order_line") == 2
    assert db.verify().ok


def test_concurrent_writers_against_shared_roots(db):
    seed_rows(db, customers=4, orders=2, lines=2)
    errors = []

    def worker(wid):
        try:
            for i in range(30):
                c = (i % 4) + 1
                db.execute(f"UPDATE Customer SET C_BALANCE = {wid * 100 + i}"
                           f" WHERE C_ID = {c}")
                db.execute(
                    f"INSERT INTO Order_line (OL_ID, OL_O_ID, OL_I_ID, "
                    f"OL_QTY) VALUES ({1000 + wid * 100 + i}, "
                    f"{(i % 8) + 1}, 1, 1)")
        except Exception as exc:       # noqa: BLE001 - recorded for assert
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(w,)) for w in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    report = db.verify()
    assert report.ok, report.describe()
    assert report.locks_held == 0


def every_row(db):
    return {h.name: list(db.store.scan(h.name))
            for h in db.catalog.all_handles()}


@pytest.mark.parametrize("text", [
    "INSERT INTO Customer (C_ID, C_UNAME, C_BALANCE) VALUES (1, 'x', 999)",
    "INSERT INTO Order_line (OL_ID, OL_O_ID, OL_I_ID, OL_QTY) "
    "VALUES (1, 1, 77, 9)",
    # a new parent would move the row to another tree under the wrong lock
    "INSERT INTO Order (O_ID, O_C_ID, O_STATUS, O_TOTAL) "
    "VALUES (1, 3, 's', 5)",
])
def test_reinsert_same_key_is_refused(db, text):
    """An insert over a stored key is refused before any write: the views
    would keep the old row, and its lock is let go."""
    seed_rows(db, customers=3, orders=2, lines=2)
    before = every_row(db)
    with pytest.raises(DuplicateKeyError):
        db.execute(text)
    assert every_row(db) == before
    assert pending_transactions(read_wal(db.wal.path)) == []
    db.execute("UPDATE Customer SET C_BALANCE = 5 WHERE C_ID = 1")
    report = db.verify()
    assert report.ok, report.describe()


def test_reinsert_pointing_at_missing_parent_is_refused(db):
    """With its parent missing the insert resolves no root and takes no
    lock; the stored row and its view row stay."""
    seed_rows(db, customers=1, orders=1, lines=1)
    before = every_row(db)
    with pytest.raises(DuplicateKeyError):
        db.execute("INSERT INTO Order_line (OL_ID, OL_O_ID, OL_I_ID, OL_QTY) "
                   "VALUES (1, 404, 1, 1)")
    assert every_row(db) == before
    assert db.store.count("V_Customer_Order_Order_line") == 1


def test_replayed_insert_over_another_row_is_aborted(db):
    """Replay accepts a stored row only when it holds the insert's own
    values; any other row at the key aborts the replay."""
    seed_rows(db, customers=1, orders=1, lines=1)
    before = every_row(db)
    high = wal_high_water(read_wal(db.wal.path))
    db.wal.append(high + 1, PHASE_BEGIN,
                  "INSERT INTO Order_line (OL_ID, OL_O_ID, OL_I_ID, OL_QTY) "
                  "VALUES (1, 1, 77, 9)")
    report = manager_like(db).recover()
    assert report.replayed == []
    assert [a[0] for a in report.aborted] == [high + 1]
    assert "already holds key" in report.aborted[0][2]
    assert every_row(db) == before
    assert db.verify().ok


# -- row moves: an index key is computed once per side ------------------------------

HOURS_INDEX = "X_V_Employee_Works_On_Hours"


def hours_key(hours):
    """Key of employee 5's project 2 row in the Hours index, built by the
    reference encoder."""
    return encode_key((hours, 5, 2), ("int", "int", "int"))


@pytest.mark.parametrize("text, hours", [
    # the indexed value changes: the old key goes, the new one comes
    ("UPDATE Works_On SET Hours = 40 WHERE WO_EID = 5 AND WO_PNo = 2", 40),
    # no key value of the index changes: its row stays at its key
    ("UPDATE Employee SET ESalary = 99 WHERE EID = 5", 30),
    # a new row lacking the indexed value: it has no index row
    ("INSERT INTO Works_On (WO_EID, WO_PNo) VALUES (5, 3)", 30),
])
def test_a_row_move_deletes_only_an_index_key_that_changed(tmp_path, text,
                                                           hours):
    db = company_with_hours(str(tmp_path / "d"))
    try:
        assert [k for k, _ in db.store.scan(HOURS_INDEX)] == [hours_key(30)]
        deleted = []
        delete = db.store.delete

        def record(table, key):
            deleted.append((table, key))
            return delete(table, key)

        db.store.delete = record
        db.execute(text)
        assert deleted == ([] if hours == 30
                           else [(HOURS_INDEX, hours_key(30))])
        assert [k for k, _ in db.store.scan(HOURS_INDEX)] == (
            [] if hours is None else [hours_key(hours)])
        report = db.verify()
        assert report.ok, report.describe()
    finally:
        db.close()


def count_puts(db) -> collections.Counter:
    """Count each (table, key) that ``db``'s store puts from now on."""
    puts = collections.Counter()
    put = db.store.put

    def record(table, key, cells):
        puts[table, key] += 1
        return put(table, key, cells)

    db.store.put = record
    return puts


def test_customer_update_at_scale_100_moves_every_row_it_did(tmp_path):
    db = Database.create(tpcw_micro_schema(), tpcw_micro_workload(),
                         data_dir=str(tmp_path / "data"))
    try:
        populate_tpcw_micro(db, scale=100, ratio=10, seed=1)
        puts = count_puts(db)
        result = db.execute("UPDATE Customer SET C_BALANCE = 7 "
                            "WHERE C_ID = 42")
        assert (result.base_rows, result.view_rows,
                result.index_rows) == (1, 110, 210)
        assert sum(puts.values()) == 641
        # no view or index key moves: each row is put marked with its new
        # cells, then un-marked; the base row is put once
        assert {n for (t, _), n in puts.items() if t != "Customer"} == {2}
        assert [n for (t, _), n in puts.items() if t == "Customer"] == [1]
        report = db.verify()
        assert report.ok, report.describe()
    finally:
        db.close()


@pytest.mark.parametrize("text, expected", [
    # no key moves: each view and index row is put marked with its new
    # cells, then un-marked
    ("UPDATE Employee SET ESalary = 99 WHERE EID = 5",
     {("Employee", (5,)): 1, ("V_Address_Employee", (5,)): 2,
      ("V_Employee_Works_On", (5, 2)): 2, (HOURS_INDEX, (30, 5, 2)): 2}),
    # the index key moves: the row is marked at its old keys, then put
    # marked with its new cells, then un-marked; the old index key goes
    ("UPDATE Works_On SET Hours = 40 WHERE WO_EID = 5 AND WO_PNo = 2",
     {("Works_On", (5, 2)): 1, ("V_Employee_Works_On", (5, 2)): 3,
      (HOURS_INDEX, (30, 5, 2)): 1, (HOURS_INDEX, (40, 5, 2)): 2}),
])
def test_an_unmoved_row_is_put_twice_a_moving_one_three_times(tmp_path, text,
                                                            expected):
    db = company_with_hours(str(tmp_path / "d"))
    try:
        puts = count_puts(db)
        db.execute(text)
        assert puts == {(t, encode_key(k, ("int",) * len(k))): n
                        for (t, k), n in expected.items()}
        report = db.verify()
        assert report.ok, report.describe()
    finally:
        db.close()


def test_no_stored_dict_changes_after_its_put(tmp_path):
    """Every dict handed to ``put`` during a population and a mixed run of
    inserts, updates and deletes still equals its copy taken at the put;
    a covering index row is its view row's own dict."""
    db = Database.create(tpcw_micro_schema(), tpcw_micro_workload(),
                         data_dir=str(tmp_path / "d"))
    try:
        stored = []
        put = db.store.put

        def record(table, key, cells):
            stored.append((cells, dict(cells)))
            return put(table, key, cells)

        db.store.put = record
        populate_tpcw_micro(db, scale=10, ratio=3)
        for stmt in mixed_statements(10, 3, 400, 1, seed=3)[0]:
            db.txn.execute_write(stmt)
        assert len(stored) > 1000
        assert [c for c, copy in stored if c != copy] == []
        for _, cells in db.store.scan("X_V_Customer_Order_C_ID"):
            view_key = encode_key((cells["O_ID"],), ("int",))
            assert db.store.get("V_Customer_Order", view_key) is cells
        report = db.verify()
        assert report.ok, report.describe()
    finally:
        db.close()


# -- rows lacking an indexed attribute ---------------------------------------------

@pytest.fixture()
def hourless_db(tmp_path):
    """Company database holding one Works_On row without ``Hours``, the
    attribute X_V_Employee_Works_On_Hours is keyed on."""
    database = Database.create(company_schema(), company_workload(),
                               data_dir=str(tmp_path / "company"),
                               lock_timeout=0.3)
    populate_company(database, employees=5)
    database.execute("INSERT INTO Works_On (WO_EID, WO_PNo) VALUES (1, 99)")
    yield database
    database.close()


def assert_settled(db):
    report = db.verify()
    assert report.ok, report.describe()
    assert pending_transactions(read_wal(db.wal.path)) == []
    # the Address root lock was released: the next write on it goes through
    db.execute("UPDATE Employee SET ESalary = 5 WHERE EID = 1")


def test_update_sets_the_view_indexed_attribute_a_row_lacked(hourless_db):
    db = hourless_db
    db.execute("UPDATE Works_On SET Hours = 7 WHERE WO_EID = 1 AND WO_PNo = 99")
    indexed = [c for _, c in db.store.scan("X_V_Employee_Works_On_Hours")
               if (c["WO_EID"], c["WO_PNo"]) == (1, 99)]
    assert [c["Hours"] for c in indexed] == [7]
    assert_settled(db)


def test_delete_of_a_row_lacking_the_view_indexed_attribute(hourless_db):
    db = hourless_db
    result = db.execute("DELETE FROM Works_On WHERE WO_EID = 1 AND WO_PNo = 99")
    assert (result.base_rows, result.view_rows) == (1, 1)
    assert_settled(db)
