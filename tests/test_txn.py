import threading
import time

import pytest

from synergy.db import Database
from synergy.errors import (LockTimeout, OrphanError, SchemaError,
                            UnsupportedUpdate, WalCorruptionError)
from synergy.fixtures import (company_schema, company_workload,
                              populate_company, tpcw_micro_schema,
                              tpcw_micro_workload)
from synergy.schema import LOCK_COLUMN
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
     "VALUES (90, 1, 1, 9)",
     ("Order_line", 90, "OL_QTY", 9)),
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


# -- crash injection and recovery ----------------------------------------------------------

def manager_like(db) -> TransactionManager:
    return TransactionManager(db.store, db.catalog, db.views, db.trees,
                              db.wal)


@pytest.mark.parametrize("step", [1, 2, 3, 4, 5, 6])
def test_crash_at_each_update_step_then_recover(db, step):
    seed_rows(db, customers=2, orders=3, lines=3)
    db.txn.crash_after_update_step = step
    with pytest.raises(CrashInjected):
        db.execute("UPDATE Customer SET C_BALANCE = 777 WHERE C_ID = 1")
    # the failed transaction must keep its lock until recovery (except
    # after step 6, where it was already released)
    if step < 6:
        assert db.txn.locks.held("Customer", key_of(1))

    replacement = manager_like(db)
    report = replacement.recover()
    assert len(report.replayed) == 1
    assert "UPDATE Customer" in report.replayed[0][1]
    assert not replacement.locks.held("Customer", key_of(1))

    verify = db.verify()
    assert verify.dirty_cells == 0
    assert verify.ok, verify.describe()
    # the update landed exactly once
    row = db.store.get("Customer", key_of(1))
    assert row["C_BALANCE"] == 777
    # recovery resolved the transaction: nothing pending remains
    assert pending_transactions(read_wal(db.wal.path)) == []


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
                  "DELETE FROM Order_line WHERE OL_ID = 31337")
    report = manager_like(db).recover()
    assert len(report.aborted) == 1
    assert pending_transactions(read_wal(db.wal.path)) == []


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


def company_with_hours(data_dir):
    db = Database.create(company_schema(), company_workload(),
                         data_dir=data_dir)
    db.execute("INSERT INTO Address (AID, Astreet, Acity) "
               "VALUES (1, 'a', 'c')")
    db.execute("INSERT INTO Department (DNo, DName) VALUES (1, 'd')")
    db.execute("INSERT INTO Employee (EID, EName, ESalary, EHome_AID, "
               "EOffice_AID, E_DNo) VALUES (5, 'e', 10, 1, 1, 1)")
    db.execute("INSERT INTO Works_On (WO_EID, WO_PNo, Hours) "
               "VALUES (5, 2, 30)")
    return db


@pytest.mark.parametrize("text, row", [
    ("UPDATE Works_On SET Hours = 40 WHERE WO_EID = 5 AND WO_PNo = 2",
     ("Works_On", (5, 2), "Hours", 40)),
    ("INSERT INTO Works_On (WO_EID, WO_PNo, Hours) VALUES (5, 2, 50)",
     ("Works_On", (5, 2), "Hours", 50)),
    ("DELETE FROM Works_On WHERE WO_EID = 5 AND WO_PNo = 2",
     ("Works_On", (5, 2), None, None)),
    ("UPDATE Employee SET ESalary = 99 WHERE EID = 5",
     ("Employee", (5,), "ESalary", 99)),
    ("UPDATE Employee SET ESalary = 99 WHERE EID = 5 AND ESalary = 10",
     ("Employee", (5,), "ESalary", 99)),
])
def test_crash_at_every_store_write_then_reopen(tmp_path, text, row):
    """A crash in place of the n-th store put or delete of a write, for
    every n until the write completes, leaves a checkpoint that open and
    replay bring to the written value with every view and index exact."""
    relation, key, attr, value = row
    n = 0
    completed = False
    while not completed:
        db = company_with_hours(str(tmp_path / f"live{n}"))
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


def test_reinsert_same_key_relocates_index_rows(db):
    seed_rows(db, customers=1, orders=1, lines=1)
    # overwrite order line 1 with different attribute values; the covered
    # index rows keyed on the old values must not linger
    db.execute("INSERT INTO Order_line (OL_ID, OL_O_ID, OL_I_ID, OL_QTY) "
               "VALUES (1, 1, 77, 9)")
    report = db.verify()
    assert report.ok, report.describe()
    row = db.store.get("Order_line", key_of(1))
    assert row == {"OL_ID": 1, "OL_O_ID": 1, "OL_I_ID": 77, "OL_QTY": 9}


def test_reinsert_pointing_at_missing_parent_drops_view_row(db):
    seed_rows(db, customers=1, orders=1, lines=1)
    db.execute("INSERT INTO Order_line (OL_ID, OL_O_ID, OL_I_ID, OL_QTY) "
               "VALUES (1, 404, 1, 1)")
    report = db.verify()
    assert report.ok, report.describe()
    assert db.store.count("V_Customer_Order_Order_line") == 0


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
