"""End-to-end flows that cut across modules: string and composite keys,
lock timeouts surfacing through the write path, restart recovery via the
persisted data directory, and ``open`` planning again from the saved
inputs."""

import itertools
import json
import os
import struct
import subprocess
import sys
import threading
import time

import pytest

from synergy import oracle, storage, txn
from synergy.cli import format_generation_report
from synergy.db import PIPELINE_FILE, Database
from synergy.errors import (LockTimeout, MissingCheckpointError, SchemaError,
                            SnapshotCorruptionError, UnknownTableError)
from synergy.fixtures import (FIXTURES, build_fixture, company_schema,
                              company_workload, mixed_statements, populate,
                              populate_company, populate_tpcw_micro,
                              tpcw_micro_schema, tpcw_micro_workload)
from synergy.schema import (LOCK, ForeignKey, IndexDef, RelationDef, SchemaDef,
                            load_schema, schema_to_dict)
from synergy.sqlparse import parse_statement, parse_workload, render_statement
from synergy.storage import encode_key
from synergy.txn import (PHASE_BEGIN, PHASE_COMMIT, CrashInjected,
                         WalRecord, WriteAheadLog, pending_transactions,
                         read_wal)


def string_key_schema():
    relations = {
        "Author": RelationDef(
            "Author",
            (("A_UNAME", "string"), ("A_NAME", "string")),
            ("A_UNAME",)),
        "Book": RelationDef(
            "Book",
            (("B_ISBN", "string"), ("B_A_UNAME", "string"),
             ("B_PRICE", "int")),
            ("B_ISBN",),
            (ForeignKey("B_A_UNAME", ("B_A_UNAME",), "Author"),)),
    }
    schema = SchemaDef(relations, roots=("Author",))
    schema.validate()
    return schema


STRING_WORKLOAD = """\
SELECT * FROM Author as a, Book as b WHERE a.A_UNAME = b.B_A_UNAME and a.A_UNAME = ?
UPDATE Author SET A_NAME = ? WHERE A_UNAME = ?
"""


def test_string_keyed_pipeline_end_to_end():
    db = Database.create(string_key_schema(), parse_workload(STRING_WORKLOAD))
    try:
        assert [v.name for v in db.views] == ["V_Author_Book"]
        db.execute("INSERT INTO Author (A_UNAME, A_NAME) "
                   "VALUES ('ann', 'Ann A.')")
        db.execute("INSERT INTO Author (A_UNAME, A_NAME) "
                   "VALUES ('bob', 'Bob B.')")
        for isbn, owner, price in (("i-1", "ann", 10), ("i-2", "ann", 20),
                                   ("i-3", "bob", 30)):
            db.execute(f"INSERT INTO Book (B_ISBN, B_A_UNAME, B_PRICE) "
                       f"VALUES ('{isbn}', '{owner}', {price})")
        rows = db.execute(db.rewrite.statements[0], ("ann",))
        assert sorted(r["B_ISBN"] for r in rows) == ["i-1", "i-2"]
        result = db.execute("UPDATE Author SET A_NAME = 'Ann Q.' "
                            "WHERE A_UNAME = 'ann'")
        assert result.locks_acquired == 1
        assert result.view_rows == 2
        db.execute("DELETE FROM Book WHERE B_ISBN = 'i-1'")
        report = db.verify()
        assert report.ok, report.describe()
    finally:
        db.close()


def test_lone_surrogate_survives_save_and_open(tmp_path):
    db = Database.create(tpcw_micro_schema(), tpcw_micro_workload())
    try:
        db.execute(db.workload[2], (1, "\ud800", 0))
        # the saved log is compacted: the statement is in the live one
        assert any("\ud800" in r.statement for r in read_wal(db.wal.path))
        db.save(str(tmp_path))
    finally:
        db.close()
    reopened = Database.open(str(tmp_path))
    try:
        assert reopened.execute("SELECT * FROM Customer") == [
            {"C_ID": 1, "C_UNAME": "\ud800", "C_BALANCE": 0}]
        assert reopened.verify().ok
    finally:
        reopened.close()


def composite_key_schema():
    relations = {
        "Region": RelationDef(
            "Region",
            (("R_CO", "string"), ("R_NO", "int"), ("R_NAME", "string")),
            ("R_CO", "R_NO")),
        "City": RelationDef(
            "City",
            (("CI_ID", "int"), ("CI_CO", "string"), ("CI_NO", "int"),
             ("CI_POP", "int")),
            ("CI_ID",),
            (ForeignKey("CI_REGION", ("CI_CO", "CI_NO"), "Region"),)),
    }
    schema = SchemaDef(relations, roots=("Region",))
    schema.validate()
    return schema


COMPOSITE_WORKLOAD = """\
SELECT * FROM Region as r, City as c WHERE r.R_CO = c.CI_CO and r.R_NO = c.CI_NO and c.CI_POP > ?
UPDATE Region SET R_NAME = ? WHERE R_CO = ? AND R_NO = ?
"""


def test_composite_foreign_key_pipeline_end_to_end():
    db = Database.create(composite_key_schema(),
                         parse_workload(COMPOSITE_WORKLOAD))
    try:
        assert [v.name for v in db.views] == ["V_Region_City"]
        view = db.views[0]
        assert view.edges[0].pk == ("R_CO", "R_NO")
        assert view.edges[0].fk == ("CI_CO", "CI_NO")
        db.execute("INSERT INTO Region (R_CO, R_NO, R_NAME) "
                   "VALUES ('us', 1, 'west')")
        db.execute("INSERT INTO Region (R_CO, R_NO, R_NAME) "
                   "VALUES ('us', 2, 'east')")
        r1 = db.execute("INSERT INTO City (CI_ID, CI_CO, CI_NO, CI_POP) "
                        "VALUES (1, 'us', 1, 100)")
        assert r1.root == "Region"
        assert r1.locks_acquired == 1
        assert r1.view_rows == 1
        db.execute("INSERT INTO City (CI_ID, CI_CO, CI_NO, CI_POP) "
                   "VALUES (2, 'us', 2, 50)")
        # composite root key: the lock row for ('us', 1) exists and is free
        lock = db.store.get("LK_Region",
                            encode_key(("us", 1), ("string", "int")))
        assert lock == {"lock_status": False}

        result = db.execute("UPDATE Region SET R_NAME = '左' "
                            "WHERE R_CO = 'us' AND R_NO = 1")
        assert result.view_rows == 1
        rows = db.execute(db.rewrite.statements[0], (60,))
        assert [r["CI_ID"] for r in rows] == [1]
        assert rows[0]["R_NAME"] == "左"
        report = db.verify()
        assert report.ok, report.describe()
    finally:
        db.close()


def test_lock_timeout_surfaces_through_execute_write(tmp_path):
    db = Database.create(tpcw_micro_schema(), tpcw_micro_workload(),
                         data_dir=str(tmp_path / "d"), lock_timeout=0.1)
    try:
        db.execute("INSERT INTO Customer (C_ID, C_UNAME, C_BALANCE) "
                   "VALUES (1, 'u', 0)")
        db.txn.locks.acquire("Customer", encode_key((1,), ("int",)))
        with pytest.raises(LockTimeout):
            db.execute("UPDATE Customer SET C_BALANCE = 5 WHERE C_ID = 1")
        # the failed transaction mutated nothing and resolved its log entry
        assert db.store.get("Customer",
                            encode_key((1,), ("int",)))["C_BALANCE"] == 0
        assert pending_transactions(read_wal(db.wal.path)) == []
    finally:
        db.close()


def test_crash_save_reopen_recovers_through_database_open(tmp_path):
    data_dir = str(tmp_path / "d")
    db = Database.create(tpcw_micro_schema(), tpcw_micro_workload(),
                         data_dir=data_dir)
    db.execute("INSERT INTO Customer (C_ID, C_UNAME, C_BALANCE) "
               "VALUES (1, 'u', 0)")
    db.execute("INSERT INTO Order (O_ID, O_C_ID, O_STATUS, O_TOTAL) "
               "VALUES (1, 1, 's', 5)")
    db.txn.crash_after_step = 4      # marks still set, lock held
    with pytest.raises(CrashInjected):
        db.execute("UPDATE Customer SET C_BALANCE = 42 WHERE C_ID = 1")
    held = db.wal.high_water
    # snapshot of the torn state; the gate does not wait for the held
    # write, and the compacted log keeps only its begin record
    checkpoint = db.save(data_dir)
    db.wal.close()
    assert checkpoint.pending_kept == (held,)
    assert checkpoint.wal_bytes_after < checkpoint.wal_bytes_before

    reopened = Database.open(data_dir)
    try:
        assert [t for t, _ in reopened.recovery.replayed] == [held]
        report = reopened.verify()
        assert report.ok, report.describe()
        assert report.dirty_cells == 0
        assert report.locks_held == 0
        row = reopened.store.get("Customer", encode_key((1,), ("int",)))
        assert row["C_BALANCE"] == 42
    finally:
        reopened.close()


def test_open_of_a_torn_snapshot_raises_a_typed_error(tmp_path):
    data_dir = tmp_path / "d"
    db = Database.create(tpcw_micro_schema(), tpcw_micro_workload(),
                         data_dir=str(data_dir))
    db.execute("INSERT INTO Customer (C_ID, C_UNAME, C_BALANCE) "
               "VALUES (1, 'u', 0)")
    db.save(str(data_dir))
    db.close()
    snapshot = data_dir / "snapshot.bin"
    data = snapshot.read_bytes()
    snapshot.write_bytes(data[:len(data) // 2])
    with pytest.raises(SnapshotCorruptionError):
        Database.open(str(data_dir))


@pytest.mark.parametrize("where", ["never created", "created, not saved",
                                   "first save cut before the snapshot"])
def test_open_without_a_checkpoint_raises_a_typed_error(
        tmp_path, monkeypatch, where):
    data_dir = str(tmp_path / "d")
    if where != "never created":
        db = Database.create(tpcw_micro_schema(), tpcw_micro_workload(),
                             data_dir=data_dir)
        assert os.listdir(data_dir) == ["wal.bin"]
    if where == "first save cut before the snapshot":
        db.execute("INSERT INTO Customer (C_ID, C_UNAME, C_BALANCE) "
                   "VALUES (1, 'u', 0)")
        replace = os.replace

        def crash_at_snapshot(src, dst):
            if dst.endswith("snapshot.bin"):
                raise OSError("crash")
            replace(src, dst)
        monkeypatch.setattr(os, "replace", crash_at_snapshot)
        with pytest.raises(OSError, match="crash"):
            db.save(data_dir)
        monkeypatch.undo()
        assert not os.path.exists(os.path.join(data_dir, "snapshot.bin"))
        assert os.path.exists(os.path.join(data_dir, PIPELINE_FILE))
    if where != "never created":
        db.close()
    with pytest.raises(MissingCheckpointError, match=str(tmp_path / "d")):
        Database.open(data_dir)


CUSTOMER_INSERT = ("INSERT INTO Customer (C_ID, C_UNAME, C_BALANCE) "
                   "VALUES (?, ?, ?)")


@pytest.mark.parametrize("text, params", [
    # a key value: it used to fail in key encoding after its begin record,
    # which no open could then replay
    (CUSTOMER_INSERT, (2**63, "u", 1)),
    (CUSTOMER_INSERT, (-(2**63) - 1, "u", 1)),
    # a non-key value: it used to commit, and every later save failed
    ("UPDATE Customer SET C_BALANCE = ? WHERE C_ID = ?", (2**70, 1)),
])
def test_an_int_outside_64_bits_is_refused_before_the_begin_record(
        tmp_path, text, params):
    data_dir = str(tmp_path / "d")
    db = Database.create(tpcw_micro_schema(), tpcw_micro_workload(),
                         data_dir=data_dir)
    db.execute(CUSTOMER_INSERT, (1, "u", 0))
    records = read_wal(db.wal.path)
    with pytest.raises(SchemaError, match="expects int"):
        db.execute(text, params)
    assert read_wal(db.wal.path) == records
    # the range's own ends are admitted, in keys and in other cells
    db.execute(CUSTOMER_INSERT, (2**63 - 1, "max", -(2**63)))
    db.execute(CUSTOMER_INSERT, (-(2**63), "min", 2**63 - 1))
    db.save(data_dir)
    db.close()
    reopened = Database.open(data_dir)
    try:
        assert reopened.recovery.replayed == []
        assert pending_transactions(read_wal(reopened.wal.path)) == []
        rows = reopened.execute("SELECT * FROM Customer as c "
                                "WHERE c.C_ID = ?", (2**63 - 1,))
        assert [r["C_BALANCE"] for r in rows] == [-(2**63)]
        assert reopened.store.count("Customer") == 3
        report = reopened.verify()
        assert report.ok, report.describe()
    finally:
        reopened.close()


def test_fsync_round_trip(tmp_path, monkeypatch):
    """With ``fsync=True`` every log append and every saved file is
    fsynced, and the checkpoint opens whole."""
    synced = []
    real_fsync = os.fsync

    def counted(fd):
        synced.append(fd)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counted)
    data_dir = str(tmp_path / "d")
    db = Database.create(tpcw_micro_schema(), tpcw_micro_workload(),
                         data_dir=data_dir, fsync=True)
    before = len(synced)
    db.execute(CUSTOMER_INSERT, (1, "u", 0))
    assert len(synced) == before + 2          # the begin and the commit
    before = len(synced)
    db.save(data_dir)
    # each of the four files, and the directory
    assert len(synced) == before + 5
    db.close()
    reopened = Database.open(data_dir, fsync=True)
    try:
        assert reopened.recovery.replayed == []
        assert reopened.store.get("Customer", encode_key((1,), ("int",)))
        report = reopened.verify()
        assert report.ok, report.describe()
    finally:
        reopened.close()


@pytest.mark.parametrize("live_dir", [True, False],
                         ids=["live-dir", "no-live-dir"])
def test_each_save_into_the_live_directory_truncates_the_log(tmp_path,
                                                             live_dir):
    # without a live directory the log lives in a temporary one that never
    # holds a checkpoint, and each round saves into a new directory
    data_dir = str(tmp_path / "d")
    db = Database.create(tpcw_micro_schema(), tpcw_micro_workload(),
                         data_dir=data_dir if live_dir else None)
    befores = []
    try:
        for round_ in range(3):
            for c in range(1000 + 100 * round_, 1050 + 100 * round_):
                db.execute(CUSTOMER_INSERT, (c, f"u{c}", 0))
            if not live_dir:
                data_dir = str(tmp_path / f"d{round_}")
            report = db.save(data_dir)
            befores.append(report.wal_bytes_before)
            # only the header and the high-water commit are left
            assert report.pending_kept == ()
            assert report.wal_bytes_after == len(WriteAheadLog.MAGIC) + 13
            assert read_wal(db.wal.path) == [
                WalRecord(50 * (round_ + 1), PHASE_COMMIT, "")]
        # every round reads only its own writes, after the header and,
        # from the second on, the high-water commit
        assert befores == [befores[0], befores[0] + 13, befores[0] + 13]
    finally:
        db.close()
    reopened = Database.open(data_dir)
    try:
        assert reopened.recovery.replayed == []
        assert reopened.store.count("Customer") == 150
        assert reopened.execute(CUSTOMER_INSERT, (8, "u8", 0)).txn_id == 151
        report = reopened.verify()
        assert report.ok, report.describe()
    finally:
        reopened.close()


def test_save_under_load_gives_a_consistent_checkpoint(tmp_path):
    """Two writers run while ``save`` checkpoints: the gate lets no write
    be half-applied in the snapshot, so the checkpoint opens exact with
    nothing to replay."""
    db = Database.create(tpcw_micro_schema(), tpcw_micro_workload())
    copy = str(tmp_path / "copy")
    try:
        populate_tpcw_micro(db, scale=30, ratio=5, seed=1)
        streams = mixed_statements(30, 5, 4000, 2, seed=7)
        failures = []

        def worker(stream):
            try:
                for stmt in stream:
                    db.txn.execute_write(stmt)
            except Exception as exc:    # noqa: BLE001 - surfaced below
                failures.append(repr(exc))

        threads = [threading.Thread(target=worker, args=(s,))
                   for s in streams]
        # a short switch interval interleaves the writers finely with the
        # table-by-table copy a save makes
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            time.sleep(0.3)
            under_load = all(t.is_alive() for t in threads)
            db.save(copy)
        finally:
            for t in threads:
                t.join()
            sys.setswitchinterval(switch)
        assert failures == []
        assert under_load
    finally:
        db.close()
    reopened = Database.open(copy)
    try:
        assert reopened.recovery.replayed == []
        assert reopened.recovery.aborted == []
        report = reopened.verify()
        assert report.locks_held == 0
        assert report.ok, report.describe()
    finally:
        reopened.close()


def test_save_waits_for_a_write_queued_behind_a_held_lock(tmp_path):
    """A write waiting on the root lock of a write held for recovery is in
    flight: ``save`` waits for its ``LockTimeout``, then keeps only the held
    write's begin, which the reopened checkpoint replays."""
    data_dir = str(tmp_path / "d")
    db = Database.create(tpcw_micro_schema(), tpcw_micro_workload(),
                         data_dir=data_dir, lock_timeout=0.3)
    db.execute(CUSTOMER_INSERT, (1, "u", 0))
    db.txn.crash_after_step = 4      # the Customer 1 lock stays held
    with pytest.raises(CrashInjected):
        db.execute("UPDATE Customer SET C_BALANCE = 42 WHERE C_ID = 1")
    held = db.wal.high_water
    outcome = []

    def waiter():
        try:
            db.execute("UPDATE Customer SET C_BALANCE = 7 WHERE C_ID = 1")
        except LockTimeout as exc:
            outcome.append(exc)

    thread = threading.Thread(target=waiter)
    thread.start()
    try:
        # the waiter writes its begin record before it waits for the lock
        deadline = time.monotonic() + 5
        while db.wal.high_water == held and time.monotonic() < deadline:
            time.sleep(0.001)
        assert db.wal.high_water == held + 1
        checkpoint = db.save(data_dir)
    finally:
        thread.join()
    db.close()
    assert len(outcome) == 1
    # had the gate not waited, the waiter's begin would be kept as well
    assert checkpoint.pending_kept == (held,)
    assert checkpoint.gate_wait_s > 0

    reopened = Database.open(data_dir)
    try:
        assert [t for t, _ in reopened.recovery.replayed] == [held]
        assert reopened.recovery.aborted == []
        row = reopened.store.get("Customer", encode_key((1,), ("int",)))
        assert row["C_BALANCE"] == 42
        report = reopened.verify()
        assert report.ok, report.describe()
    finally:
        reopened.close()


def test_second_open_after_recovery_replays_nothing(tmp_path):
    data_dir = str(tmp_path / "d")
    db = Database.create(tpcw_micro_schema(), tpcw_micro_workload(),
                         data_dir=data_dir)
    db.execute("INSERT INTO Customer (C_ID, C_UNAME, C_BALANCE) "
               "VALUES (1, 'u', 0)")
    db.txn.crash_after_step = 3
    with pytest.raises(CrashInjected):
        db.execute("UPDATE Customer SET C_BALANCE = 9 WHERE C_ID = 1")
    db.save(data_dir)
    db.wal.close()

    first = Database.open(data_dir)
    assert len(first.recovery.replayed) == 1
    first.save(data_dir)
    first.close()

    second = Database.open(data_dir)
    try:
        assert second.recovery.replayed == []
        assert second.verify().ok
    finally:
        second.close()


BALANCE_UPDATES = [f"UPDATE Customer SET C_BALANCE = {b} WHERE C_ID = {c}"
                   for b, c in ((11, 1), (12, 2), (13, 3))]


def test_open_cuts_a_torn_log_tail_before_appending(tmp_path):
    """A torn final record is cut when the log is opened: the writes
    appended after it stay readable, so a second ``open`` parses the log
    whole instead of reading the torn record's length across them."""
    data_dir = str(tmp_path / "d")
    db = Database.create(tpcw_micro_schema(), tpcw_micro_workload(),
                         data_dir=data_dir)
    populate_tpcw_micro(db, scale=5, ratio=2, seed=1)
    db.save(data_dir)
    db.close()
    wal_path = os.path.join(data_dir, "wal.bin")
    saved = read_wal(wal_path)
    with open(wal_path, "ab") as fh:
        fh.write(txn._record(999999, PHASE_BEGIN, "UPDATE Customer SET "
                             "C_BALANCE = 5 WHERE C_ID = 1")[:-7])

    first = Database.open(data_dir)
    try:
        assert first.recovery.replayed == []
        ids = [first.execute(text).txn_id for text in BALANCE_UPDATES]
    finally:
        first.close()
    second = Database.open(data_dir)
    try:
        assert second.recovery.replayed == []
        assert second.recovery.aborted == []
        logged = read_wal(wal_path)
        assert logged[:len(saved)] == saved
        assert logged[len(saved):] == [
            WalRecord(i, phase, text if phase == PHASE_BEGIN else "")
            for i, text in zip(ids, BALANCE_UPDATES)
            for phase in (PHASE_BEGIN, PHASE_COMMIT)]
        report = second.verify()
        assert report.ok, report.describe()
    finally:
        second.close()


def test_create_over_an_earlier_database_starts_a_new_log(tmp_path,
                                                          monkeypatch):
    data_dir = str(tmp_path / "d")
    earlier = Database.create(tpcw_micro_schema(), tpcw_micro_workload(),
                              data_dir=data_dir)
    earlier.execute("INSERT INTO Customer (C_ID, C_UNAME, C_BALANCE) "
                    "VALUES (1, 'u', 0)")

    def crash(*args):
        raise CrashInjected("crash while building the view row")

    monkeypatch.setattr(txn, "build_insert_view_tuple", crash)
    with pytest.raises(CrashInjected):
        earlier.execute("INSERT INTO Order (O_ID, O_C_ID, O_STATUS, O_TOTAL) "
                        "VALUES (1, 1, 's', 5)")
    monkeypatch.undo()

    earlier.save(data_dir)
    earlier.close()

    db = Database.create(tpcw_micro_schema(), tpcw_micro_workload(),
                         data_dir=data_dir)
    with open(db.wal.path, "rb") as fh:
        assert fh.read() == WriteAheadLog.MAGIC
    # no checkpoint of the earlier database is left to load
    assert os.listdir(data_dir) == ["wal.bin"]
    with pytest.raises(MissingCheckpointError):
        Database.open(data_dir)
    db.save(data_dir)
    db.close()
    reopened = Database.open(data_dir)
    try:
        assert reopened.recovery.replayed == []
        assert reopened.store.count("Customer") == 0
        assert reopened.store.count("Order") == 0
        report = reopened.verify()
        assert report.ok, report.describe()
    finally:
        reopened.close()


def test_ad_hoc_rewrite_uses_only_materialized_views():
    db = Database.create(tpcw_micro_schema(), tpcw_micro_workload())
    try:
        # this path was never selected by the workload, so no view exists
        q = parse_statement(
            "SELECT * FROM Order as o, Order_line as ol "
            "WHERE o.O_ID = ol.OL_O_ID and o.O_ID = 1")
        rewritten = db.rewrite_statement(q)
        assert rewritten.tables == (("Order", "o"), ("Order_line", "ol"))
    finally:
        db.close()


def indexed_base_schema():
    relations = {
        "Item": RelationDef(
            "Item",
            (("I_ID", "int"), ("I_TITLE", "string"), ("I_COST", "int")),
            ("I_ID",)),
    }
    schema = SchemaDef(relations)
    schema.indexes = (IndexDef("X_Item_title", "Item", ("I_TITLE",)),)
    schema.validate()
    return schema


def test_base_table_index_end_to_end():
    db = Database.create(indexed_base_schema(), [])
    try:
        for i, title in enumerate(("ada", "bit", "ada", "cog"), start=1):
            db.execute(f"INSERT INTO Item (I_ID, I_TITLE, I_COST) "
                       f"VALUES ({i}, '{title}', {i * 10})")
        plan = db.engine.plan(parse_statement(
            "SELECT * FROM Item as i WHERE i.I_TITLE = 'ada'"))
        assert plan.steps[0].scan_table == "X_Item_title"
        rows = db.execute("SELECT * FROM Item as i WHERE i.I_TITLE = 'ada'")
        assert sorted(r["I_ID"] for r in rows) == [1, 3]
        assert db.verify().ok

        # moving an indexed attribute relocates the index row
        result = db.execute("UPDATE Item SET I_TITLE = 'zzz' WHERE I_ID = 1")
        assert result.index_rows == 1
        rows = db.execute("SELECT * FROM Item as i WHERE i.I_TITLE = 'ada'")
        assert [r["I_ID"] for r in rows] == [3]
        rows = db.execute("SELECT * FROM Item as i WHERE i.I_TITLE = 'zzz'")
        assert [r["I_ID"] for r in rows] == [1]
        assert db.verify().ok

        db.execute("DELETE FROM Item WHERE I_ID = 3")
        assert db.execute(
            "SELECT * FROM Item as i WHERE i.I_TITLE = 'ada'") == []
        report = db.verify()
        assert report.ok, report.describe()
        assert db.store.count("X_Item_title") == 3

        # a row inserted without the indexed attribute gets its index row
        # when an update sets it
        db.execute("INSERT INTO Item (I_ID, I_COST) VALUES (5, 50)")
        db.execute("UPDATE Item SET I_TITLE = 'ada' WHERE I_ID = 5")
        rows = db.execute("SELECT * FROM Item as i WHERE i.I_TITLE = 'ada'")
        assert rows == [{"I_ID": 5, "I_TITLE": "ada", "I_COST": 50}]
        report = db.verify()
        assert report.ok, report.describe()
    finally:
        db.close()


#: reads through X_Employee_EName; an index holding only EID and EName
#: gave 2 of 6 columns for the first and KeyError: 'EHome_AID' for the second
PARTIAL_INDEX_READS = (
    "SELECT * FROM Employee AS e WHERE e.EName = 'emp3'",
    "SELECT * FROM Employee AS e, Address AS a "
    "WHERE a.AID = e.EHome_AID AND e.EName = 'emp3'",
)


def test_a_schema_file_declaring_a_partial_index_reads_whole_rows(tmp_path):
    """A schema.json that gave an index only some of its table's columns
    still loads; the index holds whole rows, so reads through it equal the
    oracle over the base tables."""
    doc = schema_to_dict(company_schema())
    doc["indexes"] = [{"name": "X_Employee_EName", "base": "Employee",
                       "attributes": ["EID", "EName"],
                       "indexed_on": ["EName"]}]
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    db = Database.create(load_schema(path), company_workload())
    try:
        populate_company(db, employees=6, seed=8)
        tables = {name: [c for _, c in db.store.scan(name)]
                  for name in db.schema.relations}
        for text in PARTIAL_INDEX_READS:
            stmt = parse_statement(text)
            assert "X_Employee_EName" in [
                step.scan_table for step in db.engine.plan(stmt).steps]
            got = db.execute(stmt)
            assert got and len(got[0]) >= 6
            assert oracle.row_multiset(got) == oracle.row_multiset(
                oracle.eval_select(stmt, tables))
    finally:
        db.close()


def test_view_index_key_moves_when_indexed_attribute_updates():
    db = Database.create(company_schema(), company_workload())
    try:
        populate_company(db, employees=6, seed=8)
        target = next(c for _, c in db.store.scan("Works_On"))
        old_hours = target["Hours"]
        eid, pno = target["WO_EID"], target["WO_PNo"]
        result = db.execute(
            f"UPDATE Works_On SET Hours = 99 "
            f"WHERE WO_EID = {eid} AND WO_PNo = {pno}")
        assert result.index_rows >= 1
        rows = db.execute(db.rewrite.statements[2], (99,))
        assert any(r["WO_EID"] == eid and r["WO_PNo"] == pno for r in rows)
        if old_hours != 99:
            stale = db.execute(db.rewrite.statements[2], (old_hours,))
            assert not any(r["WO_EID"] == eid and r["WO_PNo"] == pno
                           for r in stale)
        report = db.verify()
        assert report.ok, report.describe()
    finally:
        db.close()


@pytest.mark.parametrize("fixture", FIXTURES)
def test_open_assembles_the_catalog_that_create_built(tmp_path, fixture):
    data_dir = str(tmp_path / "d")
    db = Database.create(*build_fixture(fixture), data_dir=data_dir)
    try:
        populate(db, fixture, scale=4, ratio=2, seed=3)
        db.save(data_dir)
    finally:
        db.close()

    reopened = Database.open(data_dir)
    try:
        created, opened = db.catalog, reopened.catalog
        assert opened.all_handles() == created.all_handles()
        for name in list(db.schema.relations) + [v.name for v in db.views]:
            assert opened.indexes_of(name) == created.indexes_of(name)
        locks = [h.name for h in opened.all_handles() if h.kind == LOCK]
        assert locks == [h.name for h in created.all_handles()
                         if h.kind == LOCK]
        assert locks == ["LK_" + root for root in db.schema.roots]
        assert [reopened.store.count(h.name) for h in opened.all_handles()] \
            == [db.store.count(h.name) for h in created.all_handles()]
    finally:
        reopened.close()


def indexed_company():
    """Company with a schema-level index on a base in a view, its key led
    by a string, and an update that asks for a maintenance index."""
    schema = company_schema()
    schema.indexes = (IndexDef("X_Employee_EName", "Employee", ("EName",)),)
    schema.validate()
    return schema, company_workload() + [
        parse_statement("UPDATE Employee SET ESalary = ? WHERE EID = ?")]


CUSTOMER = ("C_ID", "C_UNAME", "C_BALANCE")
ORDER = ("O_ID", "O_C_ID", "O_STATUS", "O_TOTAL")
ORDER_LINE = ("OL_ID", "OL_O_ID", "OL_I_ID", "OL_QTY")
ADDRESS = ("AID", "Astreet", "Acity")
EMPLOYEE = ("EID", "EName", "ESalary", "EHome_AID", "EOffice_AID", "E_DNo")
WORKS_ON = ("WO_EID", "WO_PNo", "Hours")
I, S = "int", "string"

TPCW_HANDLES = [
    (("Customer", "base", ("C_ID",), (I,), CUSTOMER), []),
    (("Order", "base", ("O_ID",), (I,), ORDER), []),
    (("Order_line", "base", ("OL_ID",), (I,), ORDER_LINE), []),
    (("Country", "base", ("CO_ID",), (I,), ("CO_ID", "CO_NAME")), []),
    (("V_Customer_Order", "view", ("O_ID",), (I,), CUSTOMER + ORDER),
     ["X_V_Customer_Order_C_ID"]),
    (("V_Customer_Order_Order_line", "view", ("OL_ID",), (I,),
      CUSTOMER + ORDER + ORDER_LINE),
     ["X_V_Customer_Order_Order_line_C_ID",
      "M_V_Customer_Order_Order_line_O_ID"]),
    (("X_V_Customer_Order_C_ID", "index", ("C_ID", "O_ID"), (I, I),
      CUSTOMER + ORDER), []),
    (("X_V_Customer_Order_Order_line_C_ID", "index", ("C_ID", "OL_ID"),
      (I, I), CUSTOMER + ORDER + ORDER_LINE), []),
    (("M_V_Customer_Order_Order_line_O_ID", "index", ("O_ID", "OL_ID"),
      (I, I), CUSTOMER + ORDER + ORDER_LINE), []),
    (("LK_Customer", "lock", ("C_ID",), (I,), ("lock_status",)), []),
]

COMPANY_BASES = [
    (("Address", "base", ("AID",), (I,), ADDRESS), []),
    (("Department", "base", ("DNo",), (I,), ("DNo", "DName")), []),
    (("Employee", "base", ("EID",), (I,), EMPLOYEE), []),
    (("Works_On", "base", ("WO_EID", "WO_PNo"), (I, I), WORKS_ON), []),
]
COMPANY_VIEWS = [
    (("V_Address_Employee", "view", ("EID",), (I,), ADDRESS + EMPLOYEE), []),
    (("V_Employee_Works_On", "view", ("WO_EID", "WO_PNo"), (I, I),
      EMPLOYEE + WORKS_ON), ["X_V_Employee_Works_On_Hours"]),
    (("X_V_Employee_Works_On_Hours", "index", ("Hours", "WO_EID", "WO_PNo"),
      (I, I, I), EMPLOYEE + WORKS_ON), []),
]
COMPANY_LOCKS = [
    (("LK_Address", "lock", ("AID",), (I,), ("lock_status",)), []),
    (("LK_Department", "lock", ("DNo",), (I,), ("lock_status",)), []),
]

INDEXED_COMPANY_HANDLES = [
    COMPANY_BASES[0], COMPANY_BASES[1],
    (COMPANY_BASES[2][0], ["X_Employee_EName"]),
    COMPANY_BASES[3],
    (("X_Employee_EName", "index", ("EName", "EID"), (S, I), EMPLOYEE), []),
    COMPANY_VIEWS[0],
    (COMPANY_VIEWS[1][0], ["X_V_Employee_Works_On_Hours",
                           "M_V_Employee_Works_On_EID"]),
    COMPANY_VIEWS[2],
    (("M_V_Employee_Works_On_EID", "index", ("EID", "WO_EID", "WO_PNo"),
      (I, I, I), EMPLOYEE + WORKS_ON), []),
] + COMPANY_LOCKS


@pytest.mark.parametrize("build, expected", [
    (lambda: build_fixture("tpcw-micro"), TPCW_HANDLES),
    (lambda: build_fixture("company"),
     COMPANY_BASES + COMPANY_VIEWS + COMPANY_LOCKS),
    (indexed_company, INDEXED_COMPANY_HANDLES),
], ids=["tpcw-micro", "company", "schema-index"])
def test_every_handle_is_pinned_in_creation_order(build, expected):
    db = Database.create(*build())
    try:
        got = [((h.name, h.kind, h.key_attrs, h.key_types, h.columns),
                [i.name for i in db.catalog.indexes_of(h.name)])
               for h in db.catalog.all_handles()]
        assert got == expected
    finally:
        db.close()


# -- one plan source: open plans again from the saved inputs -------------------

@pytest.mark.parametrize("fixture", FIXTURES)
def test_open_reports_the_plan_that_create_made(tmp_path, fixture):
    data_dir = str(tmp_path / "d")
    db = Database.create(*build_fixture(fixture), data_dir=data_dir)
    try:
        report = format_generation_report(db)
        db.save(data_dir)
    finally:
        db.close()
    with open(os.path.join(data_dir, PIPELINE_FILE), encoding="utf-8") as fh:
        assert sorted(json.load(fh)) == ["roots", "workload"]
    reopened = Database.open(data_dir)
    try:
        assert format_generation_report(reopened) == report
    finally:
        reopened.close()


def test_roots_override_survives_save_and_open(tmp_path):
    data_dir = str(tmp_path / "d")
    roots = ("Department", "Address")      # the schema says Address first
    db = Database.create(company_schema(), company_workload(), roots=roots,
                         data_dir=data_dir)
    try:
        assert [t.root for t in db.trees] == list(roots)
        populate_company(db, employees=6, seed=4)
        db.save(data_dir)
    finally:
        db.close()
    reopened = Database.open(data_dir)
    try:
        assert reopened.trees == db.trees
        assert reopened.views == db.views
        assert reopened.catalog.all_handles() == db.catalog.all_handles()
        report = reopened.verify()
        assert report.ok, report.describe()
    finally:
        reopened.close()


OPEN_AND_DESCRIBE = """\
import json, sys
from synergy.db import Database
from synergy.sqlparse import render_statement
db = Database.open(sys.argv[1])
print(json.dumps([[repr(h) for h in db.catalog.all_handles()],
                  [render_statement(s) for s in db.rewrite.statements]]))
db.close()
"""


@pytest.mark.parametrize("hash_seed", ["1", "77"])
def test_open_under_another_hash_seed_plans_the_same(tmp_path, hash_seed):
    data_dir = str(tmp_path / "d")
    db = Database.create(tpcw_micro_schema(), tpcw_micro_workload(),
                         data_dir=data_dir)
    try:
        db.save(data_dir)
        expected = [[repr(h) for h in db.catalog.all_handles()],
                    [render_statement(s) for s in db.rewrite.statements]]
    finally:
        db.close()
    src = os.path.dirname(os.path.dirname(storage.__file__))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", OPEN_AND_DESCRIBE, data_dir],
                         env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == expected


def test_open_refuses_a_workload_that_lost_a_read(tmp_path):
    """Without Q2 the plan has no Customer-Order-Order_line view, so the
    snapshot names tables the catalog lacks: open fails instead of serving
    a short catalog."""
    data_dir = str(tmp_path / "d")
    db = Database.create(tpcw_micro_schema(), tpcw_micro_workload(),
                         data_dir=data_dir)
    try:
        populate_tpcw_micro(db, scale=2, ratio=2, seed=1)
        db.save(data_dir)
        q2 = render_statement(db.workload[1])
    finally:
        db.close()
    path = os.path.join(data_dir, PIPELINE_FILE)
    with open(path, encoding="utf-8") as fh:
        pipeline = json.load(fh)
    pipeline["workload"].remove(q2)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(pipeline, fh)
    with pytest.raises(UnknownTableError,
                       match="V_Customer_Order_Order_line"):
        Database.open(data_dir)


def test_failed_save_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    data_dir = str(tmp_path / "d")
    db = Database.create(company_schema(), company_workload())
    try:
        populate_company(db, employees=6, seed=5)
        db.save(data_dir)
        first = db.execute("SELECT * FROM Employee as e WHERE e.EID = 1")
        db.execute("UPDATE Employee SET ESalary = 12345 WHERE EID = 1")
        real, columns = storage._encode_column, itertools.count()

        def failing(values):        # partway through dozens of columns
            if next(columns) == 12:
                raise OSError("disk full")
            return real(values)

        monkeypatch.setattr(storage, "_encode_column", failing)
        with pytest.raises(OSError, match="disk full"):
            db.save(data_dir)
    finally:
        db.close()
    assert sorted(os.listdir(data_dir)) == [
        "pipeline.json", "schema.json", "snapshot.bin", "wal.bin"]
    reopened = Database.open(data_dir)
    try:
        report = reopened.verify()
        assert report.ok, report.describe()
        assert reopened.execute(
            "SELECT * FROM Employee as e WHERE e.EID = 1") == first
    finally:
        reopened.close()


# -- the checkpoint holds no index: open rebuilds each from its table ----------

def snapshot_sections(path) -> dict:
    """Each section of a snapshot file: name -> [(key, row)]."""
    data = open(path, "rb").read()
    reader = storage._Reader(data, len(storage.Store._MAGIC))
    return {reader.name(): storage._decode_section(reader)
            for _ in range(reader.array("I", 1)[0])}


def saved_database(data_dir, fixture):
    """A small populated database of ``fixture``, saved into ``data_dir``
    and closed."""
    db = Database.create(*build_fixture(fixture), data_dir=data_dir)
    try:
        populate(db, fixture, scale=4, ratio=2, seed=3)
        db.save(data_dir)
    finally:
        db.close()
    return db


def assert_index_rows_are_table_rows(db):
    for name, idx in db.catalog.index_defs.items():
        base = db.catalog.handle(idx.base)
        rows = db.store.scan(name)
        assert len(rows) == db.store.count(idx.base), name
        for _, cells in rows:
            assert db.store.get(idx.base, storage.key_of(base, cells)) \
                is cells, name


@pytest.mark.parametrize("fixture", FIXTURES)
def test_index_rows_are_their_table_rows_after_open(tmp_path, fixture):
    data_dir = str(tmp_path / "d")
    created = saved_database(data_dir, fixture)
    assert created.catalog.index_defs
    db = Database.open(data_dir)
    try:
        assert_index_rows_are_table_rows(db)
        report = db.verify()
        assert report.ok, report.describe()
    finally:
        db.close()


@pytest.mark.parametrize("fixture", FIXTURES)
def test_a_saved_snapshot_holds_no_index_section(tmp_path, fixture):
    data_dir = str(tmp_path / "d")
    db = saved_database(data_dir, fixture)
    sections = snapshot_sections(os.path.join(data_dir, "snapshot.bin"))
    assert sorted(sections) == sorted(
        h.name for h in db.catalog.all_handles() if h.kind != "index")


def test_a_snapshot_holding_index_sections_opens_to_rebuilt_indexes(tmp_path):
    """The older layout wrote a section per index.  Such a snapshot still
    opens, and the rebuild, not the loaded section, decides each index:
    a stale row in a stored index section is gone after open."""
    data_dir = str(tmp_path / "d")
    db = saved_database(data_dir, "tpcw-micro")
    path = os.path.join(data_dir, "snapshot.bin")
    sections = snapshot_sections(path)
    view = "V_Customer_Order_Order_line"
    for name, idx in db.catalog.index_defs.items():
        handle = db.catalog.handle(name)
        sections[name] = sorted((storage.key_of(handle, row), row)
                                for _, row in sections[idx.base])
    stale_key, stale = sections["X_" + view + "_C_ID"][0]
    sections["X_" + view + "_C_ID"][0] = (stale_key, {**stale, "OL_QTY": -1})
    with open(path, "wb") as fh:
        fh.write(storage.Store._MAGIC + struct.pack(">I", len(sections)))
        for name in sorted(sections):
            fh.write(storage._encode_section(
                name, [k for k, _ in sections[name]],
                [row for _, row in sections[name]]))
    reopened = Database.open(data_dir)
    try:
        report = reopened.verify()
        assert report.ok, report.describe()
        assert reopened.store.get("X_" + view + "_C_ID", stale_key) == stale
        assert_index_rows_are_table_rows(reopened)
    finally:
        reopened.close()
