"""End-to-end flows that cut across modules: string and composite keys,
lock timeouts surfacing through the write path, restart recovery via the
persisted data directory, and ``open`` planning again from the saved
inputs."""

import itertools
import json
import os
import subprocess
import sys

import pytest

from synergy import storage, txn
from synergy.cli import format_generation_report
from synergy.db import PIPELINE_FILE, Database
from synergy.errors import (LockTimeout, SnapshotCorruptionError,
                            UnknownTableError)
from synergy.fixtures import (FIXTURES, build_fixture, company_schema,
                              company_workload, populate, populate_company,
                              populate_tpcw_micro, tpcw_micro_schema,
                              tpcw_micro_workload)
from synergy.schema import LOCK, ForeignKey, IndexDef, RelationDef, SchemaDef
from synergy.sqlparse import parse_statement, parse_workload, render_statement
from synergy.storage import encode_key
from synergy.txn import (CrashInjected, WriteAheadLog, read_wal,
                         pending_transactions)


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
        db.save(str(tmp_path))
    finally:
        db.close()
    reopened = Database.open(str(tmp_path))
    try:
        assert reopened.execute("SELECT * FROM Customer") == [
            {"C_ID": 1, "C_UNAME": "\ud800", "C_BALANCE": 0}]
        assert any("\ud800" in r.statement
                   for r in read_wal(reopened.wal.path))
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
    db.txn.crash_after_update_step = 4      # marks still set, lock held
    with pytest.raises(CrashInjected):
        db.execute("UPDATE Customer SET C_BALANCE = 42 WHERE C_ID = 1")
    db.save(data_dir)                        # snapshot of the torn state
    db.wal.close()

    reopened = Database.open(data_dir)
    try:
        assert len(reopened.recovery.replayed) == 1
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


def test_second_open_after_recovery_replays_nothing(tmp_path):
    data_dir = str(tmp_path / "d")
    db = Database.create(tpcw_micro_schema(), tpcw_micro_workload(),
                         data_dir=data_dir)
    db.execute("INSERT INTO Customer (C_ID, C_UNAME, C_BALANCE) "
               "VALUES (1, 'u', 0)")
    db.txn.crash_after_update_step = 3
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
    earlier.wal.close()

    db = Database.create(tpcw_micro_schema(), tpcw_micro_workload(),
                         data_dir=data_dir)
    with open(db.wal.path, "rb") as fh:
        assert fh.read() == WriteAheadLog.MAGIC
    db.save(data_dir)
    db.close()
    reopened = Database.open(data_dir)
    try:
        assert reopened.recovery.replayed == []
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
    schema.indexes = (IndexDef("X_Item_title", "Item",
                               ("I_ID", "I_TITLE", "I_COST"), ("I_TITLE",)),)
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
        assert reopened.store.table_names() == db.store.table_names()
    finally:
        reopened.close()


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
                       match="M_V_Customer_Order_Order_line_O_ID"):
        Database.open(data_dir)


def test_failed_save_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    data_dir = str(tmp_path / "d")
    db = Database.create(company_schema(), company_workload())
    try:
        populate_company(db, employees=6, seed=5)
        db.save(data_dir)
        first = db.execute("SELECT * FROM Employee as e WHERE e.EID = 1")
        db.execute("UPDATE Employee SET ESalary = 12345 WHERE EID = 1")
        real, cells = storage._encode_cell, itertools.count()

        def failing(value):         # the snapshot has hundreds of cells
            if next(cells) == 40:
                raise OSError("disk full")
            return real(value)

        monkeypatch.setattr(storage, "_encode_cell", failing)
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
