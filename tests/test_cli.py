import csv
import os

import pytest

from synergy.cli import bench_locks, main
from synergy.db import Database
from synergy.fixtures import (COMPANY_WORKLOAD, TPCW_MICRO_WORKLOAD,
                              company_schema, company_workload,
                              populate_tpcw_micro, tpcw_micro_schema,
                              tpcw_micro_workload)
from synergy.schema import save_schema
from synergy.storage import DIRTY


@pytest.fixture()
def company_files(tmp_path):
    schema_path = tmp_path / "schema.json"
    save_schema(company_schema(), schema_path)
    workload_path = tmp_path / "workload.sql"
    workload_path.write_text(COMPANY_WORKLOAD, encoding="utf-8")
    return str(schema_path), str(workload_path)


def test_gen_views_report_shows_dropped_edge(company_files, tmp_path, capsys):
    schema_path, workload_path = company_files
    out = tmp_path / "out"
    rc = main(["gen-views", "--schema", schema_path,
               "--workload", workload_path, "--out", str(out)])
    assert rc == 0
    report = (out / "report.txt").read_text(encoding="utf-8")
    assert "dropped: Address -> Employee (AID -> EOffice_AID)" in report
    assert "Address -> Department -> Employee -> Works_On" in report
    rewritten = (out / "workload_rewritten.sql").read_text(encoding="utf-8")
    assert "V_Address_Employee" in rewritten.splitlines()[0]
    ddl = (out / "ddl.txt").read_text(encoding="utf-8")
    assert "CREATE VIEW V_Employee_Works_On" in ddl
    assert "CREATE INDEX X_V_Employee_Works_On_Hours" in ddl


def test_gen_views_is_deterministic(company_files, tmp_path):
    schema_path, workload_path = company_files
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    main(["gen-views", "--schema", schema_path, "--workload", workload_path,
          "--out", str(out1)])
    main(["gen-views", "--schema", schema_path, "--workload", workload_path,
          "--out", str(out2)])
    assert (out1 / "report.txt").read_bytes() == \
        (out2 / "report.txt").read_bytes()


def test_gen_views_empty_workload_identity(tmp_path, capsys):
    schema_path = tmp_path / "schema.json"
    save_schema(company_schema(), schema_path)
    workload_path = tmp_path / "empty.sql"
    workload_path.write_text("# nothing\n", encoding="utf-8")
    out = tmp_path / "out"
    rc = main(["gen-views", "--schema", str(schema_path),
               "--workload", str(workload_path), "--out", str(out)])
    assert rc == 0
    report = (out / "report.txt").read_text(encoding="utf-8")
    assert "== selected views ==\n== rewritten workload ==" in report
    assert (out / "workload_rewritten.sql").read_text() == ""


def test_gen_views_micro_fixture_selects_both_views(tmp_path):
    schema_path = tmp_path / "schema.json"
    save_schema(tpcw_micro_schema(), schema_path)
    workload_path = tmp_path / "w.sql"
    workload_path.write_text(TPCW_MICRO_WORKLOAD, encoding="utf-8")
    out = tmp_path / "out"
    rc = main(["gen-views", "--schema", str(schema_path),
               "--workload", str(workload_path), "--out", str(out)])
    assert rc == 0
    report = (out / "report.txt").read_text(encoding="utf-8")
    assert "V_Customer_Order:" in report
    assert "V_Customer_Order_Order_line:" in report


def test_rewrite_workload_prints_statements(company_files, capsys):
    schema_path, workload_path = company_files
    rc = main(["rewrite-workload", "--schema", schema_path,
               "--workload", workload_path])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "SELECT * FROM V_Address_Employee AS v1 WHERE v1.EID = ?"
    assert len(lines) == 3


def test_populate_verify_cycle(tmp_path, capsys):
    data_dir = str(tmp_path / "data")
    rc = main(["populate", "--fixture", "tpcw-micro", "--scale", "10",
               "--ratio", "3", "--seed", "4", "--data-dir", data_dir])
    assert rc == 0
    assert os.path.exists(os.path.join(data_dir, "snapshot.bin"))
    rc = main(["verify", "--data-dir", data_dir])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verify: PASS" in out


def test_populate_counts_follow_scale_and_ratio(tmp_path):
    db = Database.create(tpcw_micro_schema(), tpcw_micro_workload())
    try:
        populate_tpcw_micro(db, scale=10, ratio=3, seed=4)
        assert db.store.count("Customer") == 10
        assert db.store.count("Order") == 30
        assert db.store.count("Order_line") == 90
        assert db.store.count("V_Customer_Order") == 30
        assert db.store.count("V_Customer_Order_Order_line") == 90
    finally:
        db.close()


def test_populate_scale_one_ratio_one(tmp_path):
    db = Database.create(tpcw_micro_schema(), tpcw_micro_workload())
    try:
        populate_tpcw_micro(db, scale=1, ratio=1, seed=1)
        assert db.store.count("Customer") == 1
        assert db.store.count("Order") == 1
        assert db.store.count("Order_line") == 1
    finally:
        db.close()


def test_repopulate_same_seed_is_byte_identical(tmp_path):
    snaps = []
    for run in (1, 2):
        db = Database.create(tpcw_micro_schema(), tpcw_micro_workload())
        try:
            populate_tpcw_micro(db, scale=5, ratio=2, seed=9)
            path = tmp_path / f"snap{run}.bin"
            db.store.save_snapshot(path)
            snaps.append(path.read_bytes())
        finally:
            db.close()
    assert snaps[0] == snaps[1]


def test_verify_detects_injected_corruption(tmp_path, capsys):
    data_dir = str(tmp_path / "data")
    main(["populate", "--fixture", "tpcw-micro", "--scale", "5",
          "--ratio", "2", "--seed", "1", "--data-dir", data_dir])
    db = Database.open(data_dir)
    try:
        key, cells = next(iter(db.store.scan("V_Customer_Order")))
        broken = dict(cells)
        broken["O_TOTAL"] = broken["O_TOTAL"] + 1
        db.store.put("V_Customer_Order", key, broken)
        report = db.verify()
        assert not report.ok
        assert report.diffs["V_Customer_Order"].mismatched == 1
    finally:
        db.close()


def test_verify_counts_surviving_dirty_cells(tmp_path):
    db = Database.create(tpcw_micro_schema(), tpcw_micro_workload())
    try:
        populate_tpcw_micro(db, scale=3, ratio=2, seed=1)
        key, cells = next(iter(db.store.scan("V_Customer_Order")))
        marked = dict(cells)
        marked[DIRTY] = True
        db.store.put("V_Customer_Order", key, marked)
        report = db.verify()
        assert report.dirty_cells == 1
        assert not report.ok
    finally:
        db.close()


def test_bench_join_csv_columns(tmp_path):
    out = tmp_path / "bench.csv"
    rc = main(["bench-join", "--fixture", "tpcw-micro", "--scale", "20",
               "--ratio", "2", "--seed", "1", "--repeats", "2",
               "--query", "all", "--mode", "both", "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {"scale", "query", "mode", "mean_ms", "stderr_ms"}
    assert {(r["query"], r["mode"]) for r in rows} == {
        ("q1", "join"), ("q1", "view"), ("q2", "join"), ("q2", "view")}
    assert all(float(r["mean_ms"]) >= 0 for r in rows)


def test_bench_locks_zero_count_is_fast_and_monotone(tmp_path):
    rows = bench_locks([0, 10, 100], repeats=3)
    medians = [float(r["median_ms"]) for r in rows]
    assert medians[0] <= medians[1] <= medians[2]
    assert medians[0] < 1.0


def test_bench_locks_cli_csv(tmp_path):
    out = tmp_path / "locks.csv"
    rc = main(["bench-locks", "--counts", "10,50", "--repeats", "2",
               "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["count"] for r in rows] == ["10", "50"]


def test_run_workload_concurrent_then_verify(tmp_path, capsys):
    data_dir = str(tmp_path / "data")
    main(["populate", "--fixture", "tpcw-micro", "--scale", "20",
          "--ratio", "2", "--seed", "3", "--data-dir", data_dir])
    workload = tmp_path / "mixed.sql"
    workload.write_text(
        "SELECT * FROM Customer as c, Order as o "
        "WHERE c.C_ID = o.O_C_ID and c.C_ID = ?\n"
        "UPDATE Customer SET C_BALANCE = ? WHERE C_ID = ?\n"
        "UPDATE Order SET O_STATUS = 'x' WHERE O_ID = ?\n",
        encoding="utf-8")
    out = tmp_path / "times.csv"
    rc = main(["run", "--workload", str(workload), "--data-dir", data_dir,
               "--threads", "8", "--repeats", "6", "--param-max", "20",
               "--seed", "5", "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert {r["kind"] for r in rows} == {"selectjoin", "update"}
    db = Database.open(data_dir)
    try:
        assert db.verify().ok
    finally:
        db.close()


def test_explain_prints_base_and_rewritten_plans(capsys):
    assert main(["explain", "--position", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("base: SELECT * FROM Customer AS c")
    assert lines[1:4] == [
        "c: prefix scan Customer key=[?0]",
        "o: full scan Order filter=[O_C_ID = c.C_ID]",
        "ol: hash scan Order_line on OL_O_ID = o.O_ID"]
    assert lines[4].startswith(
        "rewritten: SELECT * FROM V_Customer_Order_Order_line")
    assert lines[5] == \
        "v1: index scan X_V_Customer_Order_Order_line_C_ID key=[?0]"
    assert main(["explain", "--fixture", "company", "--sql",
                 "SELECT * FROM Address as a WHERE a.AID = 2"]) == 0
    assert "a: prefix scan Address key=[2]" in capsys.readouterr().out
    assert main(["explain", "--position", "2"]) == 2


def test_run_unknown_workload_file_fails(tmp_path):
    rc = main(["run", "--workload", str(tmp_path / "missing.sql"),
               "--fixture", "tpcw-micro", "--scale", "2"])
    assert rc == 1


def test_to_gnuplot(tmp_path, capsys):
    src = tmp_path / "in.csv"
    src.write_text("a,b\n1,2\n", encoding="utf-8")
    rc = main(["to-gnuplot", "--csv", str(src)])
    assert rc == 0
    assert capsys.readouterr().out == "a b\n1 2\n"


def test_database_save_open_round_trip(tmp_path):
    data_dir = str(tmp_path / "d")
    db = Database.create(tpcw_micro_schema(), tpcw_micro_workload(),
                         data_dir=data_dir)
    populate_tpcw_micro(db, scale=4, ratio=2, seed=2)
    counts = {h.name: db.store.count(h.name)
              for h in db.catalog.all_handles()}
    db.save(data_dir)
    db.close()

    reopened = Database.open(data_dir)
    try:
        assert {h.name: reopened.store.count(h.name)
                for h in reopened.catalog.all_handles()} == counts
        assert reopened.recovery.replayed == []
        assert reopened.verify().ok
        # and it still executes statements
        rows = reopened.execute(reopened.rewrite.statements[0], (1,))
        assert len(rows) == 2
    finally:
        reopened.close()
