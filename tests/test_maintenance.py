import random

import pytest

from synergy import oracle
from synergy.db import Database
from synergy.fixtures import (company_schema, company_workload,
                              tpcw_micro_schema, tpcw_micro_workload)
from synergy.maintenance import build_insert_view_tuple, plan_update_rows
from synergy.schema import ForeignKey, RelationDef, SchemaDef
from synergy.sqlparse import Insert, parse_statement
from synergy.storage import encode_key


class CountingReader:
    """Wraps a store, counting point reads and scans."""

    def __init__(self, store):
        self.store = store
        self.gets = 0
        self.scans = 0

    def get(self, table, key):
        self.gets += 1
        return self.store.get(table, key)

    def scan(self, *args, **kwargs):
        self.scans += 1
        return self.store.scan(*args, **kwargs)


@pytest.fixture()
def orders_db():
    db = Database.create(tpcw_micro_schema(), tpcw_micro_workload())
    yield db
    db.close()


@pytest.fixture()
def company_db():
    db = Database.create(company_schema(), company_workload())
    yield db
    db.close()


def view_by_name(db, name):
    return next(v for v in db.views if v.name == name)


def test_insert_tuple_walks_ancestor_chain(orders_db):
    db = orders_db
    db.execute("INSERT INTO Customer (C_ID, C_UNAME, C_BALANCE) "
               "VALUES (3, 'carol', 9)")
    db.execute("INSERT INTO Order (O_ID, O_C_ID, O_STATUS, O_TOTAL) "
               "VALUES (7, 3, 'pending', 40)")
    view = view_by_name(db, "V_Customer_Order_Order_line")
    insert = parse_statement(
        "INSERT INTO Order_line (OL_ID, OL_O_ID, OL_I_ID, OL_QTY) "
        "VALUES (1, 7, 500, 2)")
    built = build_insert_view_tuple(view, insert, db.store, db.catalog)
    assert built is not None
    key, cells = built
    assert key == encode_key((1,), ("int",))
    assert cells == {"C_ID": 3, "C_UNAME": "carol", "C_BALANCE": 9,
                     "O_ID": 7, "O_C_ID": 3, "O_STATUS": "pending",
                     "O_TOTAL": 40, "OL_ID": 1, "OL_O_ID": 7,
                     "OL_I_ID": 500, "OL_QTY": 2}


def test_insert_tuple_missing_ancestor_yields_nothing(orders_db):
    db = orders_db
    view = view_by_name(db, "V_Customer_Order")
    insert = parse_statement(
        "INSERT INTO Order (O_ID, O_C_ID, O_STATUS, O_TOTAL) "
        "VALUES (7, 999, 'pending', 40)")
    assert build_insert_view_tuple(view, insert, db.store, db.catalog) is None


def chain_db(depth):
    relations = {}
    prev = None
    for i in range(depth):
        name = f"R{i}"
        attrs = [(f"k{i}", "int"), (f"v{i}", "int")]
        fks = ()
        if prev:
            attrs.append((f"p{i}", "int"))
            fks = (ForeignKey(f"p{i}", (f"p{i}",), prev),)
        relations[name] = RelationDef(name, tuple(attrs), (f"k{i}",), fks)
        prev = name
    schema = SchemaDef(relations, roots=("R0",))
    joins = " and ".join(f"r{i}.k{i} = r{i+1}.p{i+1}"
                         for i in range(depth - 1))
    tables = ", ".join(f"R{i} as r{i}" for i in range(depth))
    q = parse_statement(f"SELECT * FROM {tables} WHERE {joins}")
    return Database.create(schema, [q])


@pytest.mark.parametrize("k", [2, 3, 4])
def test_insert_view_tuple_uses_exactly_k_minus_1_reads(k):
    db = chain_db(k)
    try:
        for i in range(k):
            cols = [(f"k{i}", 1), (f"v{i}", i)]
            if i:
                cols.append((f"p{i}", 1))
            db.execute(Insert(f"R{i}", tuple(cols)))
        view = view_by_name(db, "V_" + "_".join(f"R{i}" for i in range(k)))
        insert = Insert(f"R{k-1}", ((f"k{k-1}", 2), (f"v{k-1}", 0),
                                    (f"p{k-1}", 1)))
        reader = CountingReader(db.store)
        built = build_insert_view_tuple(view, insert, reader, db.catalog)
        assert built is not None
        assert reader.gets == k - 1
        assert reader.scans == 0
    finally:
        db.close()


def test_delete_index_keys_for_hours_index(company_db):
    db = company_db
    db.execute("INSERT INTO Address (AID, Astreet, Acity) "
               "VALUES (1, 'a', 'c')")
    db.execute("INSERT INTO Department (DNo, DName) VALUES (1, 'd')")
    db.execute("INSERT INTO Employee (EID, EName, ESalary, EHome_AID, "
               "EOffice_AID, E_DNo) VALUES (5, 'e', 10, 1, 1, 1)")
    db.execute("INSERT INTO Works_On (WO_EID, WO_PNo, Hours) "
               "VALUES (5, 2, 30)")
    index = "X_V_Employee_Works_On_Hours"
    key = encode_key((30, 5, 2), ("int", "int", "int"))
    assert db.store.get(index, key) is not None
    result = db.execute("DELETE FROM Works_On WHERE WO_EID = 5 AND WO_PNo = 2")
    assert db.store.get(index, key) is None
    assert db.store.count(index) == 0
    assert (result.view_rows, result.index_rows) == (1, 1)
    report = db.verify()
    assert report.ok, report.describe()


def test_delete_index_keys_without_view_row(company_db):
    db = company_db
    # the Works_On row lands before its Employee, so it gets no view row
    db.execute("INSERT INTO Works_On (WO_EID, WO_PNo, Hours) "
               "VALUES (5, 2, 30)")
    db.execute("INSERT INTO Address (AID, Astreet, Acity) "
               "VALUES (1, 'a', 'c')")
    db.execute("INSERT INTO Department (DNo, DName) VALUES (1, 'd')")
    db.execute("INSERT INTO Employee (EID, EName, ESalary, EHome_AID, "
               "EOffice_AID, E_DNo) VALUES (5, 'e', 10, 1, 1, 1)")
    assert db.store.count("V_Employee_Works_On") == 0
    result = db.execute("DELETE FROM Works_On WHERE WO_EID = 5 AND WO_PNo = 2")
    assert (result.base_rows, result.view_rows, result.index_rows) == (1, 0, 0)
    assert db.store.count("X_V_Employee_Works_On_Hours") == 0
    report = db.verify()
    assert report.ok, report.describe()


def test_delete_index_keys_view_without_indexes(orders_db):
    db = orders_db
    db.execute("INSERT INTO Customer (C_ID, C_UNAME, C_BALANCE) "
               "VALUES (1, 'u', 0)")
    db.execute("INSERT INTO Order (O_ID, O_C_ID, O_STATUS, O_TOTAL) "
               "VALUES (1, 1, 's', 1)")
    db.execute("INSERT INTO Order_line (OL_ID, OL_O_ID, OL_I_ID, OL_QTY) "
               "VALUES (1, 1, 1, 1)")
    pair = encode_key((1, 1), ("int", "int"))
    # the line's view carries a C_ID and an O_ID index; the order's view
    # carries only a C_ID index
    result = db.execute("DELETE FROM Order_line WHERE OL_ID = 1")
    assert result.index_rows == 2
    assert db.store.get("X_V_Customer_Order_Order_line_C_ID", pair) is None
    assert db.store.get("M_V_Customer_Order_Order_line_O_ID", pair) is None
    assert db.store.get("X_V_Customer_Order_C_ID", pair) is not None
    result = db.execute("DELETE FROM Order WHERE O_ID = 1")
    assert result.index_rows == 1
    assert db.store.get("X_V_Customer_Order_C_ID", pair) is None
    report = db.verify()
    assert report.ok, report.describe()


def test_update_plan_fans_out_across_view_rows(company_db):
    db = company_db
    db.execute("INSERT INTO Address (AID, Astreet, Acity) VALUES (1,'a','c')")
    db.execute("INSERT INTO Department (DNo, DName) VALUES (1, 'd')")
    db.execute("INSERT INTO Employee (EID, EName, ESalary, EHome_AID, "
               "EOffice_AID, E_DNo) VALUES (5, 'e', 10, 1, 1, 1)")
    for pno in (1, 2, 3):
        db.execute(f"INSERT INTO Works_On (WO_EID, WO_PNo, Hours) "
                   f"VALUES (5, {pno}, {pno * 10})")
    view = view_by_name(db, "V_Employee_Works_On")
    update = parse_statement(
        "UPDATE Employee SET ESalary = 99 WHERE EID = 5")
    plan = plan_update_rows(view, update, db.store, db.catalog)
    assert len(plan.rows) == 3
    for _, old, new in plan.rows:
        assert old["ESalary"] == 10
        assert new["ESalary"] == 99
        assert new["Hours"] == old["Hours"]

    # the Hours view-index rows keep their keys (Hours unchanged)
    index = "X_V_Employee_Works_On_Hours"
    keys = [k for k, _ in db.store.scan(index)]
    assert len(keys) == 3
    db.execute(update)
    assert [k for k, _ in db.store.scan(index)] == keys
    assert all(cells["ESalary"] == 99 for _, cells in db.store.scan(index))

    # brute-force oracle: the stored view matches a recomputed join
    base = {n: [c for _, c in db.store.scan(n)] for n in db.schema.relations}
    expected = oracle.expected_view_rows(view, base)
    actual = [c for _, c in db.store.scan(view.name)]
    assert oracle.row_multiset(actual) == oracle.row_multiset(expected)


def test_update_plan_uses_maintenance_index_without_scanning(orders_db):
    db = orders_db
    db.execute("INSERT INTO Customer (C_ID, C_UNAME, C_BALANCE) "
               "VALUES (1, 'u', 0)")
    for o in (1, 2):
        db.execute(f"INSERT INTO Order (O_ID, O_C_ID, O_STATUS, O_TOTAL) "
                   f"VALUES ({o}, 1, 's', 1)")
        for j in (1, 2):
            db.execute(f"INSERT INTO Order_line (OL_ID, OL_O_ID, OL_I_ID, "
                       f"OL_QTY) VALUES ({o * 10 + j}, {o}, 1, 1)")
    view = view_by_name(db, "V_Customer_Order_Order_line")
    update = parse_statement("UPDATE Order SET O_STATUS = 'x' WHERE O_ID = 2")
    reader = CountingReader(db.store)
    plan = plan_update_rows(view, update, reader, db.catalog)
    assert sorted(new["OL_ID"] for _, _, new in plan.rows) == [21, 22]
    assert reader.scans == 1          # one index prefix scan, no view scan


def test_replay_equivalence_random_mutations(orders_db):
    """Parent-first inserts, leaf deletes, and non-key updates keep every
    view equal to the brute-force join of the base tables."""
    db = orders_db
    rng = random.Random(11)
    customers, orders, lines = [], [], []
    next_id = 0
    for _ in range(300):
        roll = rng.random()
        next_id += 1
        if roll < 0.25 or not customers:
            customers.append(next_id)
            db.execute(Insert("Customer", (("C_ID", next_id),
                                           ("C_UNAME", f"u{next_id}"),
                                           ("C_BALANCE", rng.randrange(100)))))
        elif roll < 0.5 or not orders:
            orders.append(next_id)
            db.execute(Insert("Order", (("O_ID", next_id),
                                        ("O_C_ID", rng.choice(customers)),
                                        ("O_STATUS", "s"),
                                        ("O_TOTAL", rng.randrange(100)))))
        elif roll < 0.75:
            lines.append(next_id)
            db.execute(Insert("Order_line", (("OL_ID", next_id),
                                             ("OL_O_ID", rng.choice(orders)),
                                             ("OL_I_ID", rng.randrange(50)),
                                             ("OL_QTY", rng.randrange(9) + 1))))
        elif roll < 0.9 and lines:
            victim = lines.pop(rng.randrange(len(lines)))
            db.execute(parse_statement(
                f"DELETE FROM Order_line WHERE OL_ID = {victim}"))
        else:
            db.execute(parse_statement(
                f"UPDATE Customer SET C_BALANCE = {rng.randrange(1000)} "
                f"WHERE C_ID = {rng.choice(customers)}"))
    report = db.verify()
    assert report.ok, report.describe()
