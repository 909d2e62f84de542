"""Built-in schemas, workloads, and data generators.

Two fixtures: the Company example used throughout the planning tests, and
the three-relation order micro-benchmark (plus the standalone Country
relation, which belongs to no rooted tree).  Population is deterministic
for a given seed and routes every write through the transaction layer so
views and indexes are maintained, not bulk-loaded.
"""

from __future__ import annotations

import random

from .schema import ForeignKey, RelationDef, SchemaDef
from .sqlparse import (AttrRef, Delete, Filter, Insert, Statement, Update,
                       parse_workload)

FIXTURES = ("company", "tpcw-micro")


# -- Company ------------------------------------------------------------------

def company_schema() -> SchemaDef:
    relations = {}
    for rel in (
        RelationDef(
            name="Address",
            attributes=(("AID", "int"), ("Astreet", "string"),
                        ("Acity", "string")),
            primary_key=("AID",)),
        RelationDef(
            name="Department",
            attributes=(("DNo", "int"), ("DName", "string")),
            primary_key=("DNo",)),
        RelationDef(
            name="Employee",
            attributes=(("EID", "int"), ("EName", "string"),
                        ("ESalary", "int"), ("EHome_AID", "int"),
                        ("EOffice_AID", "int"), ("E_DNo", "int")),
            primary_key=("EID",),
            foreign_keys=(
                ForeignKey("EHome_AID", ("EHome_AID",), "Address"),
                ForeignKey("EOffice_AID", ("EOffice_AID",), "Address"),
                ForeignKey("E_DNo", ("E_DNo",), "Department"))),
        RelationDef(
            name="Works_On",
            attributes=(("WO_EID", "int"), ("WO_PNo", "int"),
                        ("Hours", "int")),
            primary_key=("WO_EID", "WO_PNo"),
            foreign_keys=(
                ForeignKey("WO_EID", ("WO_EID",), "Employee"),)),
    ):
        relations[rel.name] = rel
    schema = SchemaDef(relations, indexes=(),
                       roots=("Address", "Department"))
    schema.validate()
    return schema


COMPANY_WORKLOAD = """\
# W1: address details of an employee
SELECT * FROM Employee as e, Address as a WHERE a.AID = e.EHome_AID and e.EID = ?
# W2: employees and their hours for a department
SELECT * FROM Department as d, Employee as e, Works_On as wo WHERE d.DNo = e.E_DNo and e.EID = wo.WO_EID and d.DNo = ?
# W3: employees working a given number of hours
SELECT * FROM Employee as e, Works_On as wo WHERE e.EID = wo.WO_EID and wo.Hours = ?
"""


def company_workload() -> list[Statement]:
    return parse_workload(COMPANY_WORKLOAD)


def populate_company(db, employees: int = 20, seed: int = 1) -> None:
    rng = random.Random(seed)
    addresses = max(2, employees)
    departments = max(2, employees // 5)
    for aid in range(1, addresses + 1):
        db.execute(Insert("Address", (
            ("AID", aid), ("Astreet", f"{aid} Main St"),
            ("Acity", rng.choice(("Springfield", "Riverton", "Fairview"))))))
    for dno in range(1, departments + 1):
        db.execute(Insert("Department", (
            ("DNo", dno), ("DName", f"dept{dno}"))))
    for eid in range(1, employees + 1):
        db.execute(Insert("Employee", (
            ("EID", eid), ("EName", f"emp{eid}"),
            ("ESalary", rng.randrange(40, 200) * 1000),
            ("EHome_AID", rng.randrange(1, addresses + 1)),
            ("EOffice_AID", rng.randrange(1, addresses + 1)),
            ("E_DNo", rng.randrange(1, departments + 1)))))
        for pno in range(1, rng.randrange(1, 4)):
            db.execute(Insert("Works_On", (
                ("WO_EID", eid), ("WO_PNo", pno),
                ("Hours", rng.randrange(1, 40)))))


# -- order micro-benchmark ------------------------------------------------------

def tpcw_micro_schema() -> SchemaDef:
    relations = {}
    for rel in (
        RelationDef(
            name="Customer",
            attributes=(("C_ID", "int"), ("C_UNAME", "string"),
                        ("C_BALANCE", "int")),
            primary_key=("C_ID",)),
        RelationDef(
            name="Order",
            attributes=(("O_ID", "int"), ("O_C_ID", "int"),
                        ("O_STATUS", "string"), ("O_TOTAL", "int")),
            primary_key=("O_ID",),
            foreign_keys=(ForeignKey("O_C_ID", ("O_C_ID",), "Customer"),)),
        RelationDef(
            name="Order_line",
            attributes=(("OL_ID", "int"), ("OL_O_ID", "int"),
                        ("OL_I_ID", "int"), ("OL_QTY", "int")),
            primary_key=("OL_ID",),
            foreign_keys=(ForeignKey("OL_O_ID", ("OL_O_ID",), "Order"),)),
        RelationDef(
            name="Country",
            attributes=(("CO_ID", "int"), ("CO_NAME", "string")),
            primary_key=("CO_ID",)),
    ):
        relations[rel.name] = rel
    schema = SchemaDef(relations, indexes=(), roots=("Customer",))
    schema.validate()
    return schema


TPCW_MICRO_WORKLOAD = """\
# Q1: a customer's orders
SELECT * FROM Customer as c, Order as o WHERE c.C_ID = o.O_C_ID and c.C_ID = ?
# Q2: a customer's orders and their lines
SELECT * FROM Customer as c, Order as o, Order_line as ol WHERE c.C_ID = o.O_C_ID and o.O_ID = ol.OL_O_ID and c.C_ID = ?
INSERT INTO Customer (C_ID, C_UNAME, C_BALANCE) VALUES (?, ?, ?)
INSERT INTO Order (O_ID, O_C_ID, O_STATUS, O_TOTAL) VALUES (?, ?, ?, ?)
INSERT INTO Order_line (OL_ID, OL_O_ID, OL_I_ID, OL_QTY) VALUES (?, ?, ?, ?)
UPDATE Customer SET C_BALANCE = ? WHERE C_ID = ?
UPDATE Order SET O_STATUS = ? WHERE O_ID = ?
DELETE FROM Order_line WHERE OL_ID = ?
INSERT INTO Country (CO_ID, CO_NAME) VALUES (?, ?)
"""


def tpcw_micro_workload() -> list[Statement]:
    return parse_workload(TPCW_MICRO_WORKLOAD)


STATUSES = ("pending", "shipped", "delivered")


def populate_tpcw_micro(db, scale: int, ratio: int = 10, seed: int = 1) -> None:
    """Insert ``scale`` customers, ``ratio`` orders each, ``ratio`` lines per
    order, parents first.  Deterministic for a given seed."""
    rng = random.Random(seed)
    execute = db.txn.execute_write
    order_id = 0
    line_id = 0
    for c_id in range(1, scale + 1):
        execute(Insert("Customer", (
            ("C_ID", c_id), ("C_UNAME", f"user{c_id}"),
            ("C_BALANCE", rng.randrange(0, 10000)))))
        for _ in range(ratio):
            order_id += 1
            execute(Insert("Order", (
                ("O_ID", order_id), ("O_C_ID", c_id),
                ("O_STATUS", STATUSES[order_id % 3]),
                ("O_TOTAL", rng.randrange(1, 500)))))
            for _ in range(ratio):
                line_id += 1
                execute(Insert("Order_line", (
                    ("OL_ID", line_id), ("OL_O_ID", order_id),
                    ("OL_I_ID", rng.randrange(1, 1000)),
                    ("OL_QTY", rng.randrange(1, 10)))))


# -- mixed read/write workload for the order fixture -----------------------------

def mixed_statements(scale: int, ratio: int, count: int, workers: int,
                     seed: int = 7) -> list[list[Statement]]:
    """Pre-generate per-worker statement lists: parent-first inserts, leaf
    deletes, non-key updates, and a sliver of out-of-tree Country writes.

    Each worker owns a disjoint id range for inserts, references only base
    rows or rows it inserted earlier itself, and deletes only base
    order lines from its own partition, so any interleaving is valid.
    """
    base_orders = scale * ratio
    base_lines = scale * ratio * ratio
    span = 1_000_000
    streams: list[list[Statement]] = []
    per_worker = count // workers
    for w in range(workers):
        rng = random.Random(seed * 1000 + w)
        lo = span * (w + 1)
        my_customers: list[int] = []
        my_orders: list[int] = []
        next_id = lo
        deletable = list(range(w + 1, base_lines + 1, workers))
        rng.shuffle(deletable)
        stmts: list[Statement] = []
        for _ in range(per_worker):
            roll = rng.random()
            if roll < 0.10:
                next_id += 1
                my_customers.append(next_id)
                stmts.append(Insert("Customer", (
                    ("C_ID", next_id), ("C_UNAME", f"mix{next_id}"),
                    ("C_BALANCE", rng.randrange(0, 10000)))))
            elif roll < 0.35:
                next_id += 1
                parent = (rng.choice(my_customers)
                          if my_customers and rng.random() < 0.5
                          else rng.randrange(1, scale + 1))
                my_orders.append(next_id)
                stmts.append(Insert("Order", (
                    ("O_ID", next_id), ("O_C_ID", parent),
                    ("O_STATUS", STATUSES[next_id % 3]),
                    ("O_TOTAL", rng.randrange(1, 500)))))
            elif roll < 0.65:
                next_id += 1
                parent = (rng.choice(my_orders)
                          if my_orders and rng.random() < 0.5
                          else rng.randrange(1, base_orders + 1))
                stmts.append(Insert("Order_line", (
                    ("OL_ID", next_id), ("OL_O_ID", parent),
                    ("OL_I_ID", rng.randrange(1, 1000)),
                    ("OL_QTY", rng.randrange(1, 10)))))
            elif roll < 0.80:
                stmts.append(Update(
                    "Customer", "Customer",
                    (("C_BALANCE", rng.randrange(0, 10000)),),
                    (Filter(AttrRef(None, "C_ID"), "=",
                            rng.randrange(1, scale + 1)),)))
            elif roll < 0.90:
                stmts.append(Update(
                    "Order", "Order",
                    (("O_STATUS", rng.choice(STATUSES)),),
                    (Filter(AttrRef(None, "O_ID"), "=",
                            rng.randrange(1, base_orders + 1)),)))
            elif roll < 0.98 and deletable:
                stmts.append(Delete(
                    "Order_line", "Order_line",
                    (Filter(AttrRef(None, "OL_ID"), "=", deletable.pop()),)))
            else:
                next_id += 1
                stmts.append(Insert("Country", (
                    ("CO_ID", next_id), ("CO_NAME", f"country{next_id}"))))
        streams.append(stmts)
    return streams


def build_fixture(name: str):
    """(schema, workload) for a named fixture."""
    if name == "company":
        return company_schema(), company_workload()
    if name == "tpcw-micro":
        return tpcw_micro_schema(), tpcw_micro_workload()
    raise ValueError(f"unknown fixture {name!r} (choose from {FIXTURES})")


def populate(db, fixture: str, scale: int, ratio: int = 10,
             seed: int = 1) -> None:
    if fixture == "company":
        populate_company(db, employees=scale, seed=seed)
    elif fixture == "tpcw-micro":
        populate_tpcw_micro(db, scale, ratio, seed)
    else:
        raise ValueError(f"unknown fixture {fixture!r}")
