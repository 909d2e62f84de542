import dataclasses
import random
import sys
import threading

import pytest

from synergy import engine, oracle
from synergy.db import Database
from synergy.engine import PLAN_CACHE_SIZE, QueryEngine
from synergy.errors import (AmbiguityError, DirtyReadTimeout, SchemaError,
                            SqlSyntaxError, UnknownAttributeError,
                            UnknownTableError)
from synergy.fixtures import (company_schema, company_workload,
                              populate_company, populate_tpcw_micro,
                              tpcw_micro_schema, tpcw_micro_workload)
from synergy.sqlparse import (AttrRef, JoinCondition, SelectJoin,
                               count_placeholders, parse_statement,
                               render_statement)
from synergy.storage import DIRTY, Store, encode_key, key_of


@pytest.fixture(scope="module")
def company_db():
    db = Database.create(company_schema(), company_workload())
    populate_company(db, employees=15, seed=5)
    yield db
    db.close()


def base_rows(db):
    return {name: [c for _, c in db.store.scan(name)]
            for name in db.schema.relations}


def test_rewritten_w3_plans_an_index_prefix_scan(company_db):
    plan = company_db.engine.plan(company_db.rewrite.statements[2])
    assert len(plan.steps) == 1
    step = plan.steps[0]
    assert step.scan_table == "X_V_Employee_Works_On_Hours"
    assert step.key_exprs != ()
    assert step.check_dirty is True


def test_join_inner_lookup_uses_key_prefix_when_available(company_db):
    # W3 over base tables: Works_On keyed (WO_EID, WO_PNo) admits a prefix
    # lookup by the join attribute; Employee seeds despite no bound filter
    plan = company_db.engine.plan(company_db.workload[2])
    steps = {s.alias: s for s in plan.steps}
    assert steps["wo"].scan_table == "Works_On"
    assert steps["wo"].key_exprs != ()


def test_single_table_without_filters_is_full_scan(company_db):
    plan = company_db.engine.plan(parse_statement("SELECT * FROM Address"))
    step = plan.steps[0]
    assert step.scan_table == "Address"
    assert step.key_exprs == ()
    assert step.check_dirty is False


def test_bound_key_prefix_scan_on_base_table(company_db):
    plan = company_db.engine.plan(parse_statement(
        "SELECT * FROM Works_On as w WHERE w.WO_EID = 3"))
    assert plan.steps[0].key_exprs != ()
    rows = company_db.execute(
        "SELECT * FROM Works_On as w WHERE w.WO_EID = 3")
    expected = [c for _, c in company_db.store.scan("Works_On")
                if c["WO_EID"] == 3]
    assert oracle.row_multiset(rows) == oracle.row_multiset(expected)


def test_engine_matches_oracle_on_fixture_queries(company_db):
    tables = base_rows(company_db)
    for pos, stmt in enumerate(company_db.workload):
        for param in (1, 2, 5, 30):
            got = company_db.execute(stmt, (param,))
            want = oracle.eval_select(stmt, tables, (param,))
            assert oracle.row_multiset(got) == oracle.row_multiset(want), \
                f"workload[{pos}] param={param}"
            rewritten = company_db.rewrite.statements[pos]
            via_view = company_db.execute(rewritten, (param,))
            assert oracle.row_multiset(via_view) == oracle.row_multiset(want)


def test_projection_subset(company_db):
    rows = company_db.execute(
        "SELECT e.EID, e.EName FROM Employee as e WHERE e.EID = 3")
    assert rows == [{"EID": 3, "EName": "emp3"}]


def test_unqualified_refs_resolve_when_unambiguous(company_db):
    rows = company_db.execute(
        "SELECT EID FROM Employee as e, Address as a "
        "WHERE a.AID = e.EHome_AID AND EID = 4")
    assert rows == [{"EID": 4}]


def test_a_join_with_an_unqualified_side_is_refused():
    # C_BALANCE resolves to c, the alias on the other side: planned, that
    # join related c to itself and was dropped, so customer 2 came back too
    db = Database.create(tpcw_micro_schema(), tpcw_micro_workload())
    try:
        for c_id, balance in ((1, 1), (2, 5)):
            db.execute(f"INSERT INTO Customer (C_ID, C_UNAME, C_BALANCE) "
                       f"VALUES ({c_id}, 'u', {balance})")
            db.execute(f"INSERT INTO Order (O_ID, O_C_ID, O_STATUS, O_TOTAL)"
                       f" VALUES ({c_id}, {c_id}, 's', 1)")
        text = ("SELECT * FROM Customer AS c, Order AS o "
                "WHERE c.C_ID = C_BALANCE AND c.C_ID = o.O_C_ID")
        with pytest.raises(SqlSyntaxError):
            db.execute(text)
        with pytest.raises(SqlSyntaxError):
            db.rewrite_statement(parse_statement(text))
        # built in code, a statement skips the parser's check
        joined = parse_statement("SELECT * FROM Customer AS c, Order AS o "
                                 "WHERE c.C_ID = o.O_C_ID")
        for side in (AttrRef(None, "C_BALANCE"), AttrRef("c", "C_BALANCE")):
            stmt = dataclasses.replace(joined, joins=(
                JoinCondition(AttrRef("c", "C_ID"), side),) + joined.joins)
            with pytest.raises(SqlSyntaxError):
                db.execute(stmt)
            with pytest.raises(SqlSyntaxError):
                db.rewrite_statement(stmt)
        rows = db.execute("SELECT c.C_ID, O_ID FROM Customer AS c, "
                          "Order AS o WHERE c.C_ID = o.O_C_ID AND "
                          "C_BALANCE = 1")
        assert rows == [{"C_ID": 1, "O_ID": 1}]
    finally:
        db.close()


def test_empty_table_returns_empty(company_db):
    db = Database.create(tpcw_micro_schema(), tpcw_micro_workload())
    try:
        assert db.execute("SELECT * FROM Customer") == []
    finally:
        db.close()


def test_unknown_relation_and_attribute_errors(company_db):
    with pytest.raises(UnknownTableError):
        company_db.execute("SELECT * FROM Missing")
    with pytest.raises(UnknownAttributeError):
        company_db.execute("SELECT * FROM Address as a WHERE a.nope = 1")
    with pytest.raises(AmbiguityError):
        # Hours exists only in Works_On but EID is fine; force a clash via
        # star over relations sharing no attribute names -> construct one
        company_db.execute(
            "SELECT * FROM Employee as e1, Employee as e2 "
            "WHERE e1.EID = e2.EID")


def test_lock_and_index_tables_are_not_queryable(company_db):
    with pytest.raises(UnknownTableError):
        company_db.execute("SELECT * FROM LK_Address")


def test_missing_parameter_raises(company_db):
    with pytest.raises(SchemaError, match="missing query parameter"):
        company_db.execute(company_db.workload[0], ())


def test_a_read_parameter_its_attribute_rejects_is_refused_before_any_scan(
        monkeypatch):
    db = Database.create(tpcw_micro_schema(), tpcw_micro_workload())
    try:
        db.execute("INSERT INTO Customer (C_ID, C_UNAME, C_BALANCE) "
                   "VALUES (1, 'u', 0)")
        q1 = db.rewrite.statements[0]
        scans, real_scan = [], db.store.scan
        monkeypatch.setattr(db.store, "scan", lambda *args: (
            scans.append(args) or real_scan(*args)))
        for params, message in [(("x",), "does not fit int"),
                                ((2**63,), "does not fit int"),
                                ((), "missing query parameter")]:
            with pytest.raises(SchemaError, match=message):
                db.execute(q1, params)
        assert scans == []
        # a customer with no order has no view row; the read still scans
        assert db.execute(q1, (1,)) == []
        assert len(scans) == 1
    finally:
        db.close()


def test_results_never_expose_the_dirty_mark(company_db):
    vh = company_db.catalog.handle("V_Employee_Works_On")
    key = encode_key((1, 1), vh.key_types)
    row = company_db.store.get("V_Employee_Works_On", key)
    assert row is not None
    rows = company_db.execute(company_db.rewrite.statements[2], (row["Hours"],))
    assert rows and all(DIRTY not in r for r in rows)


def test_permanently_dirty_row_times_out():
    db = Database.create(company_schema(), company_workload())
    try:
        populate_company(db, employees=4, seed=2)
        db.engine.timeout = 0.05
        vh = db.catalog.handle("V_Address_Employee")
        key, cells = next(iter(db.store.scan("V_Address_Employee")))
        stuck = dict(cells)
        stuck[DIRTY] = True
        db.store.put("V_Address_Employee", key, stuck)
        with pytest.raises(DirtyReadTimeout):
            db.execute(db.rewrite.statements[0], (cells["EID"],))
    finally:
        db.close()


def test_randomized_engine_vs_oracle_small():
    rng = random.Random(99)
    db = Database.create(tpcw_micro_schema(), tpcw_micro_workload())
    try:
        for c in range(1, 15):
            db.execute(f"INSERT INTO Customer (C_ID, C_UNAME, C_BALANCE) "
                       f"VALUES ({c}, 'u{c}', {rng.randrange(5)})")
        for o in range(1, 40):
            db.execute(f"INSERT INTO Order (O_ID, O_C_ID, O_STATUS, O_TOTAL)"
                       f" VALUES ({o}, {rng.randrange(1, 15)}, 's', "
                       f"{rng.randrange(4)})")
        tables = base_rows(db)
        for _ in range(25):
            c = rng.randrange(1, 18)
            total = rng.randrange(4)
            stmt = parse_statement(
                "SELECT * FROM Customer as c, Order as o "
                f"WHERE c.C_ID = o.O_C_ID and c.C_ID = {c} "
                f"and o.O_TOTAL >= {total}")
            got = db.execute(stmt)
            want = oracle.eval_select(stmt, tables)
            assert oracle.row_multiset(got) == oracle.row_multiset(want)
    finally:
        db.close()


def test_contradictory_duplicate_key_filters(company_db):
    # both equality filters must apply even though one feeds the key prefix
    rows = company_db.execute(
        "SELECT * FROM Employee as e WHERE e.EID = 3 AND e.EID = 4")
    assert rows == []
    rows = company_db.execute(
        "SELECT * FROM Employee as e WHERE e.EID = 3 AND e.EID = 3")
    assert len(rows) == 1
    # and the same through a join, where the prefix comes from the join key
    rows = company_db.execute(
        "SELECT * FROM Employee as e, Works_On as wo "
        "WHERE e.EID = wo.WO_EID AND wo.WO_EID = 3 AND wo.WO_EID = 4")
    assert rows == []


def test_join_not_consumed_by_another_key_component():
    # wo's key prefix is (WO_EID = 7, WO_PNo = e.EID): e.EID feeds the
    # second component, so the join wo.WO_EID = e.EID must still filter
    db = Database.create(company_schema(), company_workload())
    try:
        for eid in (5, 7):
            db.execute(f"INSERT INTO Employee (EID, EName, ESalary, "
                       f"EHome_AID, EOffice_AID, E_DNo) "
                       f"VALUES ({eid}, 'e', 10, 1, 1, 1)")
        db.execute("INSERT INTO Works_On (WO_EID, WO_PNo, Hours) "
                   "VALUES (7, 5, 1)")
        stmt = parse_statement(
            "SELECT * FROM Employee as e, Works_On as wo WHERE e.EID = 5 "
            "AND wo.WO_EID = 7 AND wo.WO_EID = e.EID AND wo.WO_PNo = e.EID")
        want = oracle.eval_select(stmt, base_rows(db))
        assert want == []
        assert oracle.row_multiset(db.execute(stmt)) == \
            oracle.row_multiset(want)
    finally:
        db.close()


# -- hash steps -----------------------------------------------------------------

@pytest.fixture(scope="module")
def tpcw_db():
    db = Database.create(tpcw_micro_schema(), tpcw_micro_workload())
    populate_tpcw_micro(db, scale=6, ratio=3, seed=4)
    yield db
    db.close()


def nested_loop(plan):
    """The same plan with every probe moved back into its residual."""
    return dataclasses.replace(plan, steps=tuple(
        s if s.probe is None else
        dataclasses.replace(s, probe=None, residual=s.residual + (s.probe,))
        for s in plan.steps))


def test_hash_step_only_under_a_multi_row_outer_step(tpcw_db):
    q1 = {s.alias: s for s in tpcw_db.engine.plan(tpcw_db.workload[0]).steps}
    assert all(s.probe is None for s in q1.values())
    q2 = {s.alias: s for s in tpcw_db.engine.plan(tpcw_db.workload[1]).steps}
    assert [a for a, s in q2.items() if s.probe is not None] == ["ol"]
    assert q2["ol"].key_exprs == ()
    assert q2["ol"].describe() == \
        "ol: hash scan Order_line on OL_O_ID = o.O_ID"


AD_HOC = {
    "company": ["SELECT * FROM Address as a, Employee as e "
                "WHERE a.AID = e.EOffice_AID",
                "SELECT * FROM Address as a, Employee as e "
                "WHERE a.AID = e.EOffice_AID and e.ESalary > 90000"],
    "tpcw-micro": ["SELECT o.O_ID, ol.OL_ID FROM Order as o, "
                   "Order_line as ol WHERE o.O_ID = ol.OL_O_ID "
                   "and ol.OL_QTY >= 3"],
}


#: the plan of every SELECT in each fixture's workload and rewritten
#: workload, and of AD_HOC, as ``describe()`` prints it
PLAN_PINS = {
    "company": {
        "SELECT * FROM Employee AS e, Address AS a "
        "WHERE a.AID = e.EHome_AID AND e.EID = ?":
            "e: prefix scan Employee key=[?0]\n"
            "a: prefix scan Address key=[e.EHome_AID]",
        "SELECT * FROM Department AS d, Employee AS e, Works_On AS wo "
        "WHERE d.DNo = e.E_DNo AND e.EID = wo.WO_EID AND d.DNo = ?":
            "d: prefix scan Department key=[?0]\n"
            "e: full scan Employee filter=[E_DNo = d.DNo]\n"
            "wo: prefix scan Works_On key=[e.EID]",
        "SELECT * FROM Employee AS e, Works_On AS wo "
        "WHERE e.EID = wo.WO_EID AND wo.Hours = ?":
            "e: full scan Employee\n"
            "wo: prefix scan Works_On key=[e.EID] filter=[Hours = ?0]",
        "SELECT * FROM V_Address_Employee AS v1 WHERE v1.EID = ?":
            "v1: prefix scan V_Address_Employee key=[?0]",
        "SELECT * FROM Department AS d, V_Employee_Works_On AS v1 "
        "WHERE d.DNo = v1.E_DNo AND d.DNo = ?":
            "d: prefix scan Department key=[?0]\n"
            "v1: full scan V_Employee_Works_On filter=[E_DNo = d.DNo]",
        "SELECT * FROM V_Employee_Works_On AS v1 WHERE v1.Hours = ?":
            "v1: index scan X_V_Employee_Works_On_Hours key=[?0]",
        "SELECT * FROM Address AS a, Employee AS e "
        "WHERE a.AID = e.EOffice_AID":
            "a: full scan Address\n"
            "e: hash scan Employee on EOffice_AID = a.AID",
        "SELECT * FROM Address AS a, Employee AS e "
        "WHERE a.AID = e.EOffice_AID AND e.ESalary > 90000":
            "a: full scan Address\n"
            "e: hash scan Employee on EOffice_AID = a.AID "
            "filter=[ESalary > 90000]",
    },
    "tpcw-micro": {
        "SELECT * FROM Customer AS c, Order AS o "
        "WHERE c.C_ID = o.O_C_ID AND c.C_ID = ?":
            "c: prefix scan Customer key=[?0]\n"
            "o: full scan Order filter=[O_C_ID = c.C_ID]",
        "SELECT * FROM Customer AS c, Order AS o, Order_line AS ol "
        "WHERE c.C_ID = o.O_C_ID AND o.O_ID = ol.OL_O_ID AND c.C_ID = ?":
            "c: prefix scan Customer key=[?0]\n"
            "o: full scan Order filter=[O_C_ID = c.C_ID]\n"
            "ol: hash scan Order_line on OL_O_ID = o.O_ID",
        "SELECT * FROM V_Customer_Order AS v1 WHERE v1.C_ID = ?":
            "v1: index scan X_V_Customer_Order_C_ID key=[?0]",
        "SELECT * FROM V_Customer_Order_Order_line AS v1 WHERE v1.C_ID = ?":
            "v1: index scan X_V_Customer_Order_Order_line_C_ID key=[?0]",
        "SELECT o.O_ID, ol.OL_ID FROM Order AS o, Order_line AS ol "
        "WHERE o.O_ID = ol.OL_O_ID AND ol.OL_QTY >= 3":
            "o: full scan Order\n"
            "ol: hash scan Order_line on OL_O_ID = o.O_ID "
            "filter=[OL_QTY >= 3]",
    },
}


@pytest.mark.parametrize("fixture", ["company", "tpcw-micro"])
def test_fixture_reads_keep_their_pinned_plans(fixture, company_db, tpcw_db):
    db = company_db if fixture == "company" else tpcw_db
    stmts = [s for s in db.workload + db.rewrite.statements
             if isinstance(s, SelectJoin)]
    stmts += [parse_statement(t) for t in AD_HOC[fixture]]
    got = {render_statement(s): engine.plan_query(s, db.catalog).describe()
           for s in stmts}
    assert got == PLAN_PINS[fixture]


@pytest.mark.parametrize("fixture", ["company", "tpcw-micro"])
def test_hash_plan_equals_nested_loop_row_for_row(fixture, company_db,
                                                  tpcw_db):
    db = company_db if fixture == "company" else tpcw_db
    stmts = [s for s in db.workload if isinstance(s, SelectJoin)]
    stmts += [parse_statement(t) for t in AD_HOC[fixture]]
    hashed = 0
    for stmt in stmts:
        plan = db.engine.plan(stmt)
        hashed += any(s.probe is not None for s in plan.steps)
        for param in (1, 2, 3, 5, 40):
            params = (param,) * count_placeholders(stmt)
            got = db.engine.execute_plan(plan, params)
            want = db.engine.execute_plan(nested_loop(plan), params)
            assert got == want, (plan.describe(), param)
    assert hashed, "no statement exercised a hash step"


def test_marked_row_in_a_hashed_view_step_forces_rescan():
    db = Database.create(tpcw_micro_schema(), tpcw_micro_workload())
    try:
        populate_tpcw_micro(db, scale=2, ratio=2, seed=1)
        stmt = parse_statement(
            "SELECT o.O_ID, v.OL_ID FROM Order as o, "
            "V_Customer_Order_Order_line as v "
            "WHERE o.O_ID = v.OL_O_ID and o.O_C_ID = 1")
        step = db.engine.plan(stmt).steps[1]
        assert step.probe is not None and step.check_dirty
        assert len(db.execute(stmt)) == 4

        def mark(customer):
            key, cells = next((k, c) for k, c in
                              db.store.scan(step.scan_table)
                              if c["C_ID"] == customer)
            db.store.put(step.scan_table, key, dict(cells, **{DIRTY: True}))

        db.engine.timeout = 0.01
        # a marked row no probe reaches does not abort the read
        mark(2)
        assert len(db.execute(stmt)) == 4
        # a marked row the probe returns does
        mark(1)
        with pytest.raises(DirtyReadTimeout):
            db.execute(stmt)
    finally:
        db.close()


class ScanLog:
    """Wraps a store, logging the table of each scan; each scan hands back
    a one-shot iterator."""

    def __init__(self, store):
        self.store = store
        self.tables = []

    def scan(self, table, *args):
        self.tables.append(table)
        return iter(self.store.scan(table, *args))


#: statement -> (the aliases its plan hashes, the tables it scans), over
#: SEMI_JOIN_ROWS
SEMI_JOINS = {
    # the outer orders share customer values: each bucket is probed twice
    "SELECT o.O_ID, p.O_TOTAL FROM Order as o, Order as p "
    "WHERE o.O_C_ID = p.O_C_ID": (["p"], ["Order", "Order"]),
    # order 13 has no lines: its probe matches nothing
    "SELECT o.O_ID, ol.OL_ID FROM Order as o, Order_line as ol "
    "WHERE o.O_ID = ol.OL_O_ID": (["ol"], ["Order", "Order_line"]),
    # o is hashed under several customers and yields several rows to ol;
    # customer 3 has no orders
    "SELECT c.C_UNAME, o.O_ID, ol.OL_ID FROM Customer as c, Order as o, "
    "Order_line as ol WHERE c.C_ID = o.O_C_ID and o.O_ID = ol.OL_O_ID":
        (["o", "ol"], ["Customer", "Order", "Order_line"]),
    # no outer row: the hash step scans nothing
    "SELECT o.O_ID, ol.OL_ID FROM Order as o, Order_line as ol "
    "WHERE o.O_ID = ol.OL_O_ID and o.O_C_ID = 9": (["ol"], ["Order"]),
}

SEMI_JOIN_ROWS = [
    "INSERT INTO Customer (C_ID, C_UNAME, C_BALANCE) VALUES (1, 'ann', 0)",
    "INSERT INTO Customer (C_ID, C_UNAME, C_BALANCE) VALUES (2, 'bob', 0)",
    "INSERT INTO Customer (C_ID, C_UNAME, C_BALANCE) VALUES (3, 'cy', 0)",
] + [f"INSERT INTO Order (O_ID, O_C_ID, O_STATUS, O_TOTAL) "
     f"VALUES ({order}, {customer}, 's', 5)"
     for order, customer in ((10, 1), (11, 2), (12, 1), (13, 2))
] + [f"INSERT INTO Order_line (OL_ID, OL_O_ID, OL_I_ID, OL_QTY) "
     f"VALUES ({line}, {order}, 1, 1)"
     for line, order in ((100, 12), (101, 10), (102, 11), (103, 12),
                         (104, 10))]


def test_a_hash_step_keeps_only_rows_an_outer_value_reaches():
    db = Database.create(tpcw_micro_schema(), tpcw_micro_workload())
    try:
        for text in SEMI_JOIN_ROWS:
            db.execute(text)
        for text, (hashed, scanned) in SEMI_JOINS.items():
            plan = db.engine.plan(parse_statement(text))
            assert [s.alias for s in plan.steps
                    if s.probe is not None] == hashed, plan.describe()
            log = ScanLog(db.store)
            got = engine.execute_plan(plan, (), log, db.catalog)
            assert got == db.engine.execute_plan(nested_loop(plan))
            assert bool(got) == (len(scanned) == len(plan.steps))
            # one scan of each hashed table, not one per outer row
            assert log.tables == scanned, plan.describe()
        rows = db.execute(parse_statement(list(SEMI_JOINS)[2]))
        assert [(r["C_UNAME"], r["O_ID"], r["OL_ID"]) for r in rows] == [
            ("ann", 10, 101), ("ann", 10, 104), ("ann", 12, 100),
            ("ann", 12, 103), ("bob", 11, 102)]
    finally:
        db.close()


@pytest.mark.parametrize("fixture", ["company", "tpcw-micro"])
def test_reads_take_each_scan_in_one_pass(fixture, company_db, tpcw_db,
                                          monkeypatch):
    db = company_db if fixture == "company" else tpcw_db
    params = [(p,) for p in (1, 2, 3, 5, 40)]
    want = {(stmt, p): db.execute(stmt, p * count_placeholders(stmt))
            for stmt in reads(db, fixture) for p in params}
    real = Store.scan
    monkeypatch.setattr(Store, "scan",
                        lambda *args, **kwargs: iter(real(*args, **kwargs)))
    for (stmt, p), rows in want.items():
        assert db.execute(stmt, p * count_placeholders(stmt)) == rows


# -- plan cache ------------------------------------------------------------------

@pytest.fixture()
def plan_calls(monkeypatch):
    """Every statement the module-level planner is asked to plan."""
    calls = []
    real = engine.plan_query

    def counting(stmt, catalog):
        calls.append(stmt)
        return real(stmt, catalog)

    monkeypatch.setattr(engine, "plan_query", counting)
    return calls


def reads(db, fixture):
    stmts = [s for s in db.workload + db.rewrite.statements
             if isinstance(s, SelectJoin)]
    return stmts + [parse_statement(t) for t in AD_HOC[fixture]]


def test_repeated_execute_plans_each_distinct_statement_once(company_db,
                                                             plan_calls):
    qe = QueryEngine(company_db.store, company_db.catalog)
    stmts = reads(company_db, "company")
    for _ in range(3):
        for stmt in stmts:
            # an equal statement parsed again shares the plan
            again = parse_statement(render_statement(stmt))
            for param in (1, 2):
                params = (param,) * count_placeholders(stmt)
                assert qe.execute(again, params) == qe.execute(stmt, params)
    assert len(plan_calls) == len(set(stmts)) == len(stmts)


@pytest.mark.parametrize("fixture", ["company", "tpcw-micro"])
def test_cached_plans_give_the_freshly_planned_rows(fixture, company_db,
                                                    tpcw_db):
    db = company_db if fixture == "company" else tpcw_db
    qe = QueryEngine(db.store, db.catalog)
    for stmt in reads(db, fixture):
        for param in (1, 2, 3, 5, 40):
            params = (param,) * count_placeholders(stmt)
            want = engine.execute_plan(engine.plan_query(stmt, db.catalog),
                                       params, db.store, db.catalog)
            assert qe.execute(stmt, params) == want
            assert qe.execute(stmt, params) == want


def test_a_statement_failing_to_plan_raises_on_every_call(company_db,
                                                          plan_calls):
    qe = QueryEngine(company_db.store, company_db.catalog)
    for text, error in [
            ("SELECT * FROM Missing", UnknownTableError),
            ("SELECT * FROM Address as a WHERE a.nope = 1",
             UnknownAttributeError),
            ("SELECT * FROM Employee as e1, Employee as e2 "
             "WHERE e1.EID = e2.EID", AmbiguityError)]:
        stmt = parse_statement(text)
        for _ in range(2):
            with pytest.raises(error):
                qe.execute(stmt)
    assert len(plan_calls) == 6


def test_plan_cache_never_grows_beyond_its_cap(company_db, plan_calls):
    qe = QueryEngine(company_db.store, company_db.catalog)
    for eid in range(2 * PLAN_CACHE_SIZE + 3):
        stmt = parse_statement(
            f"SELECT e.EName FROM Employee as e WHERE e.EID = {eid}")
        rows = qe.execute(stmt)
        assert rows == ([{"EName": f"emp{eid}"}] if 1 <= eid <= 15 else [])
        assert 0 < len(qe._plans) <= PLAN_CACHE_SIZE
    assert len(plan_calls) == 2 * PLAN_CACHE_SIZE + 3


def test_concurrent_misses_keep_the_plan_cache_within_its_cap(company_db,
                                                             monkeypatch):
    monkeypatch.setattr(engine, "PLAN_CACHE_SIZE", 4)
    qe = QueryEngine(company_db.store, company_db.catalog)
    stmts = [[parse_statement(f"SELECT e.EName FROM Employee as e "
                              f"WHERE e.EID = {1000 * n + i}")
              for i in range(500)] for n in range(4)]
    sizes, errors = [], []

    def worker(mine):
        try:
            for stmt in mine:
                qe.plan(stmt)
                sizes.append(len(qe._plans))
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(mine,))
               for mine in stmts]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(sizes) == 2000 and max(sizes) <= 4


def per_cell_row(db, plan, row):
    """``row`` as a SELECT * builds it cell by cell: each step's stored row
    in plan order, the mark left out."""
    out = {}
    for step in plan.steps:
        handle = db.catalog.handle(step.scan_table)
        for attr, value in db.store.get(step.scan_table,
                                        key_of(handle, row)).items():
            if attr != DIRTY:
                out[attr] = value
    return out


def test_select_star_rows_keep_the_per_cell_key_order():
    db = Database.create(tpcw_micro_schema(), tpcw_micro_workload())
    try:
        populate_tpcw_micro(db, scale=2, ratio=2, seed=1)
        # base rows are read without a mark check: a cell named like the
        # mark still never reaches a result
        key, cells = next(iter(db.store.scan("Customer")))
        db.store.put("Customer", key, {DIRTY: False, **cells})
        q2, q2_view = db.workload[1], db.rewrite.statements[1]
        steps = {len(db.engine.plan(s).steps) for s in (q2, q2_view)}
        assert steps == {3, 1}
        for stmt in (q2, q2_view):
            plan = db.engine.plan(stmt)
            for c_id in (1, 2):
                rows = db.execute(stmt, (c_id,))
                assert rows
                for row in rows:
                    assert DIRTY not in row
                    assert list(row.items()) == list(
                        per_cell_row(db, plan, row).items())
    finally:
        db.close()
