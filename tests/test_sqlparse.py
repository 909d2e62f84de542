import pytest
from hypothesis import given, strategies as st

from synergy.errors import SqlSyntaxError
from synergy.sqlparse import (AttrRef, Delete, Filter, Insert, JoinCondition,
                              Placeholder, SelectJoin, Update, bind_params,
                              count_placeholders, parse_statement,
                              parse_workload, render_statement)

W1 = ("SELECT * FROM Employee as e, Address as a "
      "WHERE a.AID = e.EHome_AID and e.EID = ?")
W2 = ("SELECT * FROM Department as d, Employee as e, Works_On as wo "
      "WHERE d.DNo = e.E_DNo and e.EID = wo.WO_EID and d.DNo = ?")


def test_parse_employee_address_join():
    stmt = parse_statement(W1)
    assert isinstance(stmt, SelectJoin)
    assert stmt.tables == (("Employee", "e"), ("Address", "a"))
    assert stmt.projections is None
    assert stmt.joins == (JoinCondition(AttrRef("a", "AID"),
                                        AttrRef("e", "EHome_AID")),)
    assert stmt.filters == (Filter(AttrRef("e", "EID"), "=", Placeholder(0)),)


def test_parse_keyed_delete():
    stmt = parse_statement("DELETE FROM Order WHERE O_ID = 7")
    assert stmt == Delete("Order", "Order",
                          (Filter(AttrRef(None, "O_ID"), "=", 7),))


def test_or_is_rejected():
    with pytest.raises(SqlSyntaxError):
        parse_statement("SELECT * FROM A WHERE A.x OR A.y")


def test_or_between_conditions_rejected():
    with pytest.raises(SqlSyntaxError):
        parse_statement("SELECT * FROM A as a WHERE a.x = 1 OR a.y = 2")


def test_non_equality_join_rejected():
    with pytest.raises(SqlSyntaxError):
        parse_statement("SELECT * FROM A as a, B as b WHERE a.x < b.y")


def test_group_by_rejected():
    with pytest.raises(SqlSyntaxError):
        parse_statement("SELECT * FROM A as a WHERE a.x = 1 GROUP BY a.x")


def test_subquery_rejected():
    with pytest.raises(SqlSyntaxError):
        parse_statement(
            "SELECT * FROM A as a WHERE a.x = (SELECT y FROM B)")


def test_same_alias_join_rejected():
    with pytest.raises(SqlSyntaxError):
        parse_statement("SELECT * FROM A as a WHERE a.x = a.y")


def test_join_with_an_unqualified_side_rejected():
    for text in ("SELECT * FROM A as a, B as b WHERE a.x = y",
                 "SELECT * FROM A as a, B as b WHERE x = b.y",
                 "SELECT * FROM A as a, B as b WHERE x = y"):
        with pytest.raises(SqlSyntaxError):
            parse_statement(text)
    # unqualified filters and projections still parse
    stmt = parse_statement("SELECT x FROM A as a, B as b "
                           "WHERE a.x = b.y AND z = 1")
    assert stmt.projections == (AttrRef(None, "x"),)
    assert stmt.filters[0].ref == AttrRef(None, "z")


def test_duplicate_alias_rejected():
    with pytest.raises(SqlSyntaxError):
        parse_statement("SELECT * FROM A as a, B as a WHERE a.x = 1")


def test_unknown_alias_rejected():
    with pytest.raises(SqlSyntaxError):
        parse_statement("SELECT * FROM A as a WHERE b.x = 1")


def test_error_carries_line_and_column():
    text = "SELECT *\nFROM A as a WHERE ^"
    with pytest.raises(SqlSyntaxError) as info:
        parse_statement(text)
    assert info.value.line == 2
    assert info.value.column > 0


def test_int64_range_enforced():
    parse_statement(f"DELETE FROM T WHERE k = {2**63 - 1}")
    parse_statement(f"DELETE FROM T WHERE k = {-2**63}")
    with pytest.raises(SqlSyntaxError):
        parse_statement(f"DELETE FROM T WHERE k = {2**63}")


def test_render_keyed_delete():
    stmt = Delete("Order", "Order", (Filter(AttrRef(None, "O_ID"), "=", 7),))
    assert render_statement(stmt) == "DELETE FROM Order WHERE O_ID = 7"


def test_w2_round_trips():
    stmt = parse_statement(W2)
    assert parse_statement(render_statement(stmt)) == stmt


def test_keywords_case_insensitive_identifiers_not():
    stmt = parse_statement("select * from Employee AS e where e.EID = 1")
    assert stmt.tables == (("Employee", "e"),)
    with pytest.raises(SqlSyntaxError):
        # lowercased identifier is a different (unknown) alias
        parse_statement("SELECT * FROM Employee as e WHERE E.EID = 1")


def test_insert_parse_and_round_trip():
    text = "INSERT INTO Works_On (WO_EID, WO_PNo, Hours) VALUES (5, 2, 30)"
    stmt = parse_statement(text)
    assert stmt == Insert("Works_On",
                          (("WO_EID", 5), ("WO_PNo", 2), ("Hours", 30)))
    assert parse_statement(render_statement(stmt)) == stmt


def test_insert_count_mismatch_rejected():
    with pytest.raises(SqlSyntaxError):
        parse_statement("INSERT INTO T (a, b) VALUES (1)")


def test_update_parse():
    stmt = parse_statement(
        "UPDATE Employee SET ESalary = ?, EName = 'bob' WHERE EID = ?")
    assert stmt == Update(
        "Employee", "Employee",
        (("ESalary", Placeholder(0)), ("EName", "bob")),
        (Filter(AttrRef(None, "EID"), "=", Placeholder(1)),))


def test_join_in_update_or_delete_rejected():
    with pytest.raises(SqlSyntaxError):
        parse_statement("UPDATE A as a SET x = 1 WHERE a.y = a.z")


def test_string_literals_escape_quotes():
    stmt = parse_statement("INSERT INTO T (a) VALUES ('it''s')")
    assert stmt.values == (("a", "it's"),)
    assert parse_statement(render_statement(stmt)) == stmt


def test_negative_integer_literal():
    stmt = parse_statement("DELETE FROM T WHERE k = -5")
    assert stmt.filters[0].value == -5


def test_value_first_comparison_normalized():
    stmt = parse_statement("SELECT * FROM T as t WHERE 5 < t.x")
    assert stmt.filters == (Filter(AttrRef("t", "x"), ">", 5),)


def test_placeholders_number_in_text_order():
    stmt = parse_statement(
        "UPDATE T SET a = ?, b = ? WHERE k = ? AND j = ?")
    values = [v for _, v in stmt.assignments] + \
        [f.value for f in stmt.filters]
    assert values == [Placeholder(0), Placeholder(1),
                      Placeholder(2), Placeholder(3)]


def test_bind_params():
    stmt = parse_statement("UPDATE T SET a = ? WHERE k = ?")
    bound = bind_params(stmt, (10, 20))
    assert bound.assignments == (("a", 10),)
    assert bound.filters[0].value == 20
    assert count_placeholders(bound) == 0
    with pytest.raises(ValueError):
        bind_params(stmt, (1,))


def test_workload_file_comments_and_blanks():
    text = "# header\n\n" + W1 + "\n  # indented comment\n" + \
        "DELETE FROM Order WHERE O_ID = 7\n"
    stmts = parse_workload(text)
    assert len(stmts) == 2
    assert isinstance(stmts[0], SelectJoin)
    assert isinstance(stmts[1], Delete)


def test_workload_hash_inside_a_literal_is_not_a_comment():
    stmt = parse_statement(
        "SELECT * FROM Customer as c WHERE c.C_UNAME = 'a#b''#'")
    text = render_statement(stmt) + "  # trailing 'comment'\n"
    assert parse_workload(text) == [stmt]
    assert stmt.filters[0].value == "a#b'#"


# -- round-trip property -------------------------------------------------------

_KEYWORDS = {"select", "from", "where", "and", "as", "insert", "into",
             "values", "update", "set", "delete"}

identifiers = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True) \
    .filter(lambda s: s.lower() not in _KEYWORDS)
literals = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12))


@st.composite
def select_statements(draw):
    n = draw(st.integers(1, 3))
    rels = draw(st.lists(identifiers, min_size=n, max_size=n, unique=True))
    aliases = draw(st.lists(identifiers, min_size=n, max_size=n, unique=True))
    tables = tuple(zip(rels, aliases))
    joins = []
    for i in range(1, n):
        left = AttrRef(aliases[draw(st.integers(0, i - 1))],
                       draw(identifiers))
        joins.append(JoinCondition(left, AttrRef(aliases[i],
                                                 draw(identifiers))))
    n_filters = draw(st.integers(0, 3))
    filters = []
    n_params = 0
    for _ in range(n_filters):
        ref = AttrRef(draw(st.sampled_from(aliases)), draw(identifiers))
        op = draw(st.sampled_from(("=", "<", ">", "<=", ">=")))
        if draw(st.booleans()):
            value = Placeholder(n_params)
            n_params += 1
        else:
            value = draw(literals)
        filters.append(Filter(ref, op, value))
    if draw(st.booleans()):
        projections = None
    else:
        k = draw(st.integers(1, 3))
        projections = tuple(
            AttrRef(draw(st.sampled_from(aliases)), draw(identifiers))
            for _ in range(k))
    return SelectJoin(tables, projections, tuple(joins), tuple(filters))


@given(select_statements())
def test_select_round_trip_property(stmt):
    assert parse_statement(render_statement(stmt)) == stmt


@given(st.lists(st.tuples(identifiers, literals), min_size=1, max_size=5)
       .filter(lambda kv: len({k for k, _ in kv}) == len(kv)),
       identifiers)
def test_insert_round_trip_property(pairs, rel):
    stmt = Insert(rel, tuple(pairs))
    assert parse_statement(render_statement(stmt)) == stmt
