import pytest

from synergy.errors import CycleError, SchemaError, UnknownTableError
from synergy.fixtures import (company_schema, company_workload,
                              tpcw_micro_schema, tpcw_micro_workload)
from synergy.schema import (ForeignKey, IndexDef, RelationDef, SchemaDef,
                            baseline_transform, build_catalog,
                            build_schema_graph, load_schema, save_schema,
                            schema_from_dict, schema_to_dict)
from synergy.sqlparse import parse_statement, parse_workload
from synergy.storage import DIRTY, encode_key


def rel(name, attrs, pk, fks=()):
    return RelationDef(name, tuple(attrs), tuple(pk), tuple(fks))


def make_schema(*relations, roots=()):
    schema = SchemaDef({r.name: r for r in relations}, roots=tuple(roots))
    schema.validate()
    return schema


def test_company_graph_edges():
    graph = build_schema_graph(company_schema())
    labels = {(e.src, e.dst, e.fk_name) for e in graph.edges}
    assert labels == {
        ("Address", "Employee", "EHome_AID"),
        ("Address", "Employee", "EOffice_AID"),
        ("Department", "Employee", "E_DNo"),
        ("Employee", "Works_On", "WO_EID"),
    }
    total_fks = sum(len(r.foreign_keys)
                    for r in company_schema().relations.values())
    assert len(graph.edges) == total_fks


def test_single_relation_graph():
    schema = make_schema(rel("A", [("x", "int")], ["x"]))
    graph = build_schema_graph(schema)
    assert graph.nodes == ("A",)
    assert graph.edges == ()


def test_self_reference_is_a_cycle():
    schema = make_schema(rel("A", [("x", "int"), ("p", "int")], ["x"],
                             [ForeignKey("p", ("p",), "A")]))
    with pytest.raises(CycleError):
        build_schema_graph(schema)


def test_transitive_cycle_detected():
    schema = make_schema(
        rel("A", [("a", "int"), ("fb", "int")], ["a"],
            [ForeignKey("fb", ("fb",), "B")]),
        rel("B", [("b", "int"), ("fc", "int")], ["b"],
            [ForeignKey("fc", ("fc",), "C")]),
        rel("C", [("c", "int"), ("fa", "int")], ["c"],
            [ForeignKey("fa", ("fa",), "A")]))
    with pytest.raises(CycleError):
        build_schema_graph(schema)


def test_fk_arity_must_match_referenced_pk():
    with pytest.raises(SchemaError) as info:
        make_schema(
            rel("P", [("a", "int"), ("b", "int")], ["a", "b"]),
            rel("C", [("c", "int"), ("fp", "int")], ["c"],
                [ForeignKey("fp", ("fp",), "P")]))
    assert "C.fp" in str(info.value)


def test_validation_names_unknown_fk_target():
    with pytest.raises(SchemaError) as info:
        make_schema(rel("C", [("c", "int"), ("f", "int")], ["c"],
                        [ForeignKey("f", ("f",), "Nowhere")]))
    assert "C.f" in str(info.value)


def test_roots_must_be_relations():
    with pytest.raises(SchemaError):
        make_schema(rel("A", [("x", "int")], ["x"]), roots=["B"])


def test_the_dirty_mark_name_is_reserved():
    # as an attribute, SELECT * dropped it and an update of it left marks
    # every view read then timed out on
    with pytest.raises(SchemaError) as info:
        make_schema(rel("P", [("k", "int"), (DIRTY, "int")], ["k"]))
    assert DIRTY in str(info.value)
    doc = schema_to_dict(company_schema())
    doc["relations"][0]["attrs"].append([DIRTY, "int"])
    with pytest.raises(SchemaError):
        schema_from_dict(doc)


def test_index_key_is_indexed_on_plus_pk():
    schema = make_schema(rel("R", [("k", "int"), ("v", "int")], ["k"]))
    schema.indexes = (IndexDef("X_R_v", "R", ("v",)),)
    schema.validate()
    handle = build_catalog(schema).handle("X_R_v")
    assert handle.key_attrs == ("v", "k")
    assert handle.kind == "index"


def test_baseline_company_tables_and_keys():
    result = baseline_transform(company_schema(), company_workload())
    catalog = build_catalog(company_schema())
    names = {h.name for h in catalog.all_handles()}
    assert names == {"Address", "Department", "Employee", "Works_On"}
    handle = catalog.handle("Works_On")
    assert handle.key_attrs == ("WO_EID", "WO_PNo")
    key = encode_key((5, 2), handle.key_types)
    assert key == encode_key((5,), ("int",)) + b"\x1f" + \
        encode_key((2,), ("int",))
    # the whole read workload survives
    assert result.statements == company_workload()
    assert result.rejected == []


def test_baseline_excludes_partial_key_delete():
    schema = make_schema(
        rel("shopping_cart_line",
            [("scl_sc_id", "int"), ("scl_i_id", "int"), ("scl_qty", "int")],
            ["scl_sc_id", "scl_i_id"]))
    workload = parse_workload(
        "DELETE FROM shopping_cart_line WHERE scl_sc_id = ?\n"
        "DELETE FROM shopping_cart_line WHERE scl_sc_id = ? AND scl_i_id = ?\n")
    result = baseline_transform(schema, workload)
    assert result.statements == [workload[1]]
    assert len(result.rejected) == 1
    stmt, reason = result.rejected[0]
    assert stmt is workload[0]
    assert "scl_i_id" in reason


def test_baseline_insert_must_carry_full_key():
    schema = make_schema(
        rel("T", [("a", "int"), ("b", "int"), ("v", "int")], ["a", "b"]))
    keep = parse_statement("INSERT INTO T (a, b, v) VALUES (1, 2, 3)")
    drop = parse_statement("INSERT INTO T (a, v) VALUES (1, 3)")
    result = baseline_transform(schema, [keep, drop])
    assert result.statements == [keep]
    assert result.rejected[0][0] is drop


def test_baseline_update_range_filter_not_key_coverage():
    schema = make_schema(rel("T", [("a", "int"), ("v", "int")], ["a"]))
    stmt = parse_statement("UPDATE T SET v = 1 WHERE a > 5")
    result = baseline_transform(schema, [stmt])
    assert result.statements == []
    assert result.rejected[0][0] is stmt


def test_baseline_empty_workload():
    result = baseline_transform(company_schema(), [])
    assert result.statements == []
    assert result.rejected == []


def test_baseline_output_subset_and_rejects_are_writes():
    schema, workload = company_schema(), parse_workload(
        "SELECT * FROM Employee as e, Address as a WHERE a.AID = e.EHome_AID\n"
        "INSERT INTO Works_On (WO_EID, WO_PNo, Hours) VALUES (1, 1, 5)\n"
        "DELETE FROM Works_On WHERE WO_EID = 1\n"
        "UPDATE Employee SET ESalary = 1 WHERE EID = 2\n")
    result = baseline_transform(schema, workload)
    assert all(s in workload for s in result.statements)
    for stmt, reason in result.rejected:
        assert not stmt.__class__.__name__ == "SelectJoin"
        assert "key attribute" in reason


def test_baseline_rejects_writes_every_execution_refuses():
    workload = tpcw_micro_workload()
    refused = parse_workload(
        "UPDATE Order SET O_C_ID = ? WHERE O_ID = ?\n"
        "UPDATE Customer SET C_BALANCE = ? WHERE C_ID = ? AND NOPE = ?\n"
        "DELETE FROM Order_line WHERE OL_ID = 'x'\n")
    result = baseline_transform(tpcw_micro_schema(), workload + refused)
    # the well-formed placeholder writes stay, as does every read
    assert result.statements == workload
    assert [stmt for stmt, _ in result.rejected] == refused
    reasons = [reason for _, reason in result.rejected]
    assert "O_C_ID" in reasons[0]
    assert "NOPE" in reasons[1]
    assert "OL_ID" in reasons[2]


def test_baseline_unknown_relation_raises():
    with pytest.raises(UnknownTableError):
        baseline_transform(company_schema(),
                           [parse_statement("DELETE FROM Nope WHERE x = 1")])


def test_schema_json_round_trip(tmp_path):
    schema = company_schema()
    path = tmp_path / "schema.json"
    save_schema(schema, path)
    loaded = load_schema(path)
    assert schema_to_dict(loaded) == schema_to_dict(schema)
    # referenced primary keys are resolved on load
    emp = loaded.relation("Employee")
    assert all(fk.referenced_pk for fk in emp.foreign_keys)


def test_schema_from_dict_rejects_duplicates():
    doc = schema_to_dict(company_schema())
    doc["relations"].append(doc["relations"][0])
    with pytest.raises(SchemaError):
        schema_from_dict(doc)
