import itertools
import random

import pytest

from synergy.errors import CycleError
from synergy.fixtures import company_schema, company_workload
from synergy.schema import (Edge, ForeignKey, RelationDef, SchemaDef,
                            SchemaGraph, build_schema_graph)
from synergy.sqlparse import parse_statement
from synergy.viewgen import (RootedGraph, WorkloadWeights, assign_to_roots,
                             enumerate_candidate_views,
                             generate_candidate_views, to_dag,
                             to_rooted_tree, topological_order)


def company_graph():
    return build_schema_graph(company_schema())


def edge_by_fk(graph, fk_name):
    return next(e for e in graph.edges if e.fk_name == fk_name)


def join_query(src, dst, pk, fk):
    return parse_statement(
        f"SELECT * FROM {src} as s, {dst} as d WHERE s.{pk} = d.{fk}")


# -- heuristic ------------------------------------------------------------------

def test_home_address_edge_weight_is_one():
    graph = company_graph()
    assert WorkloadWeights(company_workload()).edge_weight(
        edge_by_fk(graph, "EHome_AID")) == 1


def test_office_address_edge_weight_is_zero():
    graph = company_graph()
    assert WorkloadWeights(company_workload()).edge_weight(
        edge_by_fk(graph, "EOffice_AID")) == 0


def test_department_chain_path_weight():
    # hand oracle over W1-W3: W2 matches both chain edges, W3 matches the
    # Employee -> Works_On edge, W1 matches neither
    graph = company_graph()
    path = (edge_by_fk(graph, "E_DNo"), edge_by_fk(graph, "WO_EID"))
    assert WorkloadWeights(company_workload()).path_weight(path) == 3


def test_composite_key_edge_needs_all_condition_pairs():
    parent = RelationDef("P", (("a", "int"), ("b", "int")), ("a", "b"))
    child = RelationDef("C", (("c", "int"), ("fa", "int"), ("fb", "int")),
                        ("c",),
                        (ForeignKey("f", ("fa", "fb"), "P"),))
    schema = SchemaDef({"P": parent, "C": child})
    graph = build_schema_graph(schema)
    partial = parse_statement(
        "SELECT * FROM P as p, C as c WHERE p.a = c.fa")
    full = parse_statement(
        "SELECT * FROM P as p, C as c WHERE p.a = c.fa AND p.b = c.fb")
    edge = graph.edges[0]
    assert WorkloadWeights([partial]).edge_weight(edge) == 0
    assert WorkloadWeights([full]).edge_weight(edge) == 2


# -- step 1: DAG ------------------------------------------------------------------

def test_to_dag_drops_office_address_edge():
    graph = company_graph()
    dag = to_dag(graph, company_workload())
    fk_names = {e.fk_name for e in dag.edges}
    assert "EOffice_AID" not in fk_names
    assert "EHome_AID" in fk_names
    assert len(dag.edges) == 3
    pairs = [(e.src, e.dst) for e in dag.edges]
    assert len(set(pairs)) == len(pairs)


def test_to_dag_without_parallel_edges_is_identity():
    graph = company_graph()
    dag = to_dag(graph, company_workload())
    assert to_dag(dag, company_workload()).edges == dag.edges


def test_to_dag_tie_break_keeps_smallest_fk_name():
    edges = (Edge("A", "B", ("a",), "fk_z", ("z",)),
             Edge("A", "B", ("a",), "fk_b", ("b",)))
    graph = SchemaGraph(("A", "B"), edges)
    dag = to_dag(graph, [])         # both weights zero
    assert [e.fk_name for e in dag.edges] == ["fk_b"]


# -- step 2: topological order ------------------------------------------------------

def brute_force_topo_orders(graph):
    orders = []
    for perm in itertools.permutations(graph.nodes):
        pos = {n: i for i, n in enumerate(perm)}
        if all(pos[e.src] < pos[e.dst] for e in graph.edges):
            orders.append(list(perm))
    return orders


def test_company_topological_order_against_brute_force():
    dag = to_dag(company_graph(), company_workload())
    order = topological_order(dag)
    valid = brute_force_topo_orders(dag)
    assert order in valid
    assert order == min(valid)      # name tie-break = lexicographic smallest
    assert order == ["Address", "Department", "Employee", "Works_On"]


def test_topological_order_single_node_and_chain():
    assert topological_order(SchemaGraph(("A",), ())) == ["A"]
    chain = SchemaGraph(("C", "A", "B"), (
        Edge("A", "B", ("a",), "f1", ("fa",)),
        Edge("B", "C", ("b",), "f2", ("fb",))))
    assert topological_order(chain) == ["A", "B", "C"]


def test_topological_order_raises_on_cycle():
    graph = SchemaGraph(("A", "B"), (
        Edge("A", "B", ("a",), "f1", ("fa",)),
        Edge("B", "A", ("b",), "f2", ("fb",))))
    with pytest.raises(CycleError):
        topological_order(graph)


# -- step 3: root assignment ----------------------------------------------------------

def company_assignment():
    dag = to_dag(company_graph(), company_workload())
    order = topological_order(dag)
    return assign_to_roots(dag, order, ("Address", "Department"),
                           company_workload())


def test_company_assignment_prefers_earlier_root_on_ties():
    rooted, report = company_assignment()
    by_rel = {a.relation: a for a in report}
    emp = by_rel["Employee"]
    # both 1-hop paths weigh 1 (W1 vs W2); Address is earlier in the roots
    assert emp.root == "Address"
    assert emp.weight == 1
    candidate_weights = {tuple(c[2]): c[0] for c in emp.candidates}
    assert candidate_weights == {("Address", "Employee"): 1,
                                 ("Department", "Employee"): 1}


def test_company_works_on_follows_employee():
    rooted, report = company_assignment()
    by_rel = {a.relation: a for a in report}
    wo = by_rel["Works_On"]
    assert wo.root == "Address"
    assert tuple(e.dst for e in wo.path) == ("Employee", "Works_On")
    # weight per the overlapping-join count: W1 on the Address edge plus
    # W2 and W3 on the Employee edge
    assert wo.weight == 3
    address = next(g for g in rooted if g.root == "Address")
    assert address.nodes == {"Address", "Employee", "Works_On"}
    department = next(g for g in rooted if g.root == "Department")
    assert department.nodes == {"Department"}


def test_unreachable_relation_stays_unassigned():
    schema = SchemaDef({
        "A": RelationDef("A", (("a", "int"),), ("a",)),
        "Z": RelationDef("Z", (("z", "int"),), ("z",)),
    }, roots=("A",))
    graph = build_schema_graph(schema)
    dag = to_dag(graph, [])
    rooted, report = assign_to_roots(dag, topological_order(dag), ("A",), [])
    assert [a.relation for a in report if a.root is None] == ["Z"]
    assert all("Z" not in g.nodes for g in rooted)


def test_path_through_second_root_is_inadmissible():
    # A -> B -> C with both A and B roots: C may only attach to B
    schema = SchemaDef({
        "A": RelationDef("A", (("a", "int"),), ("a",)),
        "B": RelationDef("B", (("b", "int"), ("fa", "int")), ("b",),
                         (ForeignKey("fa", ("fa",), "A"),)),
        "C": RelationDef("C", (("c", "int"), ("fb", "int")), ("c",),
                         (ForeignKey("fb", ("fb",), "B"),)),
    }, roots=("A", "B"))
    graph = build_schema_graph(schema)
    dag = to_dag(graph, [])
    rooted, report = assign_to_roots(dag, topological_order(dag),
                                     ("A", "B"), [])
    by_rel = {a.relation: a for a in report}
    assert by_rel["C"].root == "B"
    a_graph = next(g for g in rooted if g.root == "A")
    assert a_graph.nodes == {"A"}


# -- step 4: rooted tree ----------------------------------------------------------------

def test_tree_from_tree_shaped_graph_is_identity():
    rooted, _ = company_assignment()
    address = next(g for g in rooted if g.root == "Address")
    tree = to_rooted_tree(address, company_workload())
    assert set(tree.edges) == set(address.edges)
    assert tree.nodes[0] == "Address"
    assert tuple(e.dst for e in tree.edges) == ("Employee", "Works_On")


def diamond_graph(w_left=2, w_right=1):
    # root -> B -> D and root -> C -> D; workload repeats joins to weight them
    edges = (Edge("R", "B", ("r",), "fb", ("fr",)),
             Edge("B", "D", ("b",), "fd1", ("fb",)),
             Edge("R", "C", ("r",), "fc", ("fr2",)),
             Edge("C", "D", ("c",), "fd2", ("fc",)))
    workload = []
    for _ in range(w_left):
        workload.append(join_query("B", "D", "b", "fb"))
    for _ in range(w_right):
        workload.append(join_query("C", "D", "c", "fc"))
    rg = RootedGraph("R", frozenset("RBCD"), frozenset(edges))
    return rg, workload


def test_diamond_keeps_heavier_path_and_covers_the_rest():
    rg, workload = diamond_graph()
    tree = to_rooted_tree(rg, workload)
    got = {(e.src, e.dst) for e in tree.edges}
    assert got == {("R", "B"), ("B", "D"), ("R", "C")}
    # unique-path invariant
    parents = [e.dst for e in tree.edges]
    assert len(parents) == len(set(parents))


def test_diamond_weight_flip_changes_kept_path():
    rg, workload = diamond_graph(w_left=1, w_right=3)
    tree = to_rooted_tree(rg, workload)
    got = {(e.src, e.dst) for e in tree.edges}
    assert got == {("R", "C"), ("C", "D"), ("R", "B")}


# -- candidate enumeration -----------------------------------------------------------------

def test_chain_candidates():
    rooted, _ = company_assignment()
    address = next(g for g in rooted if g.root == "Address")
    tree = to_rooted_tree(address, company_workload())
    views = enumerate_candidate_views([tree])
    assert sorted(v.relations for v in views) == [
        ("Address", "Employee"),
        ("Address", "Employee", "Works_On"),
        ("Employee", "Works_On"),
    ]


def test_root_only_tree_has_no_candidates():
    rooted, _ = company_assignment()
    department = next(g for g in rooted if g.root == "Department")
    tree = to_rooted_tree(department, company_workload())
    assert enumerate_candidate_views([tree]) == []


def test_star_tree_candidates():
    edges = tuple(Edge("R", c, ("r",), f"f{c}", (f"fr{c}",))
                  for c in ("X", "Y", "Z"))
    rg = RootedGraph("R", frozenset("RXYZ"), frozenset(edges))
    tree = to_rooted_tree(rg, [])
    views = enumerate_candidate_views([tree])
    assert sorted(v.relations for v in views) == [
        ("R", "X"), ("R", "Y"), ("R", "Z")]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_chain_candidate_count_is_quadratic(n):
    nodes = [f"N{i}" for i in range(n)]
    edges = tuple(Edge(nodes[i], nodes[i + 1], (f"k{i}",), f"f{i}",
                       (f"fk{i}",)) for i in range(n - 1))
    rg = RootedGraph(nodes[0], frozenset(nodes), frozenset(edges))
    tree = to_rooted_tree(rg, [])
    assert len(enumerate_candidate_views([tree])) == n * (n - 1) // 2


# -- randomized whole-pipeline invariants ------------------------------------------------

def random_schema(rng: random.Random):
    n = rng.randrange(2, 7)
    relations = {}
    for i in range(n):
        name = f"N{i}"
        attrs = [(f"k{i}", "int")]
        fks = []
        for j in range(i):
            if rng.random() < 0.45:
                fk_attr = f"f{i}_{j}_{rng.randrange(2)}"
                if any(a == fk_attr for a, _ in attrs):
                    continue
                attrs.append((fk_attr, "int"))
                fks.append(ForeignKey(fk_attr, (fk_attr,), f"N{j}"))
        relations[name] = RelationDef(name, tuple(attrs), (f"k{i}",),
                                      tuple(fks))
    n_roots = rng.randrange(1, 3)
    roots = tuple(rng.sample(sorted(relations), n_roots))
    return SchemaDef(relations, roots=roots)


def random_workload(rng, graph):
    workload = []
    for e in graph.edges:
        for _ in range(rng.randrange(0, 3)):
            workload.append(join_query(e.src, e.dst, e.pk[0], e.fk[0]))
    return workload


@pytest.mark.parametrize("seed", range(30))
def test_random_pipeline_invariants(seed):
    rng = random.Random(seed)
    schema = random_schema(rng)
    schema.validate()
    graph = build_schema_graph(schema)
    workload = random_workload(rng, graph)
    result = generate_candidate_views(graph, schema, workload)

    # determinism: a second run is identical
    again = generate_candidate_views(graph, schema, workload)
    assert [t for t in again.trees] == [t for t in result.trees]
    assert again.candidates == result.candidates

    # at most one edge per ordered pair after the DAG step
    pairs = [(e.src, e.dst) for e in result.dag.edges]
    assert len(pairs) == len(set(pairs))

    # each non-root relation appears in at most one tree
    seen = {}
    for tree in result.trees:
        for node in tree.nodes:
            if node == tree.root:
                continue
            assert node not in seen, f"{node} in {seen[node]} and {tree.root}"
            seen[node] = tree.root

    # unique root path per node, edges within the assigned rooted graph
    for tree in result.trees:
        targets = [e.dst for e in tree.edges]
        assert len(targets) == len(set(targets))
        for node in tree.nodes:
            assert tree.path_from_root(node)[0] == tree.root

    # admissibility of the greedy assignment (step-3 rules)
    assignment = {a.relation: a.root for a in result.assignments
                  if a.root is not None}
    for root in schema.roots:
        assignment.setdefault(root, root)
    for a in result.assignments:
        if a.root is None:
            continue
        nodes = (a.root,) + tuple(e.dst for e in a.path)
        assert sum(1 for n in nodes if n in schema.roots) == 1
        for n in nodes:
            assert assignment[n] == a.root

    # candidate views are contiguous paths inside exactly their tree
    for cv in result.candidates:
        tree = next(t for t in result.trees
                    if set(cv.relations) <= set(t.nodes))
        chain = tree.path_from_root(cv.relations[-1])
        k = len(cv.relations)
        assert tuple(chain[-k:]) == cv.relations
