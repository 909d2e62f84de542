"""Candidate view generation.

Pipeline: collapse parallel edges of the schema graph into a DAG, order the
relations topologically, assign each non-root relation to at most one root
by picking an admissible root-to-relation path, then reduce each root's
graph to an out-tree.  Every directed path of two or more relations in a
tree is a candidate view.

Weights everywhere come from one workload heuristic: the number of join
conditions across all equi-join queries that coincide with an edge of the
element being weighed.  All tie-breaks are deterministic: equal-weight
parallel edges keep the lexicographically smallest foreign-key name; equal
paths prefer the shorter one, then the root listed earlier in the roots
set, then the lexicographically smallest relation sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CycleError
from .schema import Edge, SchemaDef, SchemaGraph
from .sqlparse import SelectJoin, Statement


@dataclass(frozen=True)
class RootedGraph:
    root: str
    nodes: frozenset[str]
    edges: frozenset[Edge]


@dataclass(frozen=True)
class RootedTree:
    root: str
    nodes: tuple[str, ...]          # root first, then assignment order
    edges: tuple[Edge, ...]

    def parent_edge(self, node: str) -> Edge | None:
        for e in self.edges:
            if e.dst == node:
                return e
        return None

    def path_from_root(self, node: str) -> list[str]:
        """The unique relation sequence from the root down to ``node``."""
        path = [node]
        while path[0] != self.root:
            edge = self.parent_edge(path[0])
            if edge is None:
                raise ValueError(f"{node} unreachable from {self.root}")
            path.insert(0, edge.src)
        return path


@dataclass(frozen=True)
class CandidateView:
    relations: tuple[str, ...]
    edges: tuple[Edge, ...]

    @property
    def last(self) -> str:
        return self.relations[-1]


# -- workload heuristic -------------------------------------------------------

def query_join_pairs(stmt: SelectJoin) -> set[tuple]:
    """Both orientations of each join condition as
    (left_rel, right_rel, left_attr, right_attr) tuples."""
    rel_of = stmt.alias_map
    pairs = set()
    for cond in stmt.joins:
        l, r = cond.left, cond.right
        for a, b in ((l, r), (r, l)):
            pairs.add((rel_of.get(a.qualifier), rel_of.get(b.qualifier),
                       a.name, b.name))
    return pairs


def edge_matches_query(edge: Edge, pairs: set[tuple]) -> bool:
    """A query matches an edge when its join conditions cover the edge's
    whole (primary key, foreign key) label."""
    return all((edge.src, edge.dst, pk_attr, fk_attr) in pairs
               for pk_attr, fk_attr in zip(edge.pk, edge.fk))


class WorkloadWeights:
    """Counts workload join conditions coinciding with graph edges."""

    def __init__(self, workload: list[Statement]):
        self._queries = [(stmt, query_join_pairs(stmt))
                         for stmt in workload
                         if isinstance(stmt, SelectJoin) and stmt.joins]

    def edge_weight(self, edge: Edge) -> int:
        # each matching query contributes one condition per key component
        return len(edge.pk) * sum(
            1 for _, pairs in self._queries
            if edge_matches_query(edge, pairs))

    def path_weight(self, edges) -> int:
        return sum(self.edge_weight(e) for e in edges)


# -- step 1: collapse parallel edges ------------------------------------------

def to_dag(graph: SchemaGraph, workload: list[Statement]) -> SchemaGraph:
    """Keep at most one edge per ordered relation pair: the one with the
    maximum weight, ties broken by smallest foreign-key name."""
    weights = WorkloadWeights(workload)
    by_pair: dict[tuple[str, str], list[Edge]] = {}
    for e in graph.edges:
        by_pair.setdefault((e.src, e.dst), []).append(e)
    kept = []
    for pair in by_pair:
        best = min(by_pair[pair],
                   key=lambda e: (-weights.edge_weight(e), e.fk_name))
        kept.append(best)
    kept_set = set(kept)
    ordered = tuple(e for e in graph.edges if e in kept_set)
    return SchemaGraph(graph.nodes, ordered)


def dropped_edges(graph: SchemaGraph, dag: SchemaGraph) -> list[Edge]:
    return [e for e in graph.edges if e not in set(dag.edges)]


# -- step 2: topological order -------------------------------------------------

def topological_order(dag: SchemaGraph) -> list[str]:
    """Kahn's algorithm; ready nodes are taken in name order."""
    indeg = {n: 0 for n in dag.nodes}
    succ: dict[str, list[str]] = {n: [] for n in dag.nodes}
    for e in dag.edges:
        indeg[e.dst] += 1
        succ[e.src].append(e.dst)
    ready = sorted(n for n, d in indeg.items() if d == 0)
    order = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        inserts = []
        for nxt in succ[node]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                inserts.append(nxt)
        if inserts:
            ready = sorted(ready + inserts)
    if len(order) != len(dag.nodes):
        raise CycleError("graph is not acyclic")
    return order


# -- path enumeration ----------------------------------------------------------

def enumerate_paths(edges, source: str, target: str) -> list[tuple[Edge, ...]]:
    """All simple directed paths from source to target (exhaustive DFS;
    schema graphs are small)."""
    out: dict[str, list[Edge]] = {}
    for e in edges:
        out.setdefault(e.src, []).append(e)
    results: list[tuple[Edge, ...]] = []

    def walk(node, trail, seen):
        if node == target:
            results.append(tuple(trail))
            return
        for e in sorted(out.get(node, ()), key=lambda e: (e.dst, e.fk_name)):
            if e.dst not in seen:
                trail.append(e)
                seen.add(e.dst)
                walk(e.dst, trail, seen)
                seen.remove(e.dst)
                trail.pop()

    walk(source, [], {source})
    return results


def path_nodes(source: str, edges) -> tuple[str, ...]:
    return (source,) + tuple(e.dst for e in edges)


# -- step 3: assign relations to roots ------------------------------------------

@dataclass
class Assignment:
    relation: str
    root: str | None
    path: tuple[Edge, ...] = ()
    weight: int = 0
    candidates: list[tuple[int, str, tuple[str, ...]]] = field(default_factory=list)


def assign_to_roots(dag: SchemaGraph, order: list[str], roots: tuple[str, ...],
                    workload: list[Statement],
                    ) -> tuple[list[RootedGraph], list[Assignment]]:
    """Examine non-root relations in forward topological order and attach
    each to the best admissible root path.

    A path is admissible when it contains exactly one root (its start) and
    none of its relations are already assigned to a different root.  Paths
    are tried by descending weight, then shorter first, then by the order
    of roots, then by relation sequence.
    """
    weights = WorkloadWeights(workload)
    root_rank = {r: i for i, r in enumerate(roots)}
    assigned: dict[str, str] = {r: r for r in roots}
    graphs: dict[str, tuple[set[str], set[Edge]]] = {
        r: ({r}, set()) for r in roots}
    report: list[Assignment] = []

    for relation in order:
        if relation in root_rank:
            continue
        candidates = []
        for root in roots:
            for path in enumerate_paths(dag.edges, root, relation):
                candidates.append((root, path))
        ranked = sorted(
            candidates,
            key=lambda c: (-weights.path_weight(c[1]), len(c[1]),
                           root_rank[c[0]], path_nodes(c[0], c[1])))
        entry = Assignment(relation, None)
        entry.candidates = [
            (weights.path_weight(p), root, path_nodes(root, p))
            for root, p in ranked]
        for root, path in ranked:
            nodes = path_nodes(root, path)
            if any(n in root_rank and n != root for n in nodes):
                continue
            if any(assigned.get(n, root) != root for n in nodes):
                continue
            g_nodes, g_edges = graphs[root]
            g_nodes.update(nodes)
            g_edges.update(path)
            for n in nodes:
                if n not in root_rank:
                    assigned[n] = root
            entry.root = root
            entry.path = path
            entry.weight = weights.path_weight(path)
            break
        report.append(entry)

    rooted = [RootedGraph(r, frozenset(graphs[r][0]), frozenset(graphs[r][1]))
              for r in roots]
    return rooted, report


# -- step 4: rooted graph to rooted tree -----------------------------------------

def to_rooted_tree(rg: RootedGraph, workload: list[Statement]) -> RootedTree:
    """Reduce a rooted graph to an out-tree with unique root paths.

    Non-root relations are consumed in reverse topological order; each
    round adds the heaviest root path to the last pending relation and
    drops every relation on that path from the pending list.  Candidate
    paths must be graftable onto the tree built so far: once a path leaves
    the already-chosen tree edges it may only visit new relations.
    """
    weights = WorkloadWeights(workload)
    subgraph = SchemaGraph(tuple(sorted(rg.nodes)), tuple(rg.edges))
    pending = [n for n in topological_order(subgraph) if n != rg.root]
    tree_nodes: list[str] = [rg.root]
    tree_edges: list[Edge] = []
    parent: dict[str, Edge] = {}

    def compatible(path) -> bool:
        in_tree_prefix = True
        for e in path:
            if in_tree_prefix and parent.get(e.dst) == e:
                continue
            in_tree_prefix = False
            if e.dst in parent:
                return False
        return True

    while pending:
        target = pending[-1]
        candidates = [
            p for p in enumerate_paths(rg.edges, rg.root, target)
            if compatible(p)]
        if not candidates:
            raise CycleError(
                f"no graftable path from {rg.root} to {target}")
        best = min(candidates,
                   key=lambda p: (-weights.path_weight(p), len(p),
                                  path_nodes(rg.root, p)))
        for e in best:
            if e.dst not in parent:
                parent[e.dst] = e
                tree_nodes.append(e.dst)
                tree_edges.append(e)
        covered = set(path_nodes(rg.root, best))
        pending = [n for n in pending if n not in covered]
    return RootedTree(rg.root, tuple(tree_nodes), tuple(tree_edges))


# -- candidate view enumeration ---------------------------------------------------

def enumerate_candidate_views(trees: list[RootedTree]) -> list[CandidateView]:
    """Every directed path of at least two relations in every tree."""
    views: list[CandidateView] = []
    for tree in trees:
        for node in tree.nodes:
            chain = tree.path_from_root(node)
            edges = [tree.parent_edge(n) for n in chain[1:]]
            # paths ending at ``node``: suffixes of its root chain
            for start in range(len(chain) - 1):
                views.append(CandidateView(
                    relations=tuple(chain[start:]),
                    edges=tuple(edges[start:])))
    views.sort(key=lambda v: v.relations)
    return views


# -- the full pipeline --------------------------------------------------------------

@dataclass
class GenerationResult:
    graph: SchemaGraph
    dag: SchemaGraph
    dropped: list[Edge]
    order: list[str]
    assignments: list[Assignment]
    trees: list[RootedTree]
    candidates: list[CandidateView]

    @property
    def unassigned(self) -> list[str]:
        return [a.relation for a in self.assignments if a.root is None]


def generate_candidate_views(graph: SchemaGraph, schema: SchemaDef,
                             workload: list[Statement],
                             roots: tuple[str, ...] | None = None,
                             ) -> GenerationResult:
    roots = tuple(roots if roots is not None else schema.roots)
    dag = to_dag(graph, workload)
    order = topological_order(dag)
    rooted_graphs, assignments = assign_to_roots(dag, order, roots, workload)
    trees = [to_rooted_tree(rg, workload) for rg in rooted_graphs]
    candidates = enumerate_candidate_views(trees)
    return GenerationResult(graph, dag, dropped_edges(graph, dag), order,
                            assignments, trees, candidates)
