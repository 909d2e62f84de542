"""Per-query view selection, query rewriting, and index recommendation.

Selection marks tree edges matched by a query's join conditions, then
repeatedly carves off a fully marked path that starts at a marked node
with no incoming marked edge and runs until a leaf or a node without an
outgoing marked edge.  Each carved path becomes a view; its relations and
their outgoing edges are unmarked before the next round.

Rewriting collapses each view's relations into a single table reference,
drops intra-view join conditions, and re-points the surviving attribute
references.  Index recommendation covers filtered view attributes the view
key does not serve, plus maintenance indexes keyed on the primary key of
interior view relations that the workload updates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import AmbiguityError
from .schema import Edge, IndexDef, SchemaDef
from .sqlparse import (AttrRef, Filter, JoinCondition, SelectJoin, Statement,
                       Update)
from .viewgen import (CandidateView, RootedTree, edge_matches_query,
                      path_nodes, query_join_pairs)


@dataclass
class ViewDef:
    name: str
    relations: tuple[str, ...]
    edges: tuple[Edge, ...]
    attributes: tuple[str, ...]
    key: tuple[str, ...]                 # primary key of the last relation
    provenance: list[int] = field(default_factory=list)

    @property
    def last(self) -> str:
        return self.relations[-1]


def view_name_for(relations) -> str:
    return "V_" + "_".join(relations)


def make_view_def(candidate: CandidateView, schema: SchemaDef) -> ViewDef:
    attributes: list[str] = []
    for rel_name in candidate.relations:
        for attr in schema.relation(rel_name).attr_names:
            if attr in attributes:
                raise AmbiguityError(
                    f"attribute {attr!r} appears in more than one relation "
                    f"of view over {candidate.relations}")
            attributes.append(attr)
    return ViewDef(
        name=view_name_for(candidate.relations),
        relations=candidate.relations,
        edges=candidate.edges,
        attributes=tuple(attributes),
        key=schema.relation(candidate.last).primary_key)


# -- selection ----------------------------------------------------------------

def select_views_for_query(q: SelectJoin, trees: list[RootedTree],
                           ) -> list[CandidateView]:
    """Apply the marking procedure; queries using a relation twice select
    nothing and run as plain joins."""
    relations = [rel for rel, _ in q.tables]
    if len(set(relations)) != len(relations):
        return []
    pairs = query_join_pairs(q)
    selected: list[CandidateView] = []
    for tree in trees:
        marked_edges = {e for e in tree.edges if edge_matches_query(e, pairs)}
        marked_nodes: set[str] = set()
        for e in marked_edges:
            marked_nodes.update((e.src, e.dst))
        while marked_nodes:
            starts = sorted(
                n for n in marked_nodes
                if not any(e.dst == n for e in marked_edges))
            if not starts:
                break
            start = starts[0]
            path: list[Edge] = []
            node = start
            while True:
                nxt = sorted(
                    (e for e in marked_edges
                     if e.src == node and e.dst in marked_nodes),
                    key=lambda e: e.dst)
                if not nxt:
                    break
                path.append(nxt[0])
                node = nxt[0].dst
            if path:
                selected.append(CandidateView(
                    path_nodes(start, path), tuple(path)))
                covered = set(path_nodes(start, path))
            else:
                covered = {start}     # isolated mark, never a view
            marked_nodes -= covered
            marked_edges = {e for e in marked_edges if e.src not in covered}
    return selected


def select_views(workload: list[Statement], trees: list[RootedTree],
                 schema: SchemaDef) -> list[ViewDef]:
    """Union of per-query selections, deduplicated by relation path; the
    provenance records workload positions served by each view."""
    by_path: dict[tuple[str, ...], ViewDef] = {}
    for position, stmt in enumerate(workload):
        if not isinstance(stmt, SelectJoin) or not stmt.joins:
            continue
        for cv in select_views_for_query(stmt, trees):
            view = by_path.get(cv.relations)
            if view is None:
                view = make_view_def(cv, schema)
                by_path[cv.relations] = view
            view.provenance.append(position)
    return sorted(by_path.values(), key=lambda v: v.relations)


# -- rewriting ----------------------------------------------------------------

def rewrite_query(q: SelectJoin, selected: list[ViewDef]) -> SelectJoin:
    """Collapse each selected view's relations into one table reference."""
    if not selected:
        return q
    rel_to_view: dict[str, ViewDef] = {}
    for view in selected:
        for rel_name in view.relations:
            rel_to_view[rel_name] = view

    view_alias: dict[str, str] = {}
    tables: list[tuple[str, str]] = []
    alias_target: dict[str, tuple[str, ViewDef | None]] = {}
    for rel_name, alias in q.tables:
        view = rel_to_view.get(rel_name)
        if view is None:
            tables.append((rel_name, alias))
            alias_target[alias] = (alias, None)
        else:
            if view.name not in view_alias:
                view_alias[view.name] = f"v{len(view_alias) + 1}"
                tables.append((view.name, view_alias[view.name]))
            alias_target[alias] = (view_alias[view.name], view)

    def repoint(ref: AttrRef) -> AttrRef:
        if ref.qualifier is None:
            return ref
        new_alias, view = alias_target[ref.qualifier]
        if view is not None and ref.name not in view.attributes:
            raise AmbiguityError(
                f"attribute {ref.name!r} cannot be re-pointed at {view.name}")
        return AttrRef(new_alias, ref.name)

    rel_of = q.alias_map
    joins = []
    for cond in q.joins:
        lv = rel_to_view.get(rel_of[cond.left.qualifier])
        rv = rel_to_view.get(rel_of[cond.right.qualifier])
        if lv is not None and lv is rv:
            continue                  # both sides inside one view
        joins.append(JoinCondition(repoint(cond.left), repoint(cond.right)))
    filters = tuple(Filter(repoint(f.ref), f.op, f.value) for f in q.filters)
    projections = None if q.projections is None else \
        tuple(repoint(r) for r in q.projections)
    return SelectJoin(tuple(tables), projections, tuple(joins), filters)


@dataclass
class RewriteResult:
    statements: list[Statement]            # workload with reads rewritten
    views: list[ViewDef]


def rewrite_statement(stmt: Statement, trees: list[RootedTree],
                      views: list[ViewDef]) -> Statement:
    """``stmt`` over whichever of ``views`` its selection picks; a write,
    or a query picking none of them, comes back unchanged."""
    if not isinstance(stmt, SelectJoin) or not stmt.joins:
        return stmt
    by_path = {v.relations: v for v in views}
    return rewrite_query(stmt, [
        by_path[cv.relations] for cv in select_views_for_query(stmt, trees)
        if cv.relations in by_path])


def rewrite_workload(workload: list[Statement], trees: list[RootedTree],
                     schema: SchemaDef) -> RewriteResult:
    views = select_views(workload, trees, schema)
    return RewriteResult(
        [rewrite_statement(stmt, trees, views) for stmt in workload], views)


# -- index recommendation --------------------------------------------------------

def recommend_view_indexes(rewritten: list[Statement], views: list[ViewDef],
                           ) -> list[IndexDef]:
    """One covered view-index per view and uncovered filter attribute.

    A query's filters on a view are served already when any filtered
    attribute leads the view key or an existing view-index; otherwise the
    index is keyed on one filter attribute, preferring equality predicates,
    ties by name.
    """
    by_name = {v.name: v for v in views}
    indexed: dict[str, set[str]] = {v.name: set() for v in views}
    out: list[IndexDef] = []
    for stmt in rewritten:
        if not isinstance(stmt, SelectJoin):
            continue
        for rel_name, alias in stmt.tables:
            view = by_name.get(rel_name)
            if view is None:
                continue
            filters = [f for f in stmt.filters
                       if f.ref.qualifier == alias or
                       (f.ref.qualifier is None and len(stmt.tables) == 1)]
            if not filters:
                continue
            attrs = {f.ref.name for f in filters}
            if view.key[0] in attrs or attrs & indexed[view.name]:
                continue
            eq = sorted(f.ref.name for f in filters if f.op == "=")
            pick = eq[0] if eq else sorted(attrs)[0]
            out.append(IndexDef(
                name=f"X_{view.name}_{pick}",
                base=view.name,
                attributes=view.attributes,
                indexed_on=(pick,)))
            indexed[view.name].add(pick)
    return out


def recommend_maintenance_indexes(views: list[ViewDef],
                                  workload: list[Statement],
                                  schema: SchemaDef,
                                  existing: list[IndexDef] = (),
                                  ) -> list[IndexDef]:
    """Indexes that let updates of interior view relations locate their view
    rows by the updated relation's key instead of scanning the view."""
    updated = {stmt.relation for stmt in workload if isinstance(stmt, Update)}
    seen = {(idx.base, idx.indexed_on) for idx in existing}
    out: list[IndexDef] = []
    for view in views:
        for rel_name in view.relations[:-1]:
            if rel_name not in updated:
                continue
            pk = schema.relation(rel_name).primary_key
            if (view.name, pk) in seen:
                continue
            seen.add((view.name, pk))
            out.append(IndexDef(
                name=f"M_{view.name}_{'_'.join(pk)}",
                base=view.name,
                attributes=view.attributes,
                indexed_on=pk))
    return out
