"""Relations, keys, indexes, workload admission, and the schema graph.

A schema models relations with primary keys and foreign keys, plus
indexes.  The schema graph has one directed edge per foreign key, running
from the referenced relation to the referencing relation and labeled with
the (primary key, foreign key) attribute tuples.  ``build_catalog`` maps
the schema, the selected views and their indexes onto the key-value store:
one table per relation keyed by its primary key, one per view keyed by its
last relation's key, one per index keyed by the indexed attributes followed
by the base table's key, and one lock table per root.  There is one kind
of index: it holds its base table's (relation's or view's) own rows, every
column, under that other key.  ``StoreCatalog.add`` builds every handle,
typing its key and columns from the relations behind the table.
``StoreCatalog.access_path`` is the one rule for which table, or index of
it, serves a lookup by attribute values, for reads and updates alike.
``baseline_transform`` admits the runnable workload.  The attribute name
``DIRTY`` is the store's mark and reserved.

``check_write`` is the one rule for whether a write can run; the baseline
transform, the transaction manager and recovery all call it, and nothing
after it checks again.  ``value_fits`` is the one type rule, shared by
admission and the key encoder; its ints stay in the signed 64-bit range
of SQL literals, keys and snapshots.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import (CycleError, SchemaError, UnknownTableError,
                     UnsupportedUpdate)
from .sqlparse import (INT64_MAX, INT64_MIN, Insert, Placeholder, SelectJoin,
                       Statement, Update)

INT = "int"
STRING = "string"
_TYPES = (INT, STRING)

#: the cell marking a view or index row mid-update; no attribute takes it
DIRTY = "_dirty"


@dataclass(frozen=True)
class ForeignKey:
    name: str
    attrs: tuple[str, ...]
    references: str
    referenced_pk: tuple[str, ...] = ()


@dataclass(frozen=True)
class RelationDef:
    name: str
    attributes: tuple[tuple[str, str], ...]   # (attribute, type)
    primary_key: tuple[str, ...]
    foreign_keys: tuple[ForeignKey, ...] = ()

    @property
    def attr_names(self) -> tuple[str, ...]:
        return tuple(a for a, _ in self.attributes)

    @property
    def attr_types(self) -> dict[str, str]:
        return dict(self.attributes)


@dataclass(frozen=True)
class IndexDef:
    """An index: its base's rows keyed by ``indexed_on`` plus the base
    table's key."""
    name: str
    base: str                      # relation or view name
    indexed_on: tuple[str, ...]


@dataclass
class SchemaDef:
    relations: dict[str, RelationDef]
    indexes: tuple[IndexDef, ...] = ()
    roots: tuple[str, ...] = ()

    def relation(self, name: str) -> RelationDef:
        try:
            return self.relations[name]
        except KeyError:
            raise UnknownTableError(f"unknown relation {name!r}") from None

    def validate(self) -> None:
        for rel in self.relations.values():
            names = rel.attr_names
            if len(set(names)) != len(names):
                raise SchemaError(f"relation {rel.name}: duplicate attribute")
            if DIRTY in names:
                raise SchemaError(
                    f"relation {rel.name}: attribute {DIRTY!r} is reserved")
            for _, t in rel.attributes:
                if t not in _TYPES:
                    raise SchemaError(f"relation {rel.name}: bad type {t!r}")
            if not rel.primary_key:
                raise SchemaError(f"relation {rel.name}: empty primary key")
            for a in rel.primary_key:
                if a not in names:
                    raise SchemaError(
                        f"relation {rel.name}: key attribute {a!r} undefined")
            seen_fk = set()
            for fk in rel.foreign_keys:
                if fk.name in seen_fk:
                    raise SchemaError(
                        f"relation {rel.name}: duplicate foreign key {fk.name}")
                seen_fk.add(fk.name)
                if fk.references not in self.relations:
                    raise SchemaError(
                        f"foreign key {rel.name}.{fk.name} references "
                        f"unknown relation {fk.references!r}")
                target = self.relations[fk.references]
                if len(fk.attrs) != len(target.primary_key):
                    raise SchemaError(
                        f"foreign key {rel.name}.{fk.name}: attribute count "
                        f"differs from key of {fk.references}")
                for a in fk.attrs:
                    if a not in names:
                        raise SchemaError(
                            f"foreign key {rel.name}.{fk.name}: "
                            f"attribute {a!r} undefined")
        for idx in self.indexes:
            base = self.relations.get(idx.base)
            if base is None:
                raise SchemaError(f"index {idx.name}: unknown base {idx.base}")
            for a in idx.indexed_on:
                if a not in base.attr_names:
                    raise SchemaError(
                        f"index {idx.name}: attribute {a!r} not in {idx.base}")
            key = idx.indexed_on + tuple(
                a for a in base.primary_key if a not in idx.indexed_on)
            if len(set(key)) != len(key):
                raise SchemaError(f"index {idx.name}: duplicate key attribute")
        for r in self.roots:
            if r not in self.relations:
                raise SchemaError(f"root {r!r} is not a relation")

    def resolved_foreign_keys(self, rel: RelationDef):
        for fk in rel.foreign_keys:
            pk = self.relations[fk.references].primary_key
            yield ForeignKey(fk.name, fk.attrs, fk.references, pk)


@dataclass(frozen=True)
class Edge:
    """Directed edge from the referenced relation to the referencing one."""
    src: str
    dst: str
    pk: tuple[str, ...]       # primary key attributes of src
    fk_name: str
    fk: tuple[str, ...]       # foreign key attributes in dst

    def describe(self) -> str:
        return (f"{self.src} -> {self.dst} "
                f"({', '.join(self.pk)} -> {', '.join(self.fk)})")


@dataclass(frozen=True)
class SchemaGraph:
    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]


def build_schema_graph(schema: SchemaDef) -> SchemaGraph:
    """One edge per foreign key; raises CycleError on circular references."""
    schema.validate()
    edges = []
    for rel in schema.relations.values():
        for fk in schema.resolved_foreign_keys(rel):
            edges.append(Edge(src=fk.references, dst=rel.name,
                              pk=fk.referenced_pk, fk_name=fk.name,
                              fk=fk.attrs))
    graph = SchemaGraph(tuple(schema.relations), tuple(edges))
    cycle = _find_cycle(graph)
    if cycle:
        raise CycleError("circular reference: " + " -> ".join(cycle))
    return graph


def _find_cycle(graph: SchemaGraph):
    color = {n: 0 for n in graph.nodes}   # 0 new, 1 active, 2 done
    succ = {n: [] for n in graph.nodes}
    for e in graph.edges:
        succ[e.src].append(e.dst)

    def visit(node, trail):
        color[node] = 1
        trail.append(node)
        for nxt in succ[node]:
            if color[nxt] == 1:
                return trail[trail.index(nxt):] + [nxt]
            if color[nxt] == 0:
                found = visit(nxt, trail)
                if found:
                    return found
        color[node] = 2
        trail.pop()
        return None

    for n in graph.nodes:
        if color[n] == 0:
            found = visit(n, [])
            if found:
                return found
    return None


# -- store catalog ----------------------------------------------------------

BASE = "base"
VIEW = "view"
INDEX = "index"
LOCK = "lock"

LOCK_TABLE_PREFIX = "LK_"
LOCK_COLUMN = "lock_status"


@dataclass(frozen=True)
class TableHandle:
    name: str
    kind: str                      # base | view | index | lock
    key_attrs: tuple[str, ...]
    key_types: tuple[str, ...]
    columns: tuple[str, ...]


class StoreCatalog:
    """Registry of every key-value table: bases, views, indexes, locks.
    ``types`` maps each table to the types of its columns."""

    def __init__(self, schema: SchemaDef):
        self.schema = schema
        self.tables: dict[str, TableHandle] = {}
        self.types: dict[str, dict[str, str]] = {}
        self.index_defs: dict[str, IndexDef] = {}
        self._indexes_of: dict[str, list[TableHandle]] = {}

    def handle(self, name: str) -> TableHandle:
        try:
            return self.tables[name]
        except KeyError:
            raise UnknownTableError(f"unknown table {name!r}") from None

    def add(self, name: str, kind: str, key_attrs: tuple[str, ...],
            columns: tuple[str, ...], types: dict[str, str]) -> TableHandle:
        """Register a table, typed from ``types``, the attribute types of
        the relations behind it."""
        if name in self.tables:
            raise SchemaError(f"duplicate table name {name!r}")
        self.types[name] = {a: types[a] for a in columns if a in types}
        handle = self.tables[name] = TableHandle(
            name, kind, key_attrs, tuple(types[a] for a in key_attrs),
            columns)
        return handle

    def add_index(self, idx: IndexDef) -> TableHandle:
        base = self.handle(idx.base)
        key_attrs = idx.indexed_on + tuple(
            a for a in base.key_attrs if a not in idx.indexed_on)
        handle = self.add(idx.name, INDEX, key_attrs, base.columns,
                          self.types[idx.base])
        self.index_defs[idx.name] = idx
        self._indexes_of.setdefault(idx.base, []).append(handle)
        return handle

    def indexes_of(self, base: str) -> list[TableHandle]:
        return list(self._indexes_of.get(base, ()))

    def access_path(self, name: str, bound) -> tuple[TableHandle, int]:
        """The table ``name``, or one of its indexes, whose key has
        the longest leading run of attributes in ``bound``, and that run's
        length (0: scan the table); the table wins a tie.  Reads and
        updates both find rows by attribute values with it."""
        best, n = self.handle(name), 0
        for cand in [best] + self.indexes_of(name):
            run = 0
            for attr in cand.key_attrs:
                if attr not in bound:
                    break
                run += 1
            if run > n:
                best, n = cand, run
        return best, n

    def all_handles(self) -> list[TableHandle]:
        return list(self.tables.values())


def build_catalog(schema: SchemaDef, views=(), indexes=(),
                  roots=()) -> StoreCatalog:
    """The catalog of every table, in creation order: the bases, the
    schema's indexes, ``views`` (viewselect.ViewDef), the extra
    ``indexes`` over bases or views, and one lock table per root."""
    catalog = StoreCatalog(schema)
    for rel in schema.relations.values():
        catalog.add(rel.name, BASE, rel.primary_key, rel.attr_names,
                    rel.attr_types)
    for idx in schema.indexes:
        catalog.add_index(idx)
    for view in views:
        catalog.add(view.name, VIEW, view.key, view.attributes,
                    {a: t for r in view.relations
                     for a, t in schema.relation(r).attributes})
    for idx in indexes:
        catalog.add_index(idx)
    for root in roots:
        rel = schema.relation(root)
        catalog.add(LOCK_TABLE_PREFIX + root, LOCK, rel.primary_key,
                    (LOCK_COLUMN,), rel.attr_types)
    return catalog


@dataclass
class BaselineResult:
    statements: list[Statement]
    rejected: list[tuple[Statement, str]] = field(default_factory=list)


def value_fits(value, vtype: str) -> bool:
    """The one rule for a value of a declared type: ints exclude bools and
    stay in the 64-bit range that keys, snapshots and SQL literals hold."""
    if vtype == INT:
        return (isinstance(value, int) and not isinstance(value, bool)
                and INT64_MIN <= value <= INT64_MAX)
    return vtype == STRING and isinstance(value, str)


def check_write(schema: SchemaDef, stmt: Statement) -> None:
    """The one admission rule for writes.  Raises SchemaError for an
    attribute the relation lacks (in VALUES, SET or WHERE), a key attribute
    not pinned (in VALUES, or by an equality filter), or a bound value its
    attribute's type rejects (placeholders pass); UnsupportedUpdate for an
    assignment to a key or foreign-key attribute, which would move a row
    between view paths; UnknownTableError for an unknown relation."""
    rel = schema.relation(stmt.relation)
    types = rel.attr_types
    if isinstance(stmt, Insert):
        pairs = list(stmt.values)
        pinned = {a for a, _ in pairs}
    else:
        pairs = [(f.ref.name, f.value) for f in stmt.filters]
        pinned = {f.ref.name for f in stmt.filters if f.op == "="}
        if isinstance(stmt, Update):
            pairs += stmt.assignments
    for attr, value in pairs:
        vtype = types.get(attr)
        if vtype is None:
            raise SchemaError(
                f"relation {rel.name} has no attribute {attr!r}")
        if not (isinstance(value, Placeholder) or value_fits(value, vtype)):
            raise SchemaError(
                f"{rel.name}.{attr} expects {vtype}, got {value!r}")
    for attr in rel.primary_key:
        if attr not in pinned:
            raise SchemaError(f"key attribute {attr!r} not specified")
    if isinstance(stmt, Update):
        frozen = set(rel.primary_key).union(
            *(fk.attrs for fk in rel.foreign_keys))
        for attr, _ in stmt.assignments:
            if attr in frozen:
                raise UnsupportedUpdate(
                    f"assignment to key attribute {rel.name}.{attr}")


def baseline_transform(schema: SchemaDef, workload: list[Statement]) -> BaselineResult:
    """Map the schema onto KV tables and admit the runnable workload.

    Every read is kept.  A write is kept only when ``check_write`` admits
    it; the others land in ``rejected`` with the reason it gives.
    """
    schema.validate()
    kept: list[Statement] = []
    rejected: list[tuple[Statement, str]] = []
    for stmt in workload:
        if isinstance(stmt, SelectJoin):
            for rel_name, _ in stmt.tables:
                schema.relation(rel_name)     # must resolve
            kept.append(stmt)
            continue
        try:
            check_write(schema, stmt)
        except (SchemaError, UnsupportedUpdate) as exc:
            rejected.append((stmt, str(exc)))
        else:
            kept.append(stmt)
    return BaselineResult(kept, rejected)


# -- JSON schema files -------------------------------------------------------

def schema_to_dict(schema: SchemaDef) -> dict:
    return {
        "relations": [
            {
                "name": r.name,
                "attrs": [[a, t] for a, t in r.attributes],
                "pk": list(r.primary_key),
                "fks": [
                    {"name": fk.name, "attrs": list(fk.attrs),
                     "references": fk.references}
                    for fk in r.foreign_keys
                ],
            }
            for r in schema.relations.values()
        ],
        "indexes": [{"name": i.name, "base": i.base,
                     "indexed_on": list(i.indexed_on)}
                    for i in schema.indexes],
        "roots": list(schema.roots),
    }


def schema_from_dict(doc: dict) -> SchemaDef:
    relations: dict[str, RelationDef] = {}
    for r in doc.get("relations", ()):
        fks = tuple(
            ForeignKey(f["name"], tuple(f["attrs"]), f["references"])
            for f in r.get("fks", ()))
        rel = RelationDef(
            name=r["name"],
            attributes=tuple((a, t) for a, t in r["attrs"]),
            primary_key=tuple(r["pk"]),
            foreign_keys=fks)
        if rel.name in relations:
            raise SchemaError(f"duplicate relation {rel.name!r}")
        relations[rel.name] = rel
    # an index holds its base's rows: an "attributes" field is ignored
    indexes = tuple(IndexDef(i["name"], i["base"], tuple(i["indexed_on"]))
                    for i in doc.get("indexes", ()))
    schema = SchemaDef(relations, indexes, tuple(doc.get("roots", ())))
    schema.validate()
    # resolve referenced primary keys up front
    for name, rel in list(relations.items()):
        resolved = tuple(schema.resolved_foreign_keys(rel))
        relations[name] = RelationDef(rel.name, rel.attributes,
                                      rel.primary_key, resolved)
    schema.relations = relations
    return schema


def load_schema(path) -> SchemaDef:
    with open(path, encoding="utf-8") as fh:
        return schema_from_dict(json.load(fh))


def save_schema(schema: SchemaDef, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(schema_to_dict(schema), fh, indent=2)
        fh.write("\n")
