"""View-maintenance planning: view-row construction for admitted writes.

All functions here only read through the supplied reader (anything with
``get``/``scan``) and plan view rows only; the index rows those rows imply,
and every mutation, are the transaction layer's job.  So is choosing the
views: an insert or delete maps to the views whose last relation it
writes, an update to every view holding its relation.  Every statement
here has passed ``schema.check_write``: it pins its relation's key and
assigns no key or foreign-key attribute.  Inserts construct the view tuple
by walking the foreign keys upward, one read per ancestor relation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .schema import StoreCatalog
from .sqlparse import Insert, Update
from .storage import DIRTY, key_encoder, key_of, prefix_range
from .viewselect import ViewDef


def key_values_from_filters(stmt, primary_key: tuple[str, ...]) -> tuple:
    """Primary-key values pinned by equality filters, in key order (an
    admitted write pins every one)."""
    eq = {f.ref.name: f.value for f in stmt.filters if f.op == "="}
    return tuple(eq[a] for a in primary_key)


def parent_key(edge, row: dict, catalog: StoreCatalog) -> bytes | None:
    """Key of ``row``'s parent along the tree edge ``edge`` (in the
    ``edge.src`` table), or None when the row lacks a foreign-key attribute:
    one step of every upward walk."""
    try:
        values = tuple(row[a] for a in edge.fk)
    except KeyError:
        return None
    return key_encoder(catalog.handle(edge.src).key_types)(values)


def build_insert_view_tuple(view: ViewDef, insert: Insert, reader,
                            catalog: StoreCatalog):
    """View row for a base insert, or None when an ancestor row is missing
    (inner-join semantics).  Performs exactly one read per ancestor."""
    values = insert.value_map
    collected = [values]
    for edge in reversed(view.edges):
        key = parent_key(edge, collected[-1], catalog)
        parent = None if key is None else reader.get(edge.src, key)
        if parent is None:
            return None
        collected.append(parent)
    cells: dict = {}
    for row in reversed(collected):
        for attr, value in row.items():
            if attr != DIRTY:
                cells[attr] = value
    return key_of(catalog.handle(view.name), values), cells


@dataclass
class UpdatePlan:
    """``plan_update_rows``' result; benchmark tracing counts its rows."""
    view: str
    #: (view key, stored row, replacement cells) per view row touched
    rows: list[tuple[bytes, dict, dict]] = field(default_factory=list)


def plan_update_rows(view: ViewDef, update: Update, reader,
                     catalog: StoreCatalog) -> UpdatePlan:
    """Locate the view rows touched by a base-table update and compute
    their replacement cells.

    Rows are found via the view key when the updated relation is last,
    else via a view-index keyed on the relation's primary key, else by a
    full view scan.
    """
    rel = catalog.schema.relation(update.relation)
    key_vals = key_values_from_filters(update, rel.primary_key)
    view_handle = catalog.handle(view.name)
    assignments = dict(update.assignments)

    located: list[tuple[bytes, dict]] = []
    if update.relation == view.last:
        vkey = key_encoder(view_handle.key_types)(key_vals)
        row = reader.get(view.name, vkey)
        if row is not None:
            located.append((vkey, row))
    else:
        lookup = next(
            (ih for ih in catalog.indexes_of(view.name)
             if catalog.index_defs[ih.name].indexed_on == rel.primary_key),
            None)
        if lookup is not None:
            start, end = prefix_range(key_vals, lookup)
            for _, icells in reader.scan(lookup.name, start, end):
                vkey = key_of(view_handle, icells)
                row = reader.get(view.name, vkey)
                if row is not None:
                    located.append((vkey, row))
        else:
            pk_pairs = list(zip(rel.primary_key, key_vals))
            for vkey, row in reader.scan(view.name):
                if all(row.get(a) == v for a, v in pk_pairs):
                    located.append((vkey, row))

    plan = UpdatePlan(view.name)
    for vkey, old in located:
        new = {a: v for a, v in old.items() if a != DIRTY}
        new.update(assignments)
        plan.rows.append((vkey, old, new))
    return plan
