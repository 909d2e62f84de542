"""View-maintenance planning: view-row construction for admitted writes.

All functions here only read through the supplied reader (anything with
``get``/``scan``) and plan view rows only; the index rows those rows imply,
and every mutation, are the transaction layer's job.  So is choosing the
views: an insert or delete maps to the views whose last relation it
writes, an update to every view holding its relation.  Every statement
here has passed ``schema.check_write``: it pins its relation's key and
assigns no key or foreign-key attribute.  Inserts construct the view tuple
by walking the foreign keys upward, one read per ancestor relation.
Updates find their view rows the way reads find rows, by the table or
index ``StoreCatalog.access_path`` picks for the pinned key, in one scan,
and plan each row from the cells it scanned.
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
        cells.update(row)
    return key_of(catalog.handle(view.name), values), cells


@dataclass
class UpdatePlan:
    """``plan_update_rows``' result; benchmark tracing counts its rows."""
    #: (view key, stored row, replacement cells) per view row touched
    rows: list[tuple[bytes, dict, dict]] = field(default_factory=list)


def plan_update_rows(view: ViewDef, update: Update, reader,
                     catalog: StoreCatalog) -> UpdatePlan:
    """Locate the view rows touched by a base-table update and compute
    their replacement cells.

    One scan of the table ``catalog.access_path`` picks for the pinned
    key finds them, each planned from the cells scanned: an index row
    holds its view row's cells, unless marked.
    A marked one turns up only in a replay, which must derive the old
    index keys from the view row, so that row is read again.
    """
    rel = catalog.schema.relation(update.relation)
    pinned = dict(zip(rel.primary_key,
                      key_values_from_filters(update, rel.primary_key)))
    view_handle = catalog.handle(view.name)
    handle, n = catalog.access_path(view.name, pinned)
    start, end = (prefix_range([pinned[a] for a in handle.key_attrs[:n]],
                               handle) if n else (None, None))
    plan = UpdatePlan()
    for key, old in reader.scan(handle.name, start, end):
        # a prefix binding every pinned attribute finds only rows holding it
        if n < len(pinned) and any(
                old.get(a) != v for a, v in pinned.items()):
            continue
        if handle is not view_handle:
            key = key_of(view_handle, old)
            if DIRTY in old:
                old = reader.get(view.name, key)
        new = {a: v for a, v in old.items() if a != DIRTY}
        new.update(update.assignments)
        plan.rows.append((key, old, new))
    return plan
