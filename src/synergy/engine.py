"""Read path: plan and execute SELECT statements over base tables or views.

Plans are left-deep joins built in one pass.  Each round places the
alias joined to one already placed (any alias first), then the one whose
equality filters and joins bind the longest key prefix, then the first
in FROM order; a join becomes an equality predicate of the alias placed
second.  Each access step scans the table itself or one of its
indexes, whichever ``StoreCatalog.access_path`` picks for the bound
attributes, by key prefix, else a full scan.  A step with no bound prefix
that joins by equality to an earlier step which can yield several rows is
a hash step.  A plan runs one step at a time, mapping the list of outer
rows to the next list.  A hash step first collects the join value of
every outer row into a set, then scans its table once and keeps only the
rows some outer row's join value reaches (a semi-join), bucketed on it in
key order; each outer row takes its bucket.  Rows come out in the same
order as the nested loop would give them.  Rows surfaced
from a view or view-index carrying the dirty mark abort the statement,
which restarts from scratch, re-scanning for at most the engine's
``timeout`` (the database's lock timeout: a mark lives only while its
writer holds the root lock) before ``DirtyReadTimeout``; returned rows
never expose the mark.  A hash step checks the mark on the rows a probe
returns, not on every row of its scan, so a marked row no outer row
reaches costs nothing.

A ``QueryEngine`` plans each distinct statement once and keeps the plan
for every later execution: the catalog is fixed when the engine is built,
so a kept plan never goes stale.  A plan also holds the type of the
attribute each placeholder binds, so an execution refuses a missing or
ill-typed parameter with ``SchemaError`` before any scan.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from .errors import (AmbiguityError, DirtyReadTimeout, SchemaError,
                     UnknownAttributeError, UnknownTableError)
from .schema import (BASE, INDEX, StoreCatalog, TableHandle, VIEW,
                     value_fits)
from .sqlparse import COMPARE, AttrRef, Placeholder, SelectJoin, check_joins
from .storage import DIRTY, Store, prefix_range

#: most plans one engine keeps; a full cache is cleared, so a stream of
#: ad-hoc statements with literal values cannot grow it without bound
PLAN_CACHE_SIZE = 256


@dataclass(frozen=True)
class Const:
    value: object


@dataclass(frozen=True)
class Param:
    index: int


@dataclass(frozen=True)
class OuterRef:
    alias: str
    attr: str


@dataclass(frozen=True)
class Predicate:
    attr: str
    op: str
    expr: object     # Const | Param | OuterRef


@dataclass(frozen=True)
class AccessStep:
    alias: str
    table: str               # logical base table or view
    scan_table: str          # physical table read: the table or an index
    key_exprs: tuple         # bound prefix of the scanned table's key
    residual: tuple[Predicate, ...]
    check_dirty: bool
    probe: Predicate | None = None   # hash step: equality against an OuterRef

    def describe(self) -> str:
        mode = "full"
        if self.probe is not None:
            mode = "hash"
        elif self.key_exprs:
            mode = "prefix" if self.scan_table == self.table else "index"
        parts = [f"{self.alias}: {mode} scan {self.scan_table}"]
        if self.probe is not None:
            parts.append(f"on {_show_pred(self.probe)}")
        if self.key_exprs:
            parts.append("key=[" + ", ".join(_show(e) for e in self.key_exprs)
                         + "]")
        if self.residual:
            parts.append("filter=[" + ", ".join(
                _show_pred(p) for p in self.residual) + "]")
        return " ".join(parts)


def _show(expr) -> str:
    if isinstance(expr, Const):
        return repr(expr.value)
    if isinstance(expr, Param):
        return f"?{expr.index}"
    return f"{expr.alias}.{expr.attr}"


def _show_pred(p: Predicate) -> str:
    return f"{p.attr} {p.op} {_show(p.expr)}"


@dataclass(frozen=True)
class QueryPlan:
    steps: tuple[AccessStep, ...]
    projections: tuple[AttrRef, ...] | None    # qualified; None = all
    #: (placeholder index, type of the attribute it binds), in index order
    param_types: tuple[tuple[int, str], ...] = ()

    def describe(self) -> str:
        return "\n".join(s.describe() for s in self.steps)


def plan_query(stmt: SelectJoin, catalog: StoreCatalog) -> QueryPlan:
    """Build the left-deep plan; raises for unknown tables or attributes."""
    check_joins(stmt)
    handles: dict[str, TableHandle] = {}
    for rel_name, alias in stmt.tables:
        handle = catalog.handle(rel_name)
        if handle.kind not in (BASE, VIEW):
            raise UnknownTableError(f"{rel_name!r} is not queryable")
        handles[alias] = handle

    def resolve(ref: AttrRef) -> AttrRef:
        if ref.qualifier is not None:
            if ref.qualifier not in handles:
                raise UnknownTableError(f"unknown alias {ref.qualifier!r}")
            if ref.name not in handles[ref.qualifier].columns:
                raise UnknownAttributeError(
                    f"{handles[ref.qualifier].name} has no "
                    f"attribute {ref.name!r}")
            return ref
        owners = [a for a, h in handles.items() if ref.name in h.columns]
        if not owners:
            raise UnknownAttributeError(f"unknown attribute {ref.name!r}")
        if len(owners) > 1:
            raise AmbiguityError(f"attribute {ref.name!r} is ambiguous")
        return AttrRef(owners[0], ref.name)

    filters: dict[str, list[Predicate]] = {a: [] for a in handles}
    param_types: dict[int, str] = {}
    for f in stmt.filters:
        ref = resolve(f.ref)
        if isinstance(f.value, Placeholder):
            expr = Param(f.value.index)
            param_types[f.value.index] = catalog.types[
                handles[ref.qualifier].name][ref.name]
        else:
            expr = Const(f.value)
        filters[ref.qualifier].append(Predicate(ref.name, f.op, expr))

    joins = [(resolve(j.left), resolve(j.right)) for j in stmt.joins]

    projections = None
    if stmt.projections is not None:
        projections = tuple(resolve(r) for r in stmt.projections)
        names = [r.name for r in projections]
        if len(set(names)) != len(names):
            raise AmbiguityError("duplicate attribute name in projection")
    else:
        seen: dict[str, str] = {}
        for _, alias in stmt.tables:
            for col in handles[alias].columns:
                if col in seen:
                    raise AmbiguityError(
                        f"attribute {col!r} appears in both {seen[col]} "
                        f"and {alias}")
                seen[col] = alias

    def joins_to(alias: str, placed: set[str]):
        """Each join from ``alias`` to a placed alias, as an equality on
        ``alias``'s attribute; a join is met once, by its second alias."""
        for left, right in joins:
            for mine, other in ((left, right), (right, left)):
                if mine.qualifier == alias and other.qualifier in placed:
                    yield Predicate(mine.name, "=",
                                    OuterRef(other.qualifier, other.name))

    aliases = [a for _, a in stmt.tables]
    placed: set[str] = set()
    steps: list[AccessStep] = []
    while len(steps) < len(aliases):
        candidates = []
        for pos, alias in enumerate(aliases):
            if alias not in placed:
                joined = list(joins_to(alias, placed))
                # an equality filter binds its attribute before a join does
                bound = {p.attr: p.expr for p in filters[alias] if p.op == "="}
                for p in joined:
                    bound.setdefault(p.attr, p.expr)
                scan, n = catalog.access_path(handles[alias].name, bound)
                candidates.append(
                    ((bool(placed) and not joined, -n, pos), alias, joined,
                     tuple(bound[a] for a in scan.key_attrs[:n]), scan))
        _, alias, joined, key_exprs, scan = min(candidates)
        # drop only the exact predicate the key prefix consumed; a second,
        # contradictory filter or join on the same attribute must keep
        # filtering
        consumed = dict(zip(scan.key_attrs, key_exprs))
        residual = [p for p in filters[alias] + joined
                    if not (p.op == "=" and consumed.get(p.attr) == p.expr)]
        # hash an unbound step only when an earlier step can yield several
        # rows; a step visited once gains nothing from a build
        probe = None
        if not key_exprs and any(
                len(s.key_exprs) < len(catalog.handle(s.scan_table).key_attrs)
                for s in steps):
            probe = next((p for p in residual if p.op == "=" and
                          isinstance(p.expr, OuterRef)), None)
            if probe is not None:
                residual.remove(probe)
        steps.append(AccessStep(
            alias=alias, table=handles[alias].name, scan_table=scan.name,
            key_exprs=key_exprs, residual=tuple(residual),
            check_dirty=scan.kind in (VIEW, INDEX),
            probe=probe))
        placed.add(alias)
    return QueryPlan(tuple(steps), projections,
                     tuple(sorted(param_types.items())))


class _DirtyRow(Exception):
    pass


def execute_plan(plan: QueryPlan, params, store: Store,
                 catalog: StoreCatalog) -> list[dict]:
    """Single execution attempt; raises _DirtyRow on a marked row.  Each
    step maps the outer environments (alias -> row) to the next ones; the
    last step emits."""
    steps = plan.steps

    def evaluate(expr, env):
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, Param):
            return params[expr.index]
        return env[expr.alias][expr.attr]

    results: list[dict] = []
    envs = [{}]
    for step in steps:
        if not envs:        # no outer row: no later step scans, hashed or not
            break
        alias, table = step.alias, step.scan_table
        check_dirty, last = step.check_dirty, step is steps[-1]
        if step.probe is not None:
            # semi-join: one scan keeps the rows some outer value reaches,
            # bucketed on that value in key order
            on = step.probe.attr
            wanted = {evaluate(step.probe.expr, env) for env in envs}
            buckets: dict = {}
            for key, cells in store.scan(table):
                value = cells.get(on)
                if value in wanted:
                    buckets.setdefault(value, []).append((key, cells))
        outer, envs = envs, []
        for env in outer:
            if step.probe is not None:
                rows = buckets.get(evaluate(step.probe.expr, env), ())
            elif step.key_exprs:
                values = tuple(evaluate(e, env) for e in step.key_exprs)
                rows = store.scan(table, *prefix_range(
                    values, catalog.handle(table)))
            else:
                rows = store.scan(table)
            # outer references are fixed for the whole scan: evaluate once
            checks = [(p.attr, p.op, evaluate(p.expr, env))
                      for p in step.residual]
            for _, cells in rows:
                if check_dirty and cells.get(DIRTY):
                    raise _DirtyRow()
                for attr, op, other in checks:
                    value = cells.get(attr)
                    if op == "=":
                        if value != other:
                            break
                    elif value is None or not COMPARE[op](value, other):
                        break
                else:
                    if not last:
                        envs.append({**env, alias: cells})
                        continue
                    env[alias] = cells
                    if plan.projections is not None:
                        results.append({r.name: env[r.qualifier][r.name]
                                        for r in plan.projections})
                    else:
                        out = {}
                        for s in steps:
                            out.update(env[s.alias])
                        out.pop(DIRTY, None)
                        results.append(out)
    return results


class QueryEngine:
    """Executor holding a plan cache keyed by statement; reads proceed
    without locks and re-scan on dirty."""

    def __init__(self, store: Store, catalog: StoreCatalog,
                 timeout: float = 10.0):
        self.store = store
        self.catalog = catalog
        self.timeout = timeout
        self._plans: dict[SelectJoin, QueryPlan] = {}
        self._plans_lock = threading.Lock()

    def plan(self, stmt: SelectJoin) -> QueryPlan:
        """The statement's plan, made on its first call; a statement whose
        planning raises is not kept, so it raises again."""
        plan = self._plans.get(stmt)
        if plan is None:
            plan = plan_query(stmt, self.catalog)
            # readers look up without the lock; writers share it so that
            # concurrent misses cannot push the cache past its cap
            with self._plans_lock:
                if len(self._plans) >= PLAN_CACHE_SIZE:
                    self._plans.clear()
                self._plans[stmt] = plan
        return plan

    def execute(self, stmt: SelectJoin, params=()) -> list[dict]:
        return self.execute_plan(self.plan(stmt), params)

    def execute_plan(self, plan: QueryPlan, params=()) -> list[dict]:
        """Run the plan with re-scans on dirty; raises SchemaError, before
        any scan, for a parameter missing or of a type its attribute
        rejects."""
        for index, vtype in plan.param_types:
            if index >= len(params):
                raise SchemaError(f"missing query parameter ?{index}")
            if not value_fits(params[index], vtype):
                raise SchemaError(f"query parameter ?{index} = "
                                  f"{params[index]!r} does not fit {vtype}")
        backoff, deadline = 0.0002, None
        while True:
            try:
                return execute_plan(plan, params, self.store, self.catalog)
            except _DirtyRow:
                now = time.monotonic()
                if deadline is None:
                    deadline = now + self.timeout    # re-scan at once
                elif now < deadline:
                    # give the writer's mark window a chance to close
                    time.sleep(backoff)
                    backoff = min(backoff * 2, 0.002)
                else:
                    raise DirtyReadTimeout(f"read kept hitting marked rows "
                                           f"for {self.timeout}s") from None
