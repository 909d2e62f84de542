"""Read path: plan and execute SELECT statements over base tables or views.

Plans are left-deep joins built in one pass.  Each round places the
alias joined to one already placed (any alias first), then the one whose
equality filters and joins bind the longest key prefix, then the first
in FROM order; a join becomes an equality predicate of the alias placed
second.  Each access step scans the table itself or one of its covered
indexes, whichever ``StoreCatalog.access_path`` picks for the bound
attributes, by key prefix, else a full scan.  A step with no bound prefix that joins by equality to
an earlier step which can yield several rows is a hash step: the first
visit scans its table once and buckets the rows on the join attribute,
and every later visit probes the bucket for the outer value instead of
re-scanning.  The buckets live for one execution attempt only; rows come
out in the same order as the nested loop would give them.  Rows surfaced
from a view or view-index carrying the dirty mark abort the statement,
which restarts from scratch, re-scanning for at most the engine's
``timeout`` (the database's lock timeout: a mark lives only while its
writer holds the root lock) before ``DirtyReadTimeout``; returned rows
never expose the mark.  A hash step checks the mark on the rows a probe
returns, not on every row of its build, so a marked row no outer row
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


def _hash_rows(step: AccessStep, store: Store) -> dict:
    """One full scan of the step's table bucketed on its probe attribute,
    each bucket in key order; the probe loop checks the dirty mark of the
    rows it takes out."""
    attr = step.probe.attr
    buckets: dict = {}
    for key, cells in store.scan(step.scan_table):
        buckets.setdefault(cells.get(attr), []).append((key, cells))
    return buckets


def execute_plan(plan: QueryPlan, params, store: Store,
                 catalog: StoreCatalog) -> list[dict]:
    """Single execution attempt; raises _DirtyRow on a marked row."""
    steps = plan.steps
    hashed: dict[int, dict] = {}     # depth -> buckets of a hash step

    def evaluate(expr, env):
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, Param):
            return params[expr.index]
        return env[expr.alias][expr.attr]

    results: list[dict] = []

    def emit(env):
        if plan.projections is not None:
            results.append({r.name: env[r.qualifier][r.name]
                            for r in plan.projections})
        else:
            out = {}
            for step in steps:
                out.update(env[step.alias])
            out.pop(DIRTY, None)
            results.append(out)

    def run(depth, env):
        step = steps[depth]
        if step.probe is not None:
            buckets = hashed.get(depth)
            if buckets is None:
                buckets = hashed[depth] = _hash_rows(step, store)
            rows = buckets.get(evaluate(step.probe.expr, env), ())
        elif step.key_exprs:
            values = tuple(evaluate(e, env) for e in step.key_exprs)
            start, end = prefix_range(values,
                                      catalog.handle(step.scan_table))
            rows = store.scan(step.scan_table, start, end)
        else:
            rows = store.scan(step.scan_table)
        # outer references are fixed for the whole scan: evaluate them once
        checks = [(p.attr, p.op, evaluate(p.expr, env))
                  for p in step.residual]
        check_dirty = step.check_dirty
        alias = step.alias
        last = depth == len(steps) - 1
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
                env[alias] = cells
                if last:
                    emit(env)
                else:
                    run(depth + 1, env)
        env.pop(alias, None)

    run(0, {})
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
