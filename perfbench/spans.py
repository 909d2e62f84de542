"""Per-layer tracing, installed from outside the program.

The tracer wraps the program's layer entry points and records every call as
a span (name, start, end, parent span) in per-thread arrays. Self time is a
span's duration minus the durations of its direct children. Spans stay in
memory until ``write`` dumps them at the end of the run.

Modules bind ``encode_key``, the maintenance builders and the SQL helpers
with ``from ... import``, so a module-level function is replaced in every
``synergy`` module that holds it, not only where it is defined.
"""

from __future__ import annotations

import json
import sys
import threading
from array import array
from time import perf_counter

#: (span name, "module:function" or "module:Class.method") pairs
TARGETS = [
    ("db.create", "db:Database.create"),
    ("db.execute", "db:Database.execute"),
    ("db.save", "db:Database.save"),
    ("db.open", "db:Database.open"),
    ("storage.get", "storage:Store.get"),
    ("storage.put", "storage:Store.put"),
    ("storage.delete", "storage:Store.delete"),
    ("storage.check_and_put", "storage:Store.check_and_put"),
    ("storage.scan", "storage:Store.scan"),
    ("storage.save_snapshot", "storage:Store.save_snapshot"),
    ("storage.load_snapshot", "storage:Store.load_snapshot"),
    ("storage.encode_key", "storage:encode_key"),
    ("sqlparse.render_statement", "sqlparse:render_statement"),
    ("sqlparse.parse_statement", "sqlparse:parse_statement"),
    ("engine.statement", "engine:QueryEngine.execute_plan"),
    ("engine.plan_query", "engine:plan_query"),
    ("engine.execute_plan", "engine:execute_plan"),
    ("maintenance.build_insert_view_tuple",
     "maintenance:build_insert_view_tuple"),
    ("maintenance.plan_update_rows", "maintenance:plan_update_rows"),
    ("txn.execute_write", "txn:TransactionManager.execute_write"),
    ("txn.resolve_root", "txn:TransactionManager.resolve_root"),
    ("txn.recover", "txn:TransactionManager.recover"),
    ("txn.lock_acquire", "txn:LockManager.acquire"),
    ("txn.lock_release", "txn:LockManager.release"),
    ("txn.wal_append", "txn:WriteAheadLog.append"),
    ("txn.read_wal", "txn:read_wal"),
]

#: execute_write spans are named after the statement they run
_WRITE_KINDS = {"Insert": "txn.insert", "Update": "txn.update",
                "Delete": "txn.delete"}

#: per-layer metrics: (name, unit); see README.md for what each moves
PER_LAYER = [
    ("storage.scan.calls", "count"), ("storage.scan.rows", "rows"),
    ("storage.scan.us", "us"),
    ("storage.encode_key.calls", "count"), ("storage.encode_key.us", "us"),
    ("storage.get.calls", "count"), ("storage.get.us", "us"),
    ("storage.put.calls", "count"), ("storage.put.us", "us"),
    ("storage.delete.calls", "count"),
    ("storage.check_and_put.calls", "count"),
    ("storage.check_and_put.misses", "count"),
    ("storage.save_snapshot.s", "s"), ("storage.load_snapshot.s", "s"),
    ("sqlparse.render_statement.calls", "count"),
    ("sqlparse.render_statement.us", "us"),
    ("sqlparse.parse_statement.calls", "count"),
    ("sqlparse.parse_statement.us", "us"),
    ("engine.plan_query.calls", "count"), ("engine.plan_query.us", "us"),
    ("engine.execute_plan.calls", "count"), ("engine.execute_plan.us", "us"),
    ("engine.rescans", "count"),
    ("engine.rows_scanned_per_result", "rows/row"),
    ("maintenance.build_insert_view_tuple.us", "us"),
    ("maintenance.plan_update_rows.us", "us"),
    ("maintenance.view_rows_per_update", "rows/txn"),
    ("txn.insert.us", "us"), ("txn.update.us", "us"), ("txn.delete.us", "us"),
    ("txn.resolve_root.us", "us"),
    ("txn.lock_acquire.us", "us"), ("txn.lock_release.us", "us"),
    ("txn.wal_append.calls", "count"), ("txn.wal_append.us", "us"),
    ("txn.wal_append.bytes", "bytes"),
    ("txn.read_wal.s", "s"), ("txn.recover.s", "s"),
    ("db.create.s", "s"),
]


class _Buffer:
    """One thread's spans; the parent of a span is the innermost open one."""

    def __init__(self):
        self.names = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.in_read = 0          # depth of engine.execute_plan on the stack


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            self._buffers.append(buf)
        return buf

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, buf: _Buffer, nid: int) -> int:
        idx = len(buf.starts)
        buf.names.append(nid)
        buf.parents.append(buf.stack[-1] if buf.stack else -1)
        buf.ends.append(0.0)
        buf.stack.append(idx)
        buf.starts.append(perf_counter())
        return idx

    @staticmethod
    def _close(buf: _Buffer, idx: int) -> None:
        buf.ends[idx] = perf_counter()
        buf.stack.pop()

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "synergy" or n.startswith("synergy.")]
        for name, target in TARGETS:
            mod_name, attr = target.split(":")
            owner = sys.modules["synergy." + mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                self._replace(cls, meth, wrapped)
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._replace(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def _replace(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def _wrap(self, name: str, fn):
        tracer = self
        nid = self._id(name)
        if name == "storage.scan":
            def scan(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                buf = tracer._buffer()
                idx = tracer._open(buf, nid)
                try:
                    # the store copies rows on the first next(): drain it
                    # here so the copy falls inside this span
                    rows = list(fn(*args, **kwargs))
                finally:
                    tracer._close(buf, idx)
                counts = buf.counts
                counts["scan.rows"] = counts.get("scan.rows", 0) + len(rows)
                if buf.in_read:
                    counts["read.scanned"] = (counts.get("read.scanned", 0)
                                              + len(rows))
                return iter(rows)
            return scan

        if name == "txn.execute_write":
            kind_ids = {k: self._id(v) for k, v in _WRITE_KINDS.items()}

            def execute_write(self_, stmt):
                if not tracer.active:
                    return fn(self_, stmt)
                buf = tracer._buffer()
                idx = tracer._open(buf, kind_ids[type(stmt).__name__])
                try:
                    return fn(self_, stmt)
                finally:
                    tracer._close(buf, idx)
            return execute_write

        in_read = int(name == "engine.execute_plan")

        def call(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            buf = tracer._buffer()
            idx = tracer._open(buf, nid)
            buf.in_read += in_read
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(buf, idx)
                buf.in_read -= in_read
            tracer._after(buf, name, args, result)
            return result
        return call

    @staticmethod
    def _after(buf: _Buffer, name: str, args, result) -> None:
        """Counts taken at the layer boundary from a call's arguments or
        result, outside the span."""
        counts = buf.counts
        if name == "storage.check_and_put":
            key, n = "check_and_put.misses", 0 if result else 1
        elif name == "txn.wal_append":
            # length prefix, txn id, phase, then the statement text
            key, n = "wal.bytes", 4 + 9 + len(args[3].encode("utf-8"))
        elif name == "engine.statement":
            key, n = "read.results", len(result)
        elif name == "maintenance.plan_update_rows":
            key, n = "update.view_rows", len(result.rows)
        else:
            return
        counts[key] = counts.get(key, 0) + n

    # -- results ----------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds."""
        out = {n: {"calls": 0, "total": 0.0, "self": 0.0} for n in self.names}
        for buf in self._buffers:
            durations = [e - s for s, e in zip(buf.starts, buf.ends)]
            own = list(durations)
            for child, parent in enumerate(buf.parents):
                if parent >= 0:
                    own[parent] -= durations[child]
            for nid, dur, self_time in zip(buf.names, durations, own):
                entry = out[self.names[nid]]
                entry["calls"] += 1
                entry["total"] += dur
                entry["self"] += self_time
        return out

    def counts(self) -> dict[str, int]:
        merged: dict[str, int] = {}
        for buf in self._buffers:
            for key, n in buf.counts.items():
                merged[key] = merged.get(key, 0) + n
        return merged

    def per_layer(self) -> dict[str, float]:
        spans = self.summary()
        counts = self.counts()

        def span(name, field):
            return spans.get(name, {}).get(field, 0)

        values: dict[str, float] = {}
        for metric, _ in PER_LAYER:
            layer, rest = metric.split(".", 1)
            base, _, stat = rest.rpartition(".")
            name = f"{layer}.{base}"
            if stat == "calls":
                values[metric] = span(name, "calls")
            elif stat == "us":
                values[metric] = span(name, "self") * 1e6
            elif stat == "s":
                values[metric] = span(name, "total")
        results = counts.get("read.results", 0)
        updates = span("txn.update", "calls")
        values.update({
            "storage.scan.rows": counts.get("scan.rows", 0),
            "storage.check_and_put.misses": counts.get("check_and_put.misses",
                                                       0),
            "txn.wal_append.bytes": counts.get("wal.bytes", 0),
            "engine.rescans": (span("engine.execute_plan", "calls")
                               - span("engine.statement", "calls")),
            "engine.rows_scanned_per_result": (
                counts.get("read.scanned", 0) / results if results else 0.0),
            "maintenance.view_rows_per_update": (
                counts.get("update.view_rows", 0) / updates if updates
                else 0.0),
        })
        return values

    def write(self, path: str) -> int:
        """Dump every span: a JSON header line, then per thread the names
        (uint16), starts and ends (float64 seconds) and parents (int64)."""
        header = {"names": self.names,
                  "threads": [len(b.starts) for b in self._buffers],
                  "order": ["names:H", "starts:d", "ends:d", "parents:q"]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for buf in self._buffers:
                for arr in (buf.names, buf.starts, buf.ends, buf.parents):
                    arr.tofile(fh)
        return sum(len(b.starts) for b in self._buffers)
