"""Self-test of the benchmark: a small, fast mode of every workload, and
proof that each check rejects a corrupted result.

    python3 perfbench/selftest.py

Exits 0 when every workload passes its checks in small mode (untraced and
traced) and every corrupted result is rejected; prints one line per case.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

from run import HERE, import_program

import_program()

import bench                                    # noqa: E402
from model import (STMT, CheckFailed, ExactChecker,  # noqa: E402
                   check_tables, check_write, make_load)
from spans import PER_LAYER, Tracer             # noqa: E402

SMALL = dict(seconds=0.2, scale=6, ratio=3, slices=2, write_rounds=2)


def small_runs(work_dir: str) -> list[str]:
    failures = []
    for traced in (False, True):
        for name in bench.WORKLOADS:
            tracer = None
            if traced:
                tracer = Tracer()
                tracer.install()
            cfg = bench.Config(**SMALL)
            try:
                run = bench.run_workload(name, 1, cfg, work_dir, tracer)
                values = bench.end_to_end(run)
                if tracer is not None:
                    layers = tracer.per_layer()
                    missing = {n for n, _ in PER_LAYER} - layers.keys()
                    if missing:
                        raise CheckFailed(f"per-layer metrics missing: "
                                          f"{sorted(missing)}")
            except CheckFailed as exc:
                failures.append(f"{name} traced={traced}: {exc}")
                continue
            finally:
                if tracer is not None:
                    tracer.uninstall()
                shutil.rmtree(os.path.join(work_dir, "db"),
                              ignore_errors=True)
            ok = run.failed == 0 and all(v > 0 for v, _ in values.values())
            print(f"{'ok' if ok else 'FAIL'}: {name} small mode, "
                  f"traced={traced}, {run.attempted} operations")
            if not ok:
                failures.append(f"{name} traced={traced}: a failed "
                                f"operation or a zero metric")
    return failures


def _corruptions(rows: list[dict]):
    """(label, corrupted copy) pairs of a correct read result."""
    def copy():
        return [dict(r) for r in rows]

    dropped = copy()
    dropped.pop()
    changed = copy()
    changed[0]["O_TOTAL"] += 1
    dirty = copy()
    dirty[0]["_dirty"] = True
    return [("one row dropped", dropped), ("one cell changed", changed),
            ("one _dirty cell added", dirty)]


def rejections(work_dir: str) -> list[str]:
    failures = []

    def expect_reject(label, fn, *args):
        try:
            fn(*args)
        except CheckFailed as exc:
            print(f"ok: rejected {label}: {exc}".split("\n")[0])
            return
        print(f"FAIL: accepted {label}")
        failures.append(label)

    cfg = bench.Config(**SMALL)
    model, load = make_load(1, cfg.scale, cfg.ratio)
    db = bench.set_up(os.path.join(work_dir, "db"), load, bench.Run())
    try:
        check = ExactChecker(model)
        for query in ("q1", "q2"):
            rows = db.execute(db.rewrite.statements[STMT[query]], (2,))
            check(query, 2, rows)
            print(f"ok: the checker accepts a correct {query} result "
                  f"({len(rows)} rows)")
            for label, bad in _corruptions(rows):
                expect_reject(f"{query} {label}", check, query, 2, bad)

        def read_table(table):
            return db.execute(f"SELECT * FROM {table} AS x")

        check_tables(read_table, model)
        print("ok: base tables equal the model")

        def dropped(table):
            return read_table(table)[1:]

        def changed(table):
            rows = [dict(r) for r in read_table(table)]
            if table == "Order":
                rows[0]["O_TOTAL"] += 1
            return rows

        expect_reject("a base table with one row dropped", check_tables,
                      dropped, model)
        expect_reject("a base table with one cell changed", check_tables,
                      changed, model)

        result = db.execute(db.workload[STMT["upd_order"]], ("held", 1))
        check_write("upd_order", result)
        result.locks_acquired = 2
        expect_reject("a write that took two locks", check_write,
                      "upd_order", result)
        expect_reject("state after an unmodelled write", bench.check_state,
                      db, model)
    finally:
        db.close()
    return failures


def main() -> int:
    os.makedirs(os.path.join(HERE, "work"), exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="selftest-",
                                dir=os.path.join(HERE, "work"))
    try:
        failures = small_runs(work_dir) + rejections(work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print("selftest: " + ("PASS" if not failures else
                          f"FAIL ({len(failures)} cases)"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
