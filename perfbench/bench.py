"""The workloads, driven only through synergy's public API.

A run sets up the tpcw-micro database (``Database.create`` plus loading
through ``Database.execute``), then does its workload in ``slices`` equal
parts. After each part it sets up a spare database (a set-up sample),
checkpoints the live one (``Database.save``) and restarts from that
checkpoint (``Database.open``), checking the reopened database. The last
restart follows ``close``. Spreading the samples over the whole run keeps
slow drifts in machine speed from landing on one metric. Timings cover only
the calls into the program; every check runs outside them.
"""

from __future__ import annotations

import gc
import os
import shutil
import statistics
from dataclasses import dataclass, field
from time import perf_counter

from synergy import Database, SynergyError
from synergy.db import SNAPSHOT_FILE, WAL_FILE
from synergy.fixtures import tpcw_micro_schema, tpcw_micro_workload

from model import (RATIO, READ_ROUND, SCALE, STMT, WRITES_PER_READ_ROUND,
                   CheckFailed, ExactChecker, apply_write, check_tables,
                   check_write, hot_customers, make_load, make_write_stream,
                   read_stream)

WORKLOADS = ("view-reads", "base-joins", "mixed-rw")


@dataclass
class Config:
    seconds: float          # read phase length when read_rounds is None
    scale: int = SCALE
    ratio: int = RATIO
    slices: int = 5         # set-ups, checkpoints and restarts per run
    read_rounds: int | None = None   # fixed read work instead of a deadline
    write_rounds: int = 1   # mixed-rw writer: whole rounds of 100 writes


@dataclass
class Run:
    """Samples of one run; every list holds seconds."""
    setup: list[float] = field(default_factory=list)
    loads: list[float] = field(default_factory=list)    # load inserts
    reads: dict[str, list[float]] = field(
        default_factory=lambda: {"q1": [], "q2": []})
    writes: list[float] = field(default_factory=list)
    checkpoint: list[float] = field(default_factory=list)
    restart: list[float] = field(default_factory=list)
    snapshot_bytes: int = 0
    wal_bytes: int = 0
    attempted: int = 0
    failed: int = 0


class _Paused:
    """Switches the tracer (if any) off around checks that call the program."""

    def __init__(self, tracer):
        self.tracer = tracer

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.active = False

    def __exit__(self, *exc):
        if self.tracer is not None:
            self.tracer.active = True


def run_workload(name: str, seed: int, cfg: Config, work_dir: str,
                 tracer=None) -> Run:
    run = Run()
    model, load = make_load(seed, cfg.scale, cfg.ratio)
    paused = _Paused(tracer)
    data_dir = os.path.join(work_dir, "db")
    if tracer is not None:
        tracer.active = True
    db = set_up(data_dir, load, run)
    try:
        if name == "mixed-rw":
            hot = hot_customers(seed, cfg.scale)
            writes = make_write_stream(seed, model, cfg.write_rounds,
                                       cfg.scale, hot)
            reads = read_stream(seed, cfg.scale, hot)
        else:
            reads = read_stream(seed, cfg.scale)
        check = ExactChecker(model)
        for k in range(cfg.slices):
            if k:
                spare_dir = os.path.join(work_dir, "spare")
                set_up(spare_dir, load, run).close()
                shutil.rmtree(spare_dir)
            gc.collect()
            if name == "mixed-rw":
                share = range(len(writes) * k // cfg.slices,
                              len(writes) * (k + 1) // cfg.slices)
                write_and_read(db, writes, share, reads, run, check, model)
            else:
                stmts = (db.rewrite.statements if name == "view-reads"
                         else db.workload)
                read_only(db, stmts, reads, run, check, cfg)
            last = k + 1 == cfg.slices
            if last:
                with paused:
                    check_state(db, model)
            checkpoint_and_restart(db, data_dir, run, model, paused, last)
    finally:
        db.close()
        if tracer is not None:
            tracer.active = False
    if name != "mixed-rw":
        run.writes = run.loads
    return run


# -- phases --------------------------------------------------------------------

def set_up(data_dir: str, load, run: Run):
    """Create a database and load it; one set-up sample."""
    results = []
    gc.collect()
    t0 = perf_counter()
    db = Database.create(tpcw_micro_schema(), tpcw_micro_workload(),
                         data_dir=data_dir)
    stmts = db.workload
    for kind, params in load:
        t = perf_counter()
        results.append(db.execute(stmts[STMT[kind]], params))
        run.loads.append(perf_counter() - t)
    run.setup.append(perf_counter() - t0)
    for (kind, _), result in zip(load, results):
        check_write(kind, result)
    return db


def _read_round(db, stmts, reads, run: Run, check) -> None:
    for _ in READ_ROUND:
        query, c_id = next(reads)
        stmt = stmts[STMT[query]]
        run.attempted += 1
        t = perf_counter()
        try:
            rows = db.execute(stmt, (c_id,))
        except SynergyError:
            run.failed += 1
            continue
        run.reads[query].append(perf_counter() - t)
        check(query, c_id, rows)


def read_only(db, stmts, reads, run: Run, check, cfg: Config) -> None:
    """One closed-loop client, one slice: whole rounds until the slice's
    share of the deadline, or its share of a fixed number of rounds."""
    if cfg.read_rounds is not None:
        for _ in range(max(1, cfg.read_rounds // cfg.slices)):
            _read_round(db, stmts, reads, run, check)
        return
    deadline = perf_counter() + cfg.seconds / cfg.slices
    while perf_counter() < deadline:
        _read_round(db, stmts, reads, run, check)


def write_and_read(db, writes, share, reads, run: Run, check,
                   model) -> None:
    """The writes at positions ``share`` of the writer stream from one
    client, every WRITES_PER_READ_ROUND-th write followed by one round of
    view reads. ``model`` follows every write."""
    write_stmts, read_stmts = db.workload, db.rewrite.statements
    for i in share:
        kind, params = writes[i]
        stmt = write_stmts[STMT[kind]]
        run.attempted += 1
        t = perf_counter()
        try:
            result = db.execute(stmt, params)
        except SynergyError:
            run.failed += 1
            continue
        run.writes.append(perf_counter() - t)
        check_write(kind, result)
        check.forget(apply_write(model, kind, params))
        if (i + 1) % WRITES_PER_READ_ROUND == 0:
            _read_round(db, read_stmts, reads, run, check)


def check_state(db, model) -> None:
    """Base tables equal the model; views and indexes equal their
    recomputation from the base tables; no lock is held."""
    check_tables(lambda table: db.execute(f"SELECT * FROM {table} AS x"),
                 model)
    report = db.verify()
    if not report.ok or report.locks_held:
        raise CheckFailed("verify:\n" + report.describe())


def checkpoint_and_restart(db, data_dir: str, run: Run, model,
                           paused: _Paused, last: bool) -> None:
    """One checkpoint and one restart sample. Before the last restart the
    live database is closed; earlier restarts open the checkpoint beside
    it. Every reopened database must equal the model."""
    gc.collect()
    t = perf_counter()
    db.save(data_dir)
    run.checkpoint.append(perf_counter() - t)
    run.snapshot_bytes = os.path.getsize(os.path.join(data_dir,
                                                      SNAPSHOT_FILE))
    run.wal_bytes = os.path.getsize(os.path.join(data_dir, WAL_FILE))
    if last:
        db.close()
    gc.collect()
    t = perf_counter()
    reopened = Database.open(data_dir)
    run.restart.append(perf_counter() - t)
    try:
        with paused:
            recovery = reopened.recovery
            if recovery.replayed or recovery.aborted:
                raise CheckFailed(f"restart after a clean checkpoint "
                                  f"replayed {len(recovery.replayed)} and "
                                  f"aborted {len(recovery.aborted)} "
                                  f"transactions")
            check_state(reopened, model)
    finally:
        reopened.close()


# -- metrics -----------------------------------------------------------------------

def _p99(samples: list[float]) -> float:
    ordered = sorted(samples)
    return ordered[max(0, -(-len(ordered) * 99 // 100) - 1)]


#: (name, unit, better) of every end-to-end metric
END_TO_END = [
    ("setup_s", "s", "lower"), ("read_ops_per_s", "ops/s", "higher"),
    ("q1_ms", "ms", "lower"), ("q2_ms", "ms", "lower"),
    ("read_p99_ms", "ms", "lower"), ("write_ops_per_s", "ops/s", "higher"),
    ("write_p50_ms", "ms", "lower"), ("write_p99_ms", "ms", "lower"),
    ("checkpoint_s", "s", "lower"), ("restart_s", "s", "lower"),
    ("snapshot_bytes", "bytes", "lower"), ("wal_bytes", "bytes", "lower"),
]


def end_to_end(run: Run) -> dict[str, tuple[float, int]]:
    """Metric name -> (value, number of samples it summarises)."""
    reads = run.reads["q1"] + run.reads["q2"]
    return {
        "setup_s": (statistics.median(run.setup), len(run.setup)),
        "read_ops_per_s": (len(reads) / sum(reads), len(reads)),
        "q1_ms": (statistics.median(run.reads["q1"]) * 1e3,
                  len(run.reads["q1"])),
        "q2_ms": (statistics.median(run.reads["q2"]) * 1e3,
                  len(run.reads["q2"])),
        "read_p99_ms": (_p99(reads) * 1e3, len(reads)),
        "write_ops_per_s": (len(run.writes) / sum(run.writes),
                            len(run.writes)),
        "write_p50_ms": (statistics.median(run.writes) * 1e3,
                         len(run.writes)),
        "write_p99_ms": (_p99(run.writes) * 1e3, len(run.writes)),
        "checkpoint_s": (statistics.median(run.checkpoint),
                         len(run.checkpoint)),
        "restart_s": (statistics.median(run.restart), len(run.restart)),
        "snapshot_bytes": (run.snapshot_bytes, 1),
        "wal_bytes": (run.wal_bytes, 1),
    }
