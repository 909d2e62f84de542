"""Inputs, the benchmark's own copy of the data, and the output checks.

Every input is generated from the run's seed. The model holds a copy of
every row the benchmark writes, so each check compares the program's output
with what the inputs imply, never with a stored copy of an earlier run.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict

SCALE = 100            # customers loaded
RATIO = 10             # orders per customer, lines per order
READ_ROUND = ("q1",) * 9 + ("q2",)   # one round of reads: 90% Q1, 10% Q2
HOT_CUSTOMERS = 4      # mixed-rw hot set, shared by reads and updates
HOT_SHARE = 0.5        # share of reads and Customer updates on the hot set
NEW_ID_BASE = 1_000_000
STATUSES = ("pending", "shipped", "delivered")
WRITES_PER_READ_ROUND = 10   # mixed-rw: one READ_ROUND after every ten writes

# One round of the mixed-rw writer: the shares of fixtures.mixed_statements.
WRITE_ROUND = {"ins_customer": 10, "ins_order": 25, "ins_line": 30,
               "upd_customer": 15, "upd_order": 10, "del_line": 8,
               "ins_country": 2}

# Statement positions in the tpcw-micro workload; Database.workload and
# Database.rewrite.statements keep the fixture's order (a wrong position
# binds the wrong parameters, which the checks reject).
STMT = {"q1": 0, "q2": 1, "ins_customer": 2, "ins_order": 3, "ins_line": 4,
        "upd_customer": 5, "upd_order": 6, "del_line": 7, "ins_country": 8}

COLUMNS = {"Customer": ("C_ID", "C_UNAME", "C_BALANCE"),
           "Order": ("O_ID", "O_C_ID", "O_STATUS", "O_TOTAL"),
           "Order_line": ("OL_ID", "OL_O_ID", "OL_I_ID", "OL_QTY"),
           "Country": ("CO_ID", "CO_NAME")}
INSERTS = {"ins_customer": "Customer", "ins_order": "Order",
           "ins_line": "Order_line", "ins_country": "Country"}


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's model."""


class Model:
    """Rows by table and primary key, plus the customer -> orders -> lines
    hierarchy (foreign keys never change)."""

    def __init__(self):
        self.tables: dict[str, dict[int, dict]] = {t: {} for t in COLUMNS}
        self.orders_of: dict[int, list[int]] = defaultdict(list)
        self.lines_of: dict[int, list[int]] = defaultdict(list)

    def insert(self, table: str, params: tuple) -> None:
        row = dict(zip(COLUMNS[table], params))
        self.tables[table][params[0]] = row
        if table == "Order":
            self.orders_of[row["O_C_ID"]].append(row["O_ID"])
        elif table == "Order_line":
            self.lines_of[row["OL_O_ID"]].append(row["OL_ID"])

    def delete_line(self, line_id: int) -> None:
        row = self.tables["Order_line"].pop(line_id)
        self.lines_of[row["OL_O_ID"]].remove(line_id)


def make_load(seed: int, scale: int = SCALE, ratio: int = RATIO):
    """The tpcw-micro load, parents first: ``scale`` customers, ``ratio``
    orders each, ``ratio`` lines per order. Returns (model, [(kind, params)])."""
    rng = random.Random(f"load-{seed}")
    model = Model()
    ops = []

    def add(kind, table, params):
        model.insert(table, params)
        ops.append((kind, params))

    order_id = line_id = 0
    for c_id in range(1, scale + 1):
        add("ins_customer", "Customer",
            (c_id, f"user{c_id}", rng.randrange(10000)))
        for _ in range(ratio):
            order_id += 1
            add("ins_order", "Order",
                (order_id, c_id, rng.choice(STATUSES), rng.randrange(1, 500)))
            for _ in range(ratio):
                line_id += 1
                add("ins_line", "Order_line",
                    (line_id, order_id, rng.randrange(1, 1000),
                     rng.randrange(1, 10)))
    return model, ops


def hot_customers(seed: int, scale: int) -> list[int]:
    return random.Random(f"hot-{seed}").sample(
        range(1, scale + 1), min(HOT_CUSTOMERS, scale))


def read_stream(seed: int, scale: int, hot: list[int] | None = None):
    """Endless (query, customer) pairs in whole READ_ROUNDs; customers are
    uniform, or drawn from ``hot`` with probability HOT_SHARE."""
    rng = random.Random(f"reads-{seed}")
    while True:
        for query in READ_ROUND:
            if hot and rng.random() < HOT_SHARE:
                yield query, rng.choice(hot)
            else:
                yield query, rng.randrange(1, scale + 1)


def apply_write(model: Model, kind: str, params: tuple) -> int | None:
    """Apply one mixed-rw write to the model; returns the customer whose
    reads it changes, if any."""
    if kind in INSERTS:
        model.insert(INSERTS[kind], params)
        if kind == "ins_order":
            return params[1]
        if kind == "ins_line":
            return model.tables["Order"][params[1]]["O_C_ID"]
        return None
    if kind == "upd_customer":
        model.tables["Customer"][params[1]]["C_BALANCE"] = params[0]
        return params[1]
    if kind == "upd_order":
        order = model.tables["Order"][params[1]]
        order["O_STATUS"] = params[0]
        return order["O_C_ID"]
    line = model.tables["Order_line"][params[0]]        # del_line
    model.delete_line(params[0])
    return model.tables["Order"][line["OL_O_ID"]]["O_C_ID"]


def make_write_stream(seed: int, start: Model, rounds: int,
                      scale: int = SCALE, hot: list[int] | None = None):
    """The mixed-rw writes as [(kind, params)], ``rounds`` whole WRITE_ROUNDs.

    Inserts take fresh ids, Order and Order_line inserts reference base rows
    or rows inserted earlier in the stream, and each base order line is
    deleted at most once, so every write succeeds in stream order. A share
    HOT_SHARE of the Customer updates goes to the ``hot`` customers.
    """
    rng = random.Random(f"writes-{seed}")
    base_orders = sorted(start.tables["Order"])
    deletable = sorted(start.tables["Order_line"])
    rng.shuffle(deletable)
    new_customers: list[int] = []
    new_orders: list[int] = []
    next_id = NEW_ID_BASE
    ops = []
    for _ in range(rounds):
        kinds = [k for k, n in WRITE_ROUND.items() for _ in range(n)]
        rng.shuffle(kinds)
        for kind in kinds:
            if kind in INSERTS:
                next_id += 1
            if kind == "ins_customer":
                params = (next_id, f"mix{next_id}", rng.randrange(10000))
                new_customers.append(next_id)
            elif kind == "ins_order":
                parent = (rng.choice(new_customers)
                          if new_customers and rng.random() < 0.5
                          else rng.randrange(1, scale + 1))
                params = (next_id, parent, rng.choice(STATUSES),
                          rng.randrange(1, 500))
                new_orders.append(next_id)
            elif kind == "ins_line":
                parent = (rng.choice(new_orders)
                          if new_orders and rng.random() < 0.5
                          else rng.choice(base_orders))
                params = (next_id, parent, rng.randrange(1, 1000),
                          rng.randrange(1, 10))
            elif kind == "ins_country":
                params = (next_id, f"country{next_id}")
            elif kind == "upd_customer":
                c_id = (rng.choice(hot) if hot and rng.random() < HOT_SHARE
                        else rng.randrange(1, scale + 1))
                params = (rng.randrange(10000), c_id)
            elif kind == "upd_order":
                params = (rng.choice(STATUSES), rng.choice(base_orders))
            else:   # del_line
                params = (deletable.pop(),)
            ops.append((kind, params))
    return ops


# -- checks --------------------------------------------------------------------

def _row_key(row: dict):
    return frozenset(row.items())


def expected_rows(model: Model, query: str, c_id: int) -> Counter:
    """The join of the model's rows that ``query`` asks for, as a multiset."""
    customer = model.tables["Customer"][c_id]
    out = Counter()
    for o_id in model.orders_of[c_id]:
        order = model.tables["Order"][o_id]
        if query == "q1":
            out[_row_key({**customer, **order})] += 1
            continue
        for line_id in model.lines_of[o_id]:
            line = model.tables["Order_line"][line_id]
            out[_row_key({**customer, **order, **line})] += 1
    return out


class ExactChecker:
    """A read's rows equal the model's join, as a multiset. So no row
    carries a dirty mark, each has exactly the view's columns and the
    parameter's C_ID, and every (C_ID, O_ID, OL_ID) chain follows the
    model's foreign keys."""

    def __init__(self, model: Model):
        self.model = model
        self._expected: dict[tuple[str, int], Counter] = {}

    def forget(self, c_id: int | None) -> None:
        """Drop cached expectations after a write changed ``c_id``'s rows."""
        for query in ("q1", "q2"):
            self._expected.pop((query, c_id), None)

    def __call__(self, query: str, c_id: int, rows: list[dict]) -> None:
        want = self._expected.get((query, c_id))
        if want is None:
            want = self._expected[(query, c_id)] = expected_rows(
                self.model, query, c_id)
        got = Counter(_row_key(r) for r in rows)
        if got != want:
            missing = sum((want - got).values())
            extra = sum((got - want).values())
            raise CheckFailed(f"{query}({c_id}): {missing} rows missing, "
                              f"{extra} rows unexpected")


def check_tables(read_table, model: Model) -> None:
    """Every base table, read with ``read_table(name)``, equals the model."""
    for table, want in model.tables.items():
        rows = read_table(table)
        pk = COLUMNS[table][0]
        got = {r[pk]: r for r in rows}
        if len(got) != len(rows):
            raise CheckFailed(f"{table}: duplicate keys")
        if got != want:
            missing = len(want.keys() - got.keys())
            extra = len(got.keys() - want.keys())
            changed = sum(1 for k in want.keys() & got.keys()
                          if got[k] != want[k])
            raise CheckFailed(f"{table}: {missing} rows missing, {extra} "
                              f"unexpected, {changed} changed")


def check_write(kind: str, result) -> None:
    """A write's TxnResult: one root lock inside the tree, none outside."""
    want = 0 if kind == "ins_country" else 1
    if result.locks_acquired != want:
        raise CheckFailed(f"{kind}: {result.locks_acquired} locks acquired, "
                          f"expected {want}")
