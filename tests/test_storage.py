import enum
import itertools
import os
import tempfile
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st
from sortedcontainers import SortedDict, SortedList

from synergy.errors import (SchemaError, SnapshotCorruptionError,
                            UnknownTableError)
from synergy.schema import TableHandle
from synergy.storage import (ABSENT, DIRTY, Store, encode_key,
                             key_encoder, prefix_range)


def make_store(key_types=("int",), columns=("v",), name="T"):
    store = Store()
    handle = TableHandle(name, "base",
                         tuple(f"k{i}" for i in range(len(key_types))),
                         tuple(key_types), columns)
    store.create_table(handle)
    return store, handle


def k(*vals):
    return encode_key(vals, tuple("int" if isinstance(v, int) else "string"
                                  for v in vals))


def test_string_components_are_delimited():
    assert encode_key(("C42", "O7"), ("string", "string")) == b"C42\x1fO7"


def test_sign_flip_orders_negatives_before_positives():
    assert encode_key((-5,), ("int",)) < encode_key((3,), ("int",))


def test_arity_and_type_mismatches():
    with pytest.raises(TypeError):
        encode_key((1, 2), ("int",))
    with pytest.raises(TypeError):
        encode_key(("x",), ("int",))
    with pytest.raises(TypeError):
        encode_key((1,), ("string",))
    with pytest.raises(TypeError):
        encode_key((True,), ("int",))


int_tuples = st.lists(st.tuples(st.integers(-(2**63), 2**63 - 1),
                                st.integers(-(2**63), 2**63 - 1)),
                      min_size=2, max_size=30)

# order preservation is guaranteed for strings without C0 control characters
clean_text = st.text(st.characters(min_codepoint=0x20), max_size=8)
mixed_tuples = st.lists(st.tuples(clean_text, st.integers(-1000, 1000),
                                  clean_text),
                        min_size=2, max_size=30)


@given(int_tuples)
def test_int_keys_sort_like_tuples(tuples):
    types = ("int", "int")
    by_bytes = sorted(tuples, key=lambda t: encode_key(t, types))
    assert by_bytes == sorted(tuples)


@given(mixed_tuples)
def test_mixed_keys_sort_like_tuples(tuples):
    types = ("string", "int", "string")
    by_bytes = sorted(tuples, key=lambda t: encode_key(t, types))
    assert by_bytes == sorted(tuples)


# -- the per-shape key encoder against encode_key, the reference ----------------

def compiled(values, types):
    return key_encoder(tuple(types))(values)


def outcome(encode, values, types):
    """The key bytes, or the type of the exception raised instead."""
    try:
        return encode(values, types)
    except Exception as exc:
        return type(exc)


#: a key component of each type: ints one past each end of the 64-bit
#: range as well, strings with the escape and delimiter bytes
COMPONENTS = {
    "int": st.integers(-(2**63) - 1, 2**63),
    "string": st.text(st.one_of(st.sampled_from("\x1b\x1f"),
                                st.characters()), max_size=6),
}


key_shapes = st.lists(st.sampled_from(sorted(COMPONENTS)),
                      min_size=1, max_size=3).map(tuple)


@given(st.data())
def test_compiled_encoder_equals_encode_key(data):
    types = data.draw(key_shapes)
    values = data.draw(st.tuples(*(COMPONENTS[t] for t in types)))
    assert (outcome(compiled, values, types)
            == outcome(encode_key, values, types))


#: components whose byte order is tuple order: the full int range, strings
#: clear of C0 control characters
ORDERED = {"int": st.integers(-(2**63), 2**63 - 1), "string": clean_text}


@given(st.data())
def test_compiled_keys_sort_like_tuples(data):
    types = data.draw(key_shapes)
    tuples = data.draw(st.lists(st.tuples(*(ORDERED[t] for t in types)),
                                min_size=2, max_size=30))
    by_bytes = sorted(tuples, key=lambda t: compiled(t, types))
    assert by_bytes == sorted(tuples)


#: every string of up to three characters over the escape byte, the
#: delimiter and one plain character
SHORT_STRINGS = ["".join(c) for n in range(4)
                 for c in itertools.product("a\x1b\x1f", repeat=n)]


@pytest.mark.parametrize("types", [("string", "string"),
                                   ("string", "int", "string"),
                                   ("int", "string", "string")],
                         ids="-".join)
def test_distinct_tuples_give_distinct_keys(types):
    """Escaping keeps keys apart even where the escape and delimiter bytes
    run across components, as in ``("a\x1f", "")`` and ``("a", "\x1f")``."""
    tuples = list(itertools.product(*(
        SHORT_STRINGS if t == "string" else (-1, 0, 1) for t in types)))
    keys = {compiled(t, types) for t in tuples}
    assert len(keys) == len(tuples)


@pytest.mark.parametrize("types", [("int",), ("int", "int"),
                                   ("int", "int", "int"), ("string", "int"),
                                   ("string",)])
def test_compiled_encoder_fails_as_encode_key_does(types):
    """A wrong arity and each bad component raise the same exception type
    from both; an int subclass gives the same bytes from both."""
    class Number(enum.IntEnum):
        SEVEN = 7

    good = tuple(1 if t == "int" else "a" for t in types)
    cases = [good, good[:-1], good + good[:1]]
    for i, t in enumerate(types):
        for bad in ((True, 1.0, "7", Number.SEVEN, 2**63) if t == "int"
                    else (7, b"a", None)):
            cases.append(good[:i] + (bad,) + good[i + 1:])
    for values in cases:
        assert (outcome(compiled, values, types)
                == outcome(encode_key, values, types)), values
    assert outcome(compiled, good + (1.5,), types + ("float",)) is SchemaError


def test_put_get_delete_roundtrip():
    store, _ = make_store()
    store.put("T", k(1), {"v": 10})
    assert store.get("T", k(1)) == {"v": 10}
    assert store.delete("T", k(1)) is True
    assert store.get("T", k(1)) is None
    assert store.delete("T", k(1)) is False


def test_unknown_table_errors():
    store, _ = make_store()
    with pytest.raises(UnknownTableError):
        store.get("Nope", k(1))
    with pytest.raises(UnknownTableError):
        store.put("Nope", k(1), {})


def test_scan_is_half_open_and_sorted():
    store, _ = make_store(("string",))
    for name in ("B", "A", "C"):
        store.put("T", encode_key((name,), ("string",)), {"v": name})
    got = [cells["v"] for _, cells in store.scan(
        "T", encode_key(("A",), ("string",)), encode_key(("B",), ("string",)))]
    assert got == ["A"]
    all_keys = [key for key, _ in store.scan("T")]
    assert all_keys == sorted(all_keys)
    assert len(set(all_keys)) == len(all_keys)


def test_prefix_range_matches_only_extensions():
    store, handle = make_store(("string", "int"))
    store.put("T", encode_key(("C4", 2), handle.key_types), {"v": 0})
    store.put("T", encode_key(("C42", 1), handle.key_types), {"v": 1})
    store.put("T", encode_key(("C42", 2), handle.key_types), {"v": 2})
    store.put("T", encode_key(("C421", 0), handle.key_types), {"v": 3})
    start, end = prefix_range(("C42",), handle)
    got = [c["v"] for _, c in store.scan("T", start, end)]
    assert got == [1, 2]
    # full-arity prefix pins exactly one key
    start, end = prefix_range(("C42", 2), handle)
    got = [c["v"] for _, c in store.scan("T", start, end)]
    assert got == [2]


@pytest.fixture()
def irange_calls(monkeypatch):
    """Every (start, end) a table made after this fixture is range-iterated
    over (a SortedDict binds its key list's ``irange`` when built)."""
    calls = []
    real = SortedList.irange

    def counting(self, minimum=None, maximum=None, *args, **kwargs):
        calls.append((minimum, maximum))
        return real(self, minimum, maximum, *args, **kwargs)

    monkeypatch.setattr(SortedList, "irange", counting)
    return calls


def test_an_exact_key_range_is_one_lookup(irange_calls):
    store, handle = make_store(("int", "int"))
    for key in ((1, 1), (1, 2), (1, 4), (2, 0)):
        store.put("T", encode_key(key, handle.key_types), {"v": key})
    rows = SortedDict(store.scan("T"))
    # a present key, then an absent one whose neighbours are present
    for key in ((1, 2), (1, 3)):
        start, end = prefix_range(key, handle)
        assert end == start + b"\x00"
        want = [(k_, rows[k_]) for k_ in
                rows.irange(start, end, inclusive=(True, False))]
        irange_calls.clear()
        assert store.scan("T", start, end) == want
        assert irange_calls == []
    assert [c["v"] for _, c in store.scan("T", *prefix_range(
        (1, 2), handle))] == [(1, 2)]


def test_every_other_range_goes_through_irange(irange_calls):
    store, handle = make_store(("int", "int"))
    for key in ((1, 1), (1, 2), (1, 4), (2, 0)):
        store.put("T", encode_key(key, handle.key_types), {"v": key})
    exact = encode_key((1, 2), handle.key_types)
    ranges = [prefix_range((1,), handle), (exact, exact + b"\x00\x00"),
              (exact, exact + b"\x01"), (None, exact + b"\x00"),
              (exact, None)]
    for start, end in ranges:
        irange_calls.clear()
        store.scan("T", start, end)
        assert irange_calls == [(start, end)]
    irange_calls.clear()
    assert [c["v"] for _, c in store.scan("T")] == [
        (1, 1), (1, 2), (1, 4), (2, 0)]
    assert irange_calls == []       # a full scan copies the table in order


def test_a_scan_is_a_snapshot_taken_when_called():
    store, _ = make_store()
    store.put("T", k(1), {"v": 1})
    store.put("T", k(3), {"v": 3})
    full, ranged = store.scan("T"), store.scan("T", k(1), k(9))
    store.put("T", k(2), {"v": 2})
    store.put("T", k(3), {"v": 33})
    store.delete("T", k(1))
    for rows in (full, ranged):
        assert [c["v"] for _, c in rows] == [1, 3]


def test_check_and_put_basics():
    store, _ = make_store(columns=("lock_status",))
    # absent row: only the ABSENT marker matches
    assert store.check_and_put("T", k(1), "lock_status", False, True) is False
    assert store.check_and_put("T", k(1), "lock_status", ABSENT, True) is True
    assert store.get("T", k(1)) == {"lock_status": True}
    assert store.check_and_put("T", k(1), "lock_status", False, True) is False
    assert store.check_and_put("T", k(1), "lock_status", True, False) is True
    assert store.check_and_put("T", k(1), "lock_status", False, True) is True


def test_check_and_put_race_has_single_winner():
    store, _ = make_store(columns=("lock_status",))
    store.put("T", k(1), {"lock_status": False})
    wins = []
    barrier = threading.Barrier(8)

    def race():
        barrier.wait()
        if store.check_and_put("T", k(1), "lock_status", False, True):
            wins.append(1)

    threads = [threading.Thread(target=race) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(wins) == 1


def test_readers_never_see_torn_rows():
    store, _ = make_store(columns=("a", "b"))
    stop = threading.Event()
    bad = []

    def reader():
        while not stop.is_set():
            row = store.get("T", k(1))
            if row is not None and row["a"] != row["b"]:
                bad.append(row)
            for _, cells in store.scan("T"):
                if cells["a"] != cells["b"]:
                    bad.append(cells)

    t = threading.Thread(target=reader)
    t.start()
    for i in range(3000):
        store.put("T", k(1), {"a": i, "b": i})
    stop.set()
    t.join()
    assert bad == []


def test_snapshot_round_trip(tmp_path):
    store, handle = make_store(("int",), ("v", "s", "flag"))
    store.put("T", k(1), {"v": -7, "s": "x'y", "flag": True})
    store.put("T", k(2), {"v": 2})
    path = tmp_path / "snap.bin"
    store.save_snapshot(path)

    fresh = Store()
    fresh.create_table(handle)
    fresh.load_snapshot(path)
    assert fresh.get("T", k(1)) == {"v": -7, "s": "x'y", "flag": True}
    assert fresh.get("T", k(2)) == {"v": 2}
    # deterministic bytes for identical content
    path2 = tmp_path / "snap2.bin"
    fresh.save_snapshot(path2)
    assert path.read_bytes() == path2.read_bytes()


def two_table_store():
    """Two tables whose cells cover every tag: int, str, bool, absent."""
    store, t = make_store(("int",), ("n", "mixed", "flag"), name="T")
    u = TableHandle("U", "base", ("k0",), ("string",), ("txt",))
    store.create_table(u)
    store.put("T", k(1), {"n": -7, "mixed": "h\u00e9llo", "flag": True})
    store.put("T", k(2), {"n": 2, "mixed": 5})              # flag absent
    store.put("U", k("a"), {"txt": "zz", DIRTY: True})
    return store, (t, u)


def test_damaged_snapshot_raises_a_typed_error_and_applies_nothing(tmp_path):
    store, handles = two_table_store()
    path = tmp_path / "snap.bin"
    store.save_snapshot(path)
    data = path.read_bytes()
    tag = data.index(b"mixed") + len(b"mixed")      # first tag of "mixed"
    text = data.index("h\u00e9llo".encode())
    damaged = [b"XYKV2" + data[5:],                        # bad magic
               data[:tag] + b"\x09" + data[tag + 1:],       # bad cell tag
               data[:text] + b"\xff\xff" + data[text + 2:],  # undecodable text
               data + b"\x00"]                              # trailing byte
    # cut anywhere: in the header, inside a section or between two sections
    damaged += [data[:cut] for cut in range(len(data))]
    for raw in damaged:
        path.write_bytes(raw)
        fresh = Store()
        for handle in handles:
            fresh.create_table(handle)
        with pytest.raises(SnapshotCorruptionError):
            fresh.load_snapshot(path)
        assert fresh.count("T") == fresh.count("U") == 0


def test_snapshot_in_the_old_format_is_refused_by_name(tmp_path):
    path = tmp_path / "snap.bin"
    path.write_bytes(b"SYKV1\n\x00\x01T\x00\x08" + k(1)
                     + b"\x00\x01v\x00" + (7).to_bytes(8, "big"))
    store, _ = make_store()
    with pytest.raises(SnapshotCorruptionError, match="SYKV1"):
        store.load_snapshot(path)
    assert store.count("T") == 0


def test_snapshot_naming_an_unknown_table_applies_nothing(tmp_path):
    store, (t, _) = two_table_store()
    path = tmp_path / "snap.bin"
    store.save_snapshot(path)
    fresh = Store()
    fresh.create_table(t)
    with pytest.raises(UnknownTableError, match="'U'"):
        fresh.load_snapshot(path)
    assert fresh.count("T") == 0


def typed_rows(store, table):
    """Rows with each cell's type, so True and 1 differ."""
    return [(key, [(c, type(v), v) for c, v in sorted(cells.items())])
            for key, cells in store.scan(table)]


_cell_values = st.one_of(
    st.integers(-(2 ** 63), 2 ** 63 - 1),
    st.sampled_from([2 ** 63 - 1, -(2 ** 63 - 1), 0]),
    st.text(st.characters() | st.characters(categories=["Cs"])
            | st.sampled_from("\x1b\x1f")),
    st.just(""),
    st.booleans())
_rows = st.fixed_dictionaries({}, optional={
    "a": _cell_values, "b": _cell_values, "c": _cell_values,
    DIRTY: st.just(True)})
_tables = st.dictionaries(st.sampled_from(["A", "B", "C_x"]),
                          st.dictionaries(st.binary(max_size=10), _rows,
                                          max_size=6))


@settings(deadline=None)
@given(_tables)
def test_snapshot_codec_round_trips_every_cell(tables):
    def store_of(contents):
        store = Store()
        for name in contents:
            store.create_table(TableHandle(name, "base", ("k0",), ("int",),
                                           ("a", "b", "c")))
        return store

    store = store_of(tables)
    for name, rows in tables.items():
        for key, cells in rows.items():
            store.put(name, key, cells)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "1"), os.path.join(tmp, "2")
        store.save_snapshot(first)
        fresh = store_of(tables)
        fresh.load_snapshot(first)
        fresh.save_snapshot(second)
        for name in tables:
            assert typed_rows(fresh, name) == typed_rows(store, name)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()


# -- single-key linearizability, brute-force checked ---------------------------

def _sequentially_consistent(history):
    """Wing & Gong style search: does some linearization of the recorded
    history match sequential semantics on a single cell?"""

    def simulate(value, op, arg):
        if op == "put":
            return arg, None
        if op == "get":
            return value, value
        if op == "cas":
            expected, new = arg
            current = ABSENT if value is None else value
            if (current is ABSENT and expected is ABSENT) or \
               (current is not ABSENT and expected is not ABSENT
                    and current == expected):
                return new, True
            return value, False
        raise AssertionError(op)

    def search(remaining, value):
        if not remaining:
            return True
        min_end = min(e for (_, e, *_rest) in remaining)
        for i, entry in enumerate(remaining):
            start, _, op, arg, result = entry
            if start > min_end:
                continue
            new_value, expect = simulate(value, op, arg)
            if expect != result and op != "put":
                continue
            if search(remaining[:i] + remaining[i + 1:], new_value):
                return True
        return False

    return search(history, None)


def test_single_key_history_is_linearizable():
    store, _ = make_store(columns=("v",))
    history = []
    lock = threading.Lock()

    def record(op, arg, fn):
        start = time.monotonic_ns()
        result = fn()
        end = time.monotonic_ns()
        with lock:
            history.append((start, end, op, arg, result))

    def worker(seed):
        for j in range(3):
            which = (seed + j) % 3
            if which == 0:
                value = seed * 10 + j + 1
                record("put", value,
                       lambda: store.put("T", k(1), {"v": value}))
            elif which == 1:
                record("cas", (ABSENT, 10),
                       lambda: store.check_and_put("T", k(1), "v", ABSENT, 10))
            else:
                record("get", None,
                       lambda: (store.get("T", k(1)) or {}).get("v"))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert _sequentially_consistent(sorted(history)) is True
