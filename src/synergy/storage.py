"""Embedded ordered key-value store.

Tables hold rows sorted by raw key bytes.  Each row is a dict of named
cells; a put replaces the whole row object atomically, so concurrent
readers always observe a complete row (read-committed at row granularity,
never a snapshot across rows).  Writers must not mutate a dict once put,
nor readers one returned, so one dict may be stored in several tables.

Row keys are an order-preserving encoding of a value tuple: components
joined by 0x1F, strings escaping 0x1B/0x1F with an 0x1B prefix, integers
as fixed-width big-endian with the sign bit flipped.  Distinct tuples
get distinct keys; byte order matches tuple order as long as string
components stay clear of C0 control characters (below 0x20).

``key_encoder`` builds one encoder per key shape (a tuple of key types),
once.  The shapes the workloads' keys have, one or two ints, get a
precompiled ``struct`` with the 0x1F delimiter in its format; every other
shape uses ``encode_key``.  Their bytes are equal, and ``encode_key``
stays the reference and the one path that raises: the fast encoder hands
it any value tuple it cannot take.  Ints are limited to the signed 64-bit
range by ``schema.value_fits``, the one admission rule.

``key_of`` is the one rule for the key a row has in a table (base, view
or index): its ``key_attrs`` values, encoded; a row lacking one of them
has no row in that table.

A snapshot (``SYKV2``) is the magic, a table count, then one section per
base, view and lock table in name order.  It holds no index, whose rows
are its base table's rows under another key: ``rebuild_index`` makes one
from them (a section an older snapshot holds for an index loads, and the
rebuild replaces it).  A section holds the table name, a row count and a
column count (the sorted union of the rows' cell names), and the keys in
key order as one array of lengths plus one byte blob.  Each column then
holds its name, one tag byte per row (int, str, bool or absent), its ints
as one array of signed 64-bit integers, its bools as raw bytes, and its
strings as code-point lengths plus one UTF-8 blob that also carries lone
surrogates.  Names are UTF-8 behind a 16-bit length, counts and lengths
are 32-bit, a column's UTF-8 byte length 64-bit, all big-endian.  Loading
checks every count and that the last section ends the file, so a cut
anywhere is caught.
"""

from __future__ import annotations

import functools
import struct
import threading
from itertools import accumulate, compress, repeat
from typing import Callable, Iterable, Optional, Sequence

from sortedcontainers import SortedDict

from .errors import SchemaError, SnapshotCorruptionError, UnknownTableError
from .schema import DIRTY, INDEX, INT, STRING, TableHandle, value_fits

DELIM = b"\x1f"
ESCAPE = b"\x1b"

_INT_OFFSET = 2 ** 63


class _Absent:
    def __repr__(self):
        return "<absent>"


#: Designated marker: a check_and_put expecting ABSENT matches a missing
#: row or cell.
ABSENT = _Absent()


# -- key encoding ------------------------------------------------------------

def encode_text(value: str) -> bytes:
    """UTF-8 that also carries lone surrogates; byte order still equals
    code-point order."""
    return value.encode("utf-8", "surrogatepass")


def decode_text(raw: bytes) -> str:
    return raw.decode("utf-8", "surrogatepass")


def encode_value(value, vtype: str) -> bytes:
    if not value_fits(value, vtype):
        if vtype not in (INT, STRING):
            raise SchemaError(f"unknown key type {vtype!r}")
        raise TypeError(f"expected {vtype} key component, got {value!r}")
    if vtype == INT:
        return struct.pack(">Q", value + _INT_OFFSET)
    raw = encode_text(value)
    return raw.replace(ESCAPE, ESCAPE + ESCAPE).replace(DELIM, ESCAPE + DELIM)


def encode_key(values: Iterable, types: Iterable[str]) -> bytes:
    """The reference key encoder, and the one that raises: TypeError for a
    wrong arity or a value its type rejects, SchemaError for an unknown
    type.  ``key_encoder`` gives the same bytes faster."""
    values, types = tuple(values), tuple(types)
    if len(values) != len(types):
        raise TypeError(f"key arity mismatch: {len(values)} values "
                        f"for {len(types)} components")
    return DELIM.join(encode_value(v, t) for v, t in zip(values, types))


@functools.cache
def key_encoder(types: tuple[str, ...]) -> Callable[[Sequence], bytes]:
    """The encoder of keys of shape ``types``, built once per shape: a
    function of a value tuple giving ``encode_key``'s bytes.  For one or
    two ints it tests only each value's exact type and packs them with
    one precompiled struct; a tuple it cannot take (a wrong type or arity,
    a bool, an int outside 64 bits) goes to ``encode_key``, so callers see
    its exceptions."""
    def reference(values):
        return encode_key(values, types)

    # one closure per shape the workloads' keys have: a generic all-int
    # closure (len check, all(...), pack(*args)) made mixed-rw ~12% slower
    if types == (INT,):
        pack = struct.Struct(">Q").pack

        def encode(values):
            try:
                (v,) = values
                if type(v) is int:
                    return pack(v + _INT_OFFSET)
            except (TypeError, ValueError, struct.error):
                pass
            return reference(values)
        return encode
    if types == (INT, INT):
        pack = struct.Struct(">QBQ").pack

        def encode(values):
            try:
                v, w = values
                if type(v) is int and type(w) is int:
                    return pack(v + _INT_OFFSET, DELIM[0], w + _INT_OFFSET)
            except (TypeError, ValueError, struct.error):
                pass
            return reference(values)
        return encode
    return reference


def prefix_range(values: Iterable, handle: TableHandle) -> tuple[bytes, bytes]:
    """Byte range [start, end) of keys whose leading components equal
    ``values``; a full-arity tuple yields the single exact key."""
    values = tuple(values)
    if len(values) > len(handle.key_attrs):
        raise TypeError("prefix longer than key")
    prefix = key_encoder(handle.key_types[:len(values)])(values)
    if len(values) == len(handle.key_attrs):
        return prefix, prefix + b"\x00"
    return prefix + DELIM, prefix + b"\x20"


def key_of(handle: TableHandle, cells: dict) -> bytes | None:
    """Key of the row ``cells`` in ``handle``'s table, or None when the row
    lacks one of ``handle.key_attrs`` (it then has no row there)."""
    try:
        values = tuple(map(cells.__getitem__, handle.key_attrs))
    except KeyError:
        return None
    return key_encoder(handle.key_types)(values)


# -- tables and store ---------------------------------------------------------

class _Table:
    __slots__ = ("rows", "lock", "kind")

    def __init__(self, kind: str):
        self.rows = SortedDict()
        self.lock = threading.Lock()
        self.kind = kind


class Store:
    """Thread-safe store of ordered tables with single-row atomicity."""

    def __init__(self):
        self._tables: dict[str, _Table] = {}

    # -- catalog ------------------------------------------------------------

    def create_table(self, handle: TableHandle) -> None:
        if handle.name in self._tables:
            raise SchemaError(f"table {handle.name!r} already exists")
        self._tables[handle.name] = _Table(handle.kind)

    def _table(self, name: str) -> _Table:
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTableError(f"unknown table {name!r}") from None

    # -- primitives ----------------------------------------------------------

    def get(self, table: str, key: bytes) -> Optional[dict]:
        return self._table(table).rows.get(key)

    def put(self, table: str, key: bytes, cells: dict) -> None:
        t = self._table(table)
        with t.lock:
            t.rows[key] = cells

    def delete(self, table: str, key: bytes) -> bool:
        t = self._table(table)
        with t.lock:
            return t.rows.pop(key, None) is not None

    def check_and_put(self, table: str, key: bytes, column: str,
                      expected, new) -> bool:
        """Atomically write ``new`` into ``column`` iff its current value
        equals ``expected`` (ABSENT matches a missing row or cell)."""
        t = self._table(table)
        with t.lock:
            row = t.rows.get(key)
            current = ABSENT if row is None else row.get(column, ABSENT)
            if current is ABSENT:
                if expected is not ABSENT:
                    return False
            elif expected is ABSENT or current != expected:
                return False
            fresh = {} if row is None else dict(row)
            fresh[column] = new
            t.rows[key] = fresh
            return True

    def scan(self, table: str, start: bytes | None = None,
             end: bytes | None = None) -> list[tuple[bytes, dict]]:
        """Committed (key, row) pairs in key order over [start, end), as a
        list taken under the table lock when called: one scan never
        interleaves with a concurrent write, nor sees one made after it
        returns; there is still no snapshot across scans.  Callers iterate
        the result once, so a wrapper may hand back an iterator."""
        t = self._table(table)
        rows = t.rows
        with t.lock:
            if start is not None and end == start + b"\x00":
                cells = rows.get(start)     # the range holds only ``start``
                return [] if cells is None else [(start, cells)]
            keys = list(rows if start is None and end is None else
                        rows.irange(start, end, inclusive=(True, False)))
            return list(zip(keys, map(rows.__getitem__, keys)))

    def count(self, table: str) -> int:
        return len(self._table(table).rows)

    def rebuild_index(self, index: TableHandle, table: str) -> None:
        """Refill the table of ``index`` from ``table``'s rows in one bulk
        update: each row, the same dict, at its key there (``key_of``; a
        row lacking a key attribute has none).  No snapshot holds an index,
        so opening one rebuilds every index this way."""
        source, target = self._table(table), self._table(index.name)
        with source.lock:
            pairs = [(key_of(index, row), row) for row in source.rows.values()]
        with target.lock:
            target.rows.clear()
            target.rows.update(pair for pair in pairs if pair[0] is not None)

    # -- snapshot persistence ------------------------------------------------

    _MAGIC = b"SYKV2\n"
    _OLD_MAGIC = b"SYKV1\n"

    def save_snapshot(self, path) -> None:
        """Write one columnar section per table but an index's (layout in
        the module docstring); deterministic for a given store state."""
        names = sorted(n for n, t in self._tables.items() if t.kind != INDEX)
        with open(path, "wb") as fh:
            fh.write(self._MAGIC + struct.pack(">I", len(names)))
            for name in names:
                t = self._tables[name]
                with t.lock:
                    keys, rows = list(t.rows.keys()), list(t.rows.values())
                fh.write(_encode_section(name, keys, rows))

    def load_snapshot(self, path) -> None:
        """Load a snapshot into the (already created) tables.  The whole file
        is parsed before any row is applied: a table the store lacks raises
        UnknownTableError; a bad magic, a cut anywhere, a count that does not
        match, a bad cell tag or undecodable text raise
        SnapshotCorruptionError.  Each table is then filled in one bulk
        update under its lock."""
        with open(path, "rb") as fh:
            data = fh.read()
        if data.startswith(self._OLD_MAGIC):
            raise SnapshotCorruptionError(
                "snapshot is in the old SYKV1 format, which is no longer "
                "read; only SYKV2 snapshots load")
        if not data.startswith(self._MAGIC):
            raise SnapshotCorruptionError("not a snapshot file")
        reader = _Reader(data, len(self._MAGIC))
        staged = []
        try:
            for _ in range(reader.array("I", 1)[0]):
                table = self._table(reader.name())
                staged.append((table, _decode_section(reader)))
        except UnicodeDecodeError as exc:
            raise SnapshotCorruptionError(
                f"undecodable snapshot text: {exc}") from None
        if reader.pos != len(data):
            raise SnapshotCorruptionError("bytes after the last section")
        for table, pairs in staged:
            with table.lock:
                table.rows.update(pairs)


# -- snapshot sections ---------------------------------------------------------

#: cell tags, one byte per row in every column
_INT, _STR, _BOOL, _NONE = range(4)
_TAG_OF = {int: _INT, str: _STR, bool: _BOOL, _Absent: _NONE}
#: bytes.translate tables that map one tag to 1 and every other byte to 0
_IS_TAG = {tag: bytes(int(b == tag) for b in range(256))
           for tag in (_INT, _STR, _BOOL)}


def _tag(value) -> int:
    if isinstance(value, bool):
        return _BOOL
    if isinstance(value, int):
        return _INT
    if isinstance(value, str):
        return _STR
    if value is ABSENT:
        return _NONE
    raise TypeError(f"unsupported cell value {value!r}")


def _encode_name(name: str) -> bytes:
    raw = name.encode("utf-8")
    return struct.pack(">H", len(raw)) + raw


def _encode_section(name: str, keys: list[bytes], rows: list[dict]) -> bytes:
    columns = sorted(set().union(*rows))
    parts = [_encode_name(name), struct.pack(">II", len(keys), len(columns)),
             struct.pack(f">{len(keys)}I", *map(len, keys)), b"".join(keys)]
    for col in columns:
        parts.append(_encode_name(col))
        parts += _encode_column([row.get(col, ABSENT) for row in rows])
    return b"".join(parts)


def _encode_column(values: list) -> list[bytes]:
    try:
        tags = bytes(map(_TAG_OF.__getitem__, map(type, values)))
    except KeyError:            # a subclass of a cell type, or no cell type
        tags = bytes(map(_tag, values))
    ints, strs, bools = (list(compress(values, tags.translate(_IS_TAG[t])))
                         for t in (_INT, _STR, _BOOL))
    text = encode_text("".join(strs))
    return [tags, struct.pack(f">{len(ints)}q", *ints), bytes(bools),
            struct.pack(f">{len(strs)}I", *map(len, strs)),
            struct.pack(">Q", len(text)), text]


class _Reader:
    """Cursor over snapshot bytes; reading past the end is corruption."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes, pos: int):
        self.data, self.pos = data, pos

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise SnapshotCorruptionError("snapshot ends inside a section")
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def array(self, code: str, n: int) -> tuple:
        fmt = f">{n}{code}"
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def name(self) -> str:
        return self.take(self.array("H", 1)[0]).decode("utf-8")


def _split(blob, lengths) -> list:
    """Cut ``blob`` into consecutive pieces of the given lengths."""
    ends = list(accumulate(lengths))
    if (ends[-1] if ends else 0) != len(blob):
        raise SnapshotCorruptionError("lengths do not add up to the data")
    return [blob[a:b] for a, b in zip([0] + ends, ends)]


def _decode_section(reader: _Reader) -> list[tuple[bytes, dict]]:
    n_rows, n_cols = reader.array("I", 2)
    lengths = reader.array("I", n_rows)
    keys = _split(reader.take(sum(lengths)), lengths)
    rows = [{} for _ in keys]
    for _ in range(n_cols):         # sorted names: each row's cells in order
        name = reader.name()
        for row, value in zip(rows, _decode_column(reader, n_rows)):
            if value is not ABSENT:
                row[name] = value
    return list(zip(keys, rows))


def _decode_column(reader: _Reader, n: int) -> list:
    """A column's values in row order, ABSENT where a row has no cell."""
    tags = reader.take(n)
    counts = [tags.count(t) for t in (_INT, _STR, _BOOL, _NONE)]
    if sum(counts) != n:
        raise SnapshotCorruptionError("bad cell tag")
    ints = reader.array("q", counts[_INT])
    raw_bools = reader.take(counts[_BOOL])
    if raw_bools.translate(None, b"\x00\x01"):
        raise SnapshotCorruptionError("bad bool cell")
    lengths = reader.array("I", counts[_STR])
    text = decode_text(reader.take(reader.array("Q", 1)[0]))
    kinds = [ints, _split(text, lengths), list(map(bool, raw_bools)),
             repeat(ABSENT)]
    for tag in (_INT, _STR, _BOOL):
        if counts[tag] == n:        # one kind only: no per-cell dispatch
            return kinds[tag]
    its = [iter(kind) for kind in kinds]
    return [next(its[t]) for t in tags]
