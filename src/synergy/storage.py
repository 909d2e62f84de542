"""Embedded ordered key-value store.

Tables hold rows sorted by raw key bytes.  Each row is a dict of named
cells; a put replaces the whole row object atomically, so concurrent
readers always observe a complete row (read-committed at row granularity,
never a snapshot across rows).  Writers must not mutate a dict after
handing it to ``put``; readers must not mutate returned dicts.

Row keys are an order-preserving encoding of a value tuple: components
joined by 0x1F, strings escaping 0x1B/0x1F with an 0x1B prefix, integers
as fixed-width big-endian with the sign bit flipped.  Decoding is exact
for every value; byte order matches tuple order as long as string
components stay clear of C0 control characters (below 0x20).

``key_of`` is the one rule for the key a row has in a table (base, view
or index): its ``key_attrs`` values, encoded; a row lacking one of them
has no row in that table.
"""

from __future__ import annotations

import struct
import threading
from typing import Iterable, Iterator, Optional

from sortedcontainers import SortedDict

from .errors import SchemaError, SnapshotCorruptionError, UnknownTableError
from .schema import TableHandle

DELIM = b"\x1f"
ESCAPE = b"\x1b"
DIRTY = "_dirty"

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
    if vtype == "int":
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"expected int key component, got {value!r}")
        return struct.pack(">Q", value + _INT_OFFSET)
    if vtype == "string":
        if not isinstance(value, str):
            raise TypeError(f"expected string key component, got {value!r}")
        raw = encode_text(value)
        return raw.replace(ESCAPE, ESCAPE + ESCAPE).replace(DELIM, ESCAPE + DELIM)
    raise SchemaError(f"unknown key type {vtype!r}")


def encode_key(values: Iterable, types: Iterable[str]) -> bytes:
    values, types = tuple(values), tuple(types)
    if len(values) != len(types):
        raise TypeError(f"key arity mismatch: {len(values)} values "
                        f"for {len(types)} components")
    return DELIM.join(encode_value(v, t) for v, t in zip(values, types))


def decode_key(key: bytes, types: Iterable[str]) -> tuple:
    out = []
    pos = 0
    types = tuple(types)
    for i, t in enumerate(types):
        if i > 0:
            if pos >= len(key) or key[pos:pos + 1] != DELIM:
                raise ValueError("malformed key: missing delimiter")
            pos += 1
        if t == "int":
            chunk = key[pos:pos + 8]
            if len(chunk) != 8:
                raise ValueError("malformed key: truncated integer")
            out.append(struct.unpack(">Q", chunk)[0] - _INT_OFFSET)
            pos += 8
        else:
            buf = bytearray()
            while pos < len(key):
                b = key[pos:pos + 1]
                if b == ESCAPE:
                    buf += key[pos + 1:pos + 2]
                    pos += 2
                elif b == DELIM:
                    break
                else:
                    buf += b
                    pos += 1
            out.append(decode_text(buf))
    if pos != len(key):
        raise ValueError("malformed key: trailing bytes")
    return tuple(out)


def prefix_range(values: Iterable, handle: TableHandle) -> tuple[bytes, bytes]:
    """Byte range [start, end) of keys whose leading components equal
    ``values``; a full-arity tuple yields the single exact key."""
    values = tuple(values)
    if len(values) > len(handle.key_attrs):
        raise TypeError("prefix longer than key")
    prefix = encode_key(values, handle.key_types[:len(values)])
    if len(values) == len(handle.key_attrs):
        return prefix, prefix + b"\x00"
    return prefix + DELIM, prefix + b"\x20"


def key_of(handle: TableHandle, cells: dict) -> bytes | None:
    """Key of the row ``cells`` in ``handle``'s table, or None when the row
    lacks one of ``handle.key_attrs`` (it then has no row there)."""
    try:
        values = tuple(cells[a] for a in handle.key_attrs)
    except KeyError:
        return None
    return encode_key(values, handle.key_types)


# -- tables and store ---------------------------------------------------------

class _Table:
    __slots__ = ("rows", "lock")

    def __init__(self):
        self.rows = SortedDict()
        self.lock = threading.Lock()


class Store:
    """Thread-safe store of ordered tables with single-row atomicity."""

    def __init__(self):
        self._tables: dict[str, _Table] = {}

    # -- catalog ------------------------------------------------------------

    def create_table(self, handle: TableHandle) -> None:
        if handle.name in self._tables:
            raise SchemaError(f"table {handle.name!r} already exists")
        self._tables[handle.name] = _Table()

    def table_names(self) -> list[str]:
        return sorted(self._tables)

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
             end: bytes | None = None) -> Iterator[tuple[bytes, dict]]:
        """Stream committed rows in key order over [start, end).

        The (key, row) pairs are snapshotted atomically per table, so one
        scan never interleaves with a concurrent multi-row write; there is
        still no snapshot across scans.
        """
        t = self._table(table)
        with t.lock:
            if start is None and end is None:
                snapshot = list(t.rows.items())
            else:
                rows = t.rows
                snapshot = [(k, rows[k]) for k in
                            t.rows.irange(start, end, inclusive=(True, False))]
        yield from snapshot

    def count(self, table: str) -> int:
        return len(self._table(table).rows)

    # -- snapshot persistence ------------------------------------------------

    _MAGIC = b"SYKV1\n"

    def save_snapshot(self, path) -> None:
        """Write every cell as a length-prefixed (table, key, column, value)
        record; deterministic for a given store state."""
        with open(path, "wb") as fh:
            fh.write(self._MAGIC)
            for name in sorted(self._tables):
                t = self._tables[name]
                tn = name.encode("utf-8")
                with t.lock:
                    items = list(t.rows.items())
                for key, cells in items:
                    for col in sorted(cells):
                        rec = bytearray()
                        rec += struct.pack(">H", len(tn)) + tn
                        rec += struct.pack(">H", len(key)) + key
                        cn = col.encode("utf-8")
                        rec += struct.pack(">H", len(cn)) + cn
                        rec += _encode_cell(cells[col])
                        fh.write(rec)

    def load_snapshot(self, path) -> None:
        """Apply snapshot records to the (already created) tables; a bad
        magic, a cut record, a bad cell tag or undecodable text raises
        SnapshotCorruptionError before any row is applied."""
        with open(path, "rb") as fh:
            data = fh.read()
        if not data.startswith(self._MAGIC):
            raise SnapshotCorruptionError("not a snapshot file")
        pos = len(self._MAGIC)
        staged: dict[tuple[str, bytes], dict] = {}
        try:
            while pos < len(data):
                table, pos = _read_chunk(data, pos)
                key, pos = _read_chunk(data, pos, raw=True)
                column, pos = _read_chunk(data, pos)
                value, pos = _decode_cell(data, pos)
                staged.setdefault((table, key), {})[column] = value
        except (struct.error, IndexError, UnicodeDecodeError) as exc:
            raise SnapshotCorruptionError(
                f"unreadable snapshot record: {exc}") from None
        # a slice past the end comes back short: only the position shows
        # that the last chunk was cut
        if pos > len(data):
            raise SnapshotCorruptionError("snapshot ends inside a record")
        for (table, key), cells in staged.items():
            self.put(table, key, cells)


def _encode_cell(value) -> bytes:
    if isinstance(value, bool):
        return struct.pack(">BB", 2, int(value))
    if isinstance(value, int):
        return struct.pack(">Bq", 0, value)
    if isinstance(value, str):
        raw = encode_text(value)
        return struct.pack(">BI", 1, len(raw)) + raw
    raise TypeError(f"unsupported cell value {value!r}")


def _decode_cell(data: bytes, pos: int):
    tag = data[pos]
    pos += 1
    if tag == 2:
        return bool(data[pos]), pos + 1
    if tag == 0:
        return struct.unpack_from(">q", data, pos)[0], pos + 8
    if tag == 1:
        (n,) = struct.unpack_from(">I", data, pos)
        pos += 4
        return decode_text(data[pos:pos + n]), pos + n
    raise SnapshotCorruptionError(f"bad cell tag {tag}")


def _read_chunk(data: bytes, pos: int, raw: bool = False):
    (n,) = struct.unpack_from(">H", data, pos)
    pos += 2
    chunk = data[pos:pos + n]
    return (chunk if raw else chunk.decode("utf-8")), pos + n
