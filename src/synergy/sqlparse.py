"""Parser and renderer for the restricted SQL subset used by workloads.

Supported statement shapes:

    SELECT <*|refs> FROM rel [AS a] [, rel [AS a]]... WHERE cond AND cond ...
    INSERT INTO rel (attr, ...) VALUES (literal, ...)
    UPDATE rel [AS a] SET attr = value [, ...] WHERE cond AND ...
    DELETE FROM rel WHERE cond AND ...

Conditions are either equi-join conditions (``a.x = b.y``, each side
qualified by its own alias) or filters (``a.x <op> literal-or-?``, where
the alias may be left out) joined by AND.  Keywords are case-insensitive,
identifiers are case-sensitive.  Literals are 64-bit signed integers and
single-quoted strings ('' escapes a quote).  ``?`` placeholders bind
positionally at execution time.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Union

from .errors import SqlSyntaxError

_KEYWORDS = {"select", "from", "where", "and", "as", "insert", "into",
             "values", "update", "set", "delete"}
_OPS = ("<=", ">=", "=", "<", ">")
#: each comparison operator's test on (stored value, filter value)
COMPARE = {"=": operator.eq, "<": operator.lt, ">": operator.gt,
           "<=": operator.le, ">=": operator.ge}
#: the one range of an int value, in a literal and in a bound value alike
INT64_MIN = -(2 ** 63)
INT64_MAX = 2 ** 63 - 1


@dataclass(frozen=True)
class Placeholder:
    """A positional ``?`` parameter; ``index`` is its 0-based position."""
    index: int

    def __repr__(self):
        return f"?{self.index}"


Value = Union[int, str, Placeholder]


@dataclass(frozen=True)
class AttrRef:
    qualifier: str | None
    name: str

    def __str__(self):
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass(frozen=True)
class JoinCondition:
    left: AttrRef
    right: AttrRef


@dataclass(frozen=True)
class Filter:
    ref: AttrRef
    op: str  # one of = < > <= >=
    value: Value


@dataclass(frozen=True)
class SelectJoin:
    tables: tuple[tuple[str, str], ...]       # (relation, alias)
    projections: tuple[AttrRef, ...] | None   # None means SELECT *
    joins: tuple[JoinCondition, ...]
    filters: tuple[Filter, ...]

    @property
    def alias_map(self) -> dict[str, str]:
        return {alias: rel for rel, alias in self.tables}


@dataclass(frozen=True)
class Insert:
    relation: str
    values: tuple[tuple[str, Value], ...]     # (attribute, literal) pairs

    @property
    def value_map(self) -> dict[str, Value]:
        return dict(self.values)


@dataclass(frozen=True)
class Update:
    relation: str
    alias: str
    assignments: tuple[tuple[str, Value], ...]
    filters: tuple[Filter, ...]


@dataclass(frozen=True)
class Delete:
    relation: str
    alias: str
    filters: tuple[Filter, ...]


Statement = Union[SelectJoin, Insert, Update, Delete]
WriteStatement = (Insert, Update, Delete)


@dataclass
class _Token:
    kind: str   # ident | int | string | op | punct | qmark | end
    text: str
    line: int
    column: int

    @property
    def lowered(self):
        return self.text.lower()


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<string>'(?:[^']|'')*')
  | (?P<int>-?\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><=|>=|=|<|>)
  | (?P<qmark>\?)
  | (?P<punct>[(),.*])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise SqlSyntaxError(f"unexpected character {text[pos]!r}",
                                 line, pos - line_start + 1)
        col = pos - line_start + 1
        kind = m.lastgroup
        value = m.group()
        if kind == "ws":
            nl = value.count("\n")
            if nl:
                line += nl
                line_start = pos + value.rindex("\n") + 1
        else:
            tokens.append(_Token(kind, value, line, col))
        pos = m.end()
    tokens.append(_Token("end", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.n_placeholders = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise SqlSyntaxError(message, tok.line, tok.column)

    def expect_keyword(self, word: str) -> _Token:
        tok = self.peek()
        if tok.kind != "ident" or tok.lowered != word:
            self.error(f"expected {word.upper()}")
        return self.advance()

    def accept_keyword(self, word: str) -> bool:
        tok = self.peek()
        if tok.kind == "ident" and tok.lowered == word:
            self.advance()
            return True
        return False

    def expect_punct(self, ch: str) -> _Token:
        tok = self.peek()
        if tok.kind != "punct" or tok.text != ch:
            self.error(f"expected {ch!r}")
        return self.advance()

    def accept_punct(self, ch: str) -> bool:
        tok = self.peek()
        if tok.kind == "punct" and tok.text == ch:
            self.advance()
            return True
        return False

    def identifier(self, what="identifier") -> str:
        tok = self.peek()
        if tok.kind != "ident" or tok.lowered in _KEYWORDS:
            self.error(f"expected {what}")
        return self.advance().text

    def expect_end(self):
        tok = self.peek()
        if tok.kind != "end":
            self.error(f"unexpected {tok.text!r}")

    # -- grammar -----------------------------------------------------------

    def statement(self) -> Statement:
        tok = self.peek()
        if tok.kind != "ident":
            self.error("expected statement keyword")
        word = tok.lowered
        if word == "select":
            stmt = self.select()
        elif word == "insert":
            stmt = self.insert()
        elif word == "update":
            stmt = self.update()
        elif word == "delete":
            stmt = self.delete()
        else:
            self.error("expected SELECT, INSERT, UPDATE or DELETE")
        self.expect_end()
        return stmt

    def select(self) -> SelectJoin:
        self.expect_keyword("select")
        if self.accept_punct("*"):
            projections = None
        else:
            refs = [self.attr_ref()]
            while self.accept_punct(","):
                refs.append(self.attr_ref())
            projections = tuple(refs)
        self.expect_keyword("from")
        tables = [self.table_ref()]
        while self.accept_punct(","):
            tables.append(self.table_ref())
        aliases = [a for _, a in tables]
        if len(set(aliases)) != len(aliases):
            self.error("duplicate table alias")
        joins, filters = self.where_clause(optional=True)
        stmt = SelectJoin(tuple(tables), projections, joins, filters)
        self._check_refs(stmt, set(aliases))
        check_joins(stmt)
        return stmt

    def insert(self) -> Insert:
        self.expect_keyword("insert")
        self.expect_keyword("into")
        relation = self.identifier("relation name")
        self.expect_punct("(")
        columns = [self.identifier("attribute")]
        while self.accept_punct(","):
            columns.append(self.identifier("attribute"))
        self.expect_punct(")")
        self.expect_keyword("values")
        self.expect_punct("(")
        values = [self.literal_or_placeholder()]
        while self.accept_punct(","):
            values.append(self.literal_or_placeholder())
        self.expect_punct(")")
        if len(columns) != len(values):
            self.error("column/value count mismatch")
        if len(set(columns)) != len(columns):
            self.error("duplicate attribute in insert")
        return Insert(relation, tuple(zip(columns, values)))

    def update(self) -> Update:
        self.expect_keyword("update")
        relation, alias = self.table_ref()
        self.expect_keyword("set")
        assignments = [self.assignment()]
        while self.accept_punct(","):
            assignments.append(self.assignment())
        joins, filters = self.where_clause(optional=False)
        if joins:
            self.error("join condition not allowed in UPDATE")
        stmt = Update(relation, alias, tuple(assignments), filters)
        self._check_refs(stmt, {alias})
        return stmt

    def delete(self) -> Delete:
        self.expect_keyword("delete")
        self.expect_keyword("from")
        relation, alias = self.table_ref()
        joins, filters = self.where_clause(optional=False)
        if joins:
            self.error("join condition not allowed in DELETE")
        stmt = Delete(relation, alias, filters)
        self._check_refs(stmt, {alias})
        return stmt

    def table_ref(self) -> tuple[str, str]:
        relation = self.identifier("relation name")
        if self.accept_keyword("as"):
            return relation, self.identifier("alias")
        tok = self.peek()
        if tok.kind == "ident" and tok.lowered not in _KEYWORDS:
            return relation, self.advance().text
        return relation, relation

    def assignment(self) -> tuple[str, Value]:
        name = self.identifier("attribute")
        tok = self.peek()
        if tok.kind != "op" or tok.text != "=":
            self.error("expected = in assignment")
        self.advance()
        return name, self.literal_or_placeholder()

    def where_clause(self, optional):
        if not self.accept_keyword("where"):
            if optional:
                return (), ()
            self.error("expected WHERE")
        joins: list[JoinCondition] = []
        filters: list[Filter] = []
        while True:
            self.condition(joins, filters)
            if not self.accept_keyword("and"):
                break
        tok = self.peek()
        if tok.kind == "ident" and tok.lowered == "or":
            self.error("OR is not supported")
        return tuple(joins), tuple(filters)

    def condition(self, joins, filters):
        left_tok = self.peek()
        left = self.operand()
        op_tok = self.peek()
        if op_tok.kind != "op":
            self.error("expected comparison operator")
        op = self.advance().text
        right = self.operand()
        lref, rref = isinstance(left, AttrRef), isinstance(right, AttrRef)
        if lref and rref:
            if op != "=":
                self.error("join conditions must use =", op_tok)
            joins.append(JoinCondition(left, right))
        elif lref:
            filters.append(Filter(left, op, right))
        elif rref:
            filters.append(Filter(right, _FLIP[op], left))
        else:
            self.error("condition must reference an attribute", left_tok)

    def operand(self):
        tok = self.peek()
        if tok.kind in ("int", "string", "qmark"):
            return self.literal_or_placeholder()
        if tok.kind == "ident":
            if tok.lowered in _KEYWORDS:
                self.error("unsupported construct")
            return self.attr_ref()
        self.error("expected attribute or literal")

    def attr_ref(self) -> AttrRef:
        first = self.identifier("attribute")
        if self.accept_punct("."):
            return AttrRef(first, self.identifier("attribute"))
        return AttrRef(None, first)

    def literal_or_placeholder(self) -> Value:
        tok = self.advance()
        if tok.kind == "int":
            v = int(tok.text)
            if not INT64_MIN <= v <= INT64_MAX:
                self.error("integer literal outside 64-bit range", tok)
            return v
        if tok.kind == "string":
            return tok.text[1:-1].replace("''", "'")
        if tok.kind == "qmark":
            p = Placeholder(self.n_placeholders)
            self.n_placeholders += 1
            return p
        self.error("expected literal or ?", tok)

    def _check_refs(self, stmt, aliases):
        for ref in statement_refs(stmt):
            if ref.qualifier is not None and ref.qualifier not in aliases:
                raise SqlSyntaxError(f"unknown alias {ref.qualifier!r}", 1, 1)


_FLIP = {"=": "=", "<": ">", ">": "<", "<=": ">=", ">=": "<="}


def statement_refs(stmt: Statement):
    """All attribute references appearing in a statement."""
    refs = []
    if isinstance(stmt, SelectJoin):
        refs.extend(stmt.projections or ())
        for j in stmt.joins:
            refs.append(j.left)
            refs.append(j.right)
        refs.extend(f.ref for f in stmt.filters)
    elif isinstance(stmt, (Update, Delete)):
        refs.extend(f.ref for f in stmt.filters)
    return refs


def check_joins(stmt: SelectJoin) -> None:
    """Refuse a join whose sides two distinct aliases do not qualify: the
    parser's check, and the planner's and rewriter's for a statement built
    in code."""
    for j in stmt.joins:
        if (j.left.qualifier is None or j.right.qualifier is None
                or j.left.qualifier == j.right.qualifier):
            raise SqlSyntaxError("join condition must relate two distinct "
                                 "qualified aliases", 1, 1)


def parse_statement(text: str) -> Statement:
    return _Parser(text).statement()


def parse_workload(text: str) -> list[Statement]:
    """Parse a workload file: one statement per line; a ``#`` outside a
    quoted literal starts a comment."""
    statements = []
    for raw in text.splitlines():
        line = _BEFORE_COMMENT.match(raw).group().strip()
        if line:
            statements.append(parse_statement(line))
    return statements


#: a line up to its first ``#`` outside quotes ('' escapes read as two
#: adjacent literals; an unterminated literal runs to the end of the line)
_BEFORE_COMMENT = re.compile(r"(?:[^'#]|'[^']*'?)*")


def load_workload(path) -> list[Statement]:
    with open(path, encoding="utf-8") as fh:
        return parse_workload(fh.read())


# -- rendering -------------------------------------------------------------

def _render_value(v: Value) -> str:
    if isinstance(v, Placeholder):
        return "?"
    if isinstance(v, str):
        return "'" + v.replace("'", "''") + "'"
    return str(v)


def _render_table(rel: str, alias: str) -> str:
    return rel if alias == rel else f"{rel} AS {alias}"


def _render_conditions(joins, filters) -> str:
    parts = [f"{j.left} = {j.right}" for j in joins]
    parts += [f"{f.ref} {f.op} {_render_value(f.value)}" for f in filters]
    return " AND ".join(parts)


def render_statement(stmt: Statement) -> str:
    """Render a statement to SQL text that re-parses to an equal AST."""
    if isinstance(stmt, SelectJoin):
        proj = "*" if stmt.projections is None else \
            ", ".join(str(r) for r in stmt.projections)
        out = f"SELECT {proj} FROM " + \
            ", ".join(_render_table(r, a) for r, a in stmt.tables)
        conds = _render_conditions(stmt.joins, stmt.filters)
        return f"{out} WHERE {conds}" if conds else out
    if isinstance(stmt, Insert):
        cols = ", ".join(a for a, _ in stmt.values)
        vals = ", ".join(_render_value(v) for _, v in stmt.values)
        return f"INSERT INTO {stmt.relation} ({cols}) VALUES ({vals})"
    if isinstance(stmt, Update):
        sets = ", ".join(f"{a} = {_render_value(v)}"
                         for a, v in stmt.assignments)
        where = _render_conditions((), stmt.filters)
        head = f"UPDATE {_render_table(stmt.relation, stmt.alias)} SET {sets}"
        return f"{head} WHERE {where}" if where else head
    if isinstance(stmt, Delete):
        where = _render_conditions((), stmt.filters)
        head = f"DELETE FROM {_render_table(stmt.relation, stmt.alias)}"
        return f"{head} WHERE {where}" if where else head
    raise TypeError(f"not a statement: {stmt!r}")


# -- parameter binding -----------------------------------------------------

def count_placeholders(stmt: Statement) -> int:
    n = 0
    for v in _statement_values(stmt):
        if isinstance(v, Placeholder):
            n += 1
    return n


def _statement_values(stmt: Statement):
    if isinstance(stmt, SelectJoin):
        return [f.value for f in stmt.filters]
    if isinstance(stmt, Insert):
        return [v for _, v in stmt.values]
    if isinstance(stmt, Update):
        return [v for _, v in stmt.assignments] + \
               [f.value for f in stmt.filters]
    return [f.value for f in stmt.filters]


def bind_params(stmt: Statement, params) -> Statement:
    """Substitute positional parameters for the statement's placeholders."""
    expected = count_placeholders(stmt)
    if expected != len(params):
        raise ValueError(f"statement takes {expected} parameters, "
                         f"got {len(params)}")

    def sub(v: Value) -> Value:
        return params[v.index] if isinstance(v, Placeholder) else v

    def sub_filters(filters):
        return tuple(Filter(f.ref, f.op, sub(f.value)) for f in filters)

    if isinstance(stmt, SelectJoin):
        return SelectJoin(stmt.tables, stmt.projections, stmt.joins,
                          sub_filters(stmt.filters))
    if isinstance(stmt, Insert):
        return Insert(stmt.relation,
                      tuple((a, sub(v)) for a, v in stmt.values))
    if isinstance(stmt, Update):
        return Update(stmt.relation, stmt.alias,
                      tuple((a, sub(v)) for a, v in stmt.assignments),
                      sub_filters(stmt.filters))
    return Delete(stmt.relation, stmt.alias, sub_filters(stmt.filters))
