"""Predicate language over resource, request, response and monitor paths.

The surface syntax is a small OCL-like subset: boolean connectives
(``and``/``or``/``not``/``==>``), comparisons, ``->size()`` and
``.oclIsInvalid()`` calls, integer and quoted string literals, ``True``,
``False`` and the reserved ``clockTime`` symbol.  Evaluation is three-valued
(Kleene K3): missing or invalid values fold into ``UNKNOWN`` instead of
raising.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Callable, Iterator, Optional


# ---------------------------------------------------------------------------
# Paths and values


class Namespace(enum.Enum):
    RESOURCE = "resource"
    REQUEST = "request"
    RESPONSE = "response"
    SELF = "self"


@dataclass(frozen=True)
class Path:
    """A dotted reference such as ``token.expires_at`` or ``request.scope``.

    Resource-definition heads are case-insensitive in the surface syntax and
    are canonicalized to lowercase here, so ``Token.token`` and
    ``token.token`` denote the same path.
    """

    namespace: Namespace
    segments: tuple[str, ...]

    def __str__(self) -> str:
        if self.namespace is Namespace.RESOURCE:
            return ".".join(self.segments)
        return ".".join((self.namespace.value,) + self.segments)

    @property
    def head(self) -> str:
        return self.segments[0] if self.segments else ""


def make_path(segments: list[str]) -> Path:
    head = segments[0]
    if head in ("request", "response", "self"):
        return Path(Namespace(head), tuple(segments[1:]))
    return Path(Namespace.RESOURCE, (head.lower(),) + tuple(segments[1:]))


class Kind(enum.Enum):
    ABSENT = "absent"
    INVALID = "invalid"
    BOOLEAN = "boolean"
    INTEGER = "integer"
    TEXT = "text"
    TIMESTAMP = "timestamp"
    COUNT = "count"
    DOCUMENT = "document"


@dataclass(frozen=True)
class Value:
    kind: Kind
    data: object = None


ABSENT = Value(Kind.ABSENT)
INVALID = Value(Kind.INVALID)


def boolean(b: bool) -> Value:
    return Value(Kind.BOOLEAN, bool(b))


def integer(i: int) -> Value:
    return Value(Kind.INTEGER, int(i))


def text(s: str) -> Value:
    return Value(Kind.TEXT, s)


def timestamp(dt: datetime) -> Value:
    return Value(Kind.TIMESTAMP, dt)


def count(n: int) -> Value:
    if n < 0:
        raise ValueError("count must be non-negative")
    return Value(Kind.COUNT, n)


def document(node: object) -> Value:
    return Value(Kind.DOCUMENT, node)


def parse_timestamp(raw: str) -> Optional[datetime]:
    """Parse an ISO-8601 timestamp, tolerating a trailing ``Z``."""
    s = raw.strip()
    if s.endswith("Z") or s.endswith("z"):
        s = s[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(s)
    except ValueError:
        return None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt


# ---------------------------------------------------------------------------
# Three-valued logic


class TriBool(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"

    def __bool__(self) -> bool:  # guard against accidental truthiness
        raise TypeError("TriBool is not a plain bool; compare explicitly")


TRUE = TriBool.TRUE
FALSE = TriBool.FALSE
UNKNOWN = TriBool.UNKNOWN


def tri_not(v: TriBool) -> TriBool:
    if v is TRUE:
        return FALSE
    if v is FALSE:
        return TRUE
    return UNKNOWN


def tri_and(l: TriBool, r: TriBool) -> TriBool:
    if l is FALSE or r is FALSE:
        return FALSE
    if l is TRUE and r is TRUE:
        return TRUE
    return UNKNOWN


def tri_or(l: TriBool, r: TriBool) -> TriBool:
    if l is TRUE or r is TRUE:
        return TRUE
    if l is FALSE and r is FALSE:
        return FALSE
    return UNKNOWN


def tri_implies(l: TriBool, r: TriBool) -> TriBool:
    return tri_or(tri_not(l), r)


def from_bool(b: bool) -> TriBool:
    return TRUE if b else FALSE


# ---------------------------------------------------------------------------
# AST


class Expression:
    __slots__ = ()


@dataclass(frozen=True)
class And(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Or(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Not(Expression):
    operand: Expression


@dataclass(frozen=True)
class Implies(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Compare(Expression):
    op: str  # one of = <> < <= > >=
    left: Expression
    right: Expression


@dataclass(frozen=True)
class SizeOf(Expression):
    path: Path


@dataclass(frozen=True)
class IsInvalid(Expression):
    path: Path


@dataclass(frozen=True)
class PathRef(Expression):
    path: Path


@dataclass(frozen=True)
class Literal(Expression):
    value: object  # bool, int or str


@dataclass(frozen=True)
class ClockTime(Expression):
    pass


CLOCK_TIME = ClockTime()
LIT_TRUE = Literal(True)
LIT_FALSE = Literal(False)

COMPARE_OPS = ("<=", ">=", "<>", "=", "<", ">")


# ---------------------------------------------------------------------------
# Lexer / parser


class ExprSyntaxError(ValueError):
    """Raised on malformed expression text, with the byte offset and the
    set of tokens that would have been accepted there."""

    def __init__(self, text: str, offset: int, expected: set[str]):
        self.text = text
        self.offset = offset
        self.expected = sorted(expected)
        got = text[offset : offset + 12] or "<end of input>"
        super().__init__(
            f"syntax error at offset {offset}: got {got!r}, "
            f"expected one of {', '.join(self.expected)}"
        )


@dataclass
class _Token:
    kind: str  # ident, int, string, op, lparen, rparen, arrow, end
    value: str
    offset: int


_PUNCTUATION = {"(": "lparen", ")": "rparen", ".": "dot"}
_CONSTANTS = {"True": LIT_TRUE, "False": LIT_FALSE, "clockTime": CLOCK_TIME}


def _tokenize(src: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c in _PUNCTUATION:
            tokens.append(_Token(_PUNCTUATION[c], c, i))
            i += 1
        elif src.startswith("==>", i):
            tokens.append(_Token("op", "==>", i))
            i += 3
        elif src.startswith("->", i):
            tokens.append(_Token("arrow", "->", i))
            i += 2
        elif src.startswith("<=", i) or src.startswith(">=", i) or src.startswith("<>", i):
            tokens.append(_Token("op", src[i : i + 2], i))
            i += 2
        elif c in "=<>":
            tokens.append(_Token("op", c, i))
            i += 1
        elif c == "'":
            j = src.find("'", i + 1)
            if j < 0:
                raise ExprSyntaxError(src, i, {"closing quote"})
            tokens.append(_Token("string", src[i + 1 : j], i))
            i = j + 1
        elif c.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            tokens.append(_Token("int", src[i:j], i))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(_Token("ident", src[i:j], i))
            i = j
        else:
            raise ExprSyntaxError(src, i, {"expression"})
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: set[str]) -> ExprSyntaxError:
        return ExprSyntaxError(self.src, self.peek().offset, expected)

    # expr := or_expr ("==>" or_expr)*      right-associative
    def parse_expr(self) -> Expression:
        parts = [self.parse_or()]
        while self.peek().kind == "op" and self.peek().value == "==>":
            self.advance()
            parts.append(self.parse_or())
        result = parts[-1]
        for part in reversed(parts[:-1]):
            result = Implies(part, result)
        return result

    def parse_or(self) -> Expression:
        left = self.parse_and()
        while self.peek().kind == "ident" and self.peek().value == "or":
            self.advance()
            left = Or(left, self.parse_and())
        return left

    def parse_and(self) -> Expression:
        left = self.parse_unary()
        while self.peek().kind == "ident" and self.peek().value == "and":
            self.advance()
            left = And(left, self.parse_unary())
        return left

    def parse_unary(self) -> Expression:
        tok = self.peek()
        if tok.kind == "ident" and tok.value == "not":
            self.advance()
            return Not(self.parse_unary())
        return self.parse_cmp()

    def parse_cmp(self) -> Expression:
        left = self.parse_term()
        tok = self.peek()
        if tok.kind == "op" and tok.value in COMPARE_OPS:
            self.advance()
            right = self.parse_term()
            return Compare(tok.value, left, right)
        return left

    def parse_term(self) -> Expression:
        tok = self.peek()
        if tok.kind == "lparen":
            self.advance()
            inner = self.parse_expr()
            if self.peek().kind != "rparen":
                raise self.fail({")"})
            self.advance()
            return inner
        if tok.kind == "int":
            self.advance()
            return Literal(int(tok.value))
        if tok.kind == "string":
            self.advance()
            return Literal(tok.value)
        if tok.kind == "ident":
            if tok.value in _CONSTANTS:
                self.advance()
                return _CONSTANTS[tok.value]
            if tok.value in ("and", "or", "not"):
                raise self.fail({"term"})
            return self.parse_path_term()
        raise self.fail({"(", "literal", "clockTime", "path"})

    def parse_path_term(self) -> Expression:
        segments = [self.advance().value]
        call: Optional[str] = None
        while True:
            tok = self.peek()
            if tok.kind == "dot" or tok.kind == "arrow":
                nxt = self.tokens[self.pos + 1]
                if nxt.kind != "ident":
                    raise self.fail({"identifier"})
                # a trailing size()/oclIsInvalid() call ends the path
                if nxt.value in ("size", "oclIsInvalid"):
                    after = self.tokens[self.pos + 2]
                    if after.kind == "lparen":
                        self.advance()  # dot/arrow
                        self.advance()  # callname
                        self.advance()  # (
                        if self.peek().kind != "rparen":
                            raise self.fail({")"})
                        self.advance()
                        call = nxt.value
                        break
                if tok.kind == "arrow":
                    raise self.fail({"size()", "oclIsInvalid()"})
                self.advance()
                segments.append(self.advance().value)
            else:
                break
        path = make_path(segments)
        if call == "size":
            return SizeOf(path)
        if call == "oclIsInvalid":
            return IsInvalid(path)
        return PathRef(path)


def parse_expression(src: str) -> Expression:
    parser = _Parser(src)
    expr = parser.parse_expr()
    if parser.peek().kind != "end":
        raise parser.fail({"end of input", "operator"})
    return expr


# ---------------------------------------------------------------------------
# Printer

_ATOM_PREC = 5  # binding strength: ==> 1, or 2, and 3, not 4, any other node 5


def to_text(e: Expression) -> str:
    """Deterministic rendering; ``parse_expression(to_text(e))`` round-trips."""
    return _print(e, 0)


def _print(e: Expression, parent: int) -> str:
    """``e`` printed, in parentheses when it binds more loosely than
    ``parent``; ==> groups to the right, and/or to the left."""
    prec = _ATOM_PREC
    if isinstance(e, Implies):
        prec, s = 1, f"{_print(e.left, 2)} ==> {_print(e.right, 1)}"
    elif isinstance(e, Or):
        prec, s = 2, f"{_print(e.left, 2)} or {_print(e.right, 3)}"
    elif isinstance(e, And):
        prec, s = 3, f"{_print(e.left, 3)} and {_print(e.right, 4)}"
    elif isinstance(e, Not):
        prec, s = 4, f"not {_print(e.operand, 4)}"
    elif isinstance(e, Compare):
        s = f"{_print(e.left, prec)}{e.op}{_print(e.right, prec)}"
    elif isinstance(e, SizeOf):
        s = f"{e.path}->size()"
    elif isinstance(e, IsInvalid):
        s = f"{e.path}.oclIsInvalid()"
    elif isinstance(e, PathRef):
        s = str(e.path)
    elif isinstance(e, Literal):  # True, False, an integer or a quoted string
        s = f"'{e.value}'" if isinstance(e.value, str) else str(e.value)
    elif isinstance(e, ClockTime):
        s = "clockTime"
    else:
        raise TypeError(f"unknown expression node {e!r}")
    return f"({s})" if prec < parent else s


# ---------------------------------------------------------------------------
# Environment and evaluation


class Environment:
    """Single-use binding context for one evaluation pass.

    ``resolver`` maps Path -> Value; lookups are cached so each path is
    resolved at most once.  In the post phase an optional ``snapshot``
    supplies pre-execution values for paths evaluated inside implication
    antecedents.
    """

    def __init__(
        self,
        resolver: Callable[[Path], Value],
        now: datetime,
        phase: str = "pre",
        snapshot: Optional[dict[Path, Value]] = None,
    ):
        self.resolver = resolver
        self.now = now
        self.phase = phase
        self.snapshot = snapshot or {}
        self._cache: dict[Path, Value] = {}

    def lookup(self, path: Path, antecedent: bool = False) -> Value:
        if antecedent and path in self.snapshot:
            return self.snapshot[path]
        if path not in self._cache:
            try:
                self._cache[path] = self.resolver(path)
            except Exception:
                # resolver failures fold into Invalid (fail-closed)
                self._cache[path] = INVALID
        return self._cache[path]


def evaluate(e: Expression, env: Environment) -> TriBool:
    return _eval(e, env, antecedent=False)


def _eval(e: Expression, env: Environment, antecedent: bool) -> TriBool:
    if isinstance(e, And):
        return tri_and(_eval(e.left, env, antecedent), _eval(e.right, env, antecedent))
    if isinstance(e, Or):
        return tri_or(_eval(e.left, env, antecedent), _eval(e.right, env, antecedent))
    if isinstance(e, Not):
        return tri_not(_eval(e.operand, env, antecedent))
    if isinstance(e, Implies):
        return tri_implies(_eval(e.left, env, antecedent=True), _eval(e.right, env, antecedent))
    if isinstance(e, Compare):
        return _eval_compare(e, env, antecedent)
    if isinstance(e, IsInvalid):
        v = env.lookup(e.path, antecedent)
        return from_bool(v.kind in (Kind.ABSENT, Kind.INVALID))
    # paths and literals read as booleans; sizes and clockTime are Unknown
    return _truth_of(_operand_value(e, env, antecedent))


def _truth_of(v: Value) -> TriBool:
    if v.kind is Kind.BOOLEAN:
        return from_bool(v.data)
    return UNKNOWN


def _literal_value(e: Literal) -> Value:
    if isinstance(e.value, bool):
        return boolean(e.value)
    if isinstance(e.value, int):
        return integer(e.value)
    return text(e.value)


def _size(v: Value) -> Value:
    """Absent has no elements; an Invalid value has no known size."""
    if v.kind is Kind.INVALID:
        return INVALID
    if v.kind is Kind.ABSENT:
        return integer(0)
    if v.kind is Kind.COUNT:
        return integer(v.data)
    return integer(1)


def _operand_value(e: Expression, env: Environment, antecedent: bool) -> Value:
    if isinstance(e, PathRef):
        return env.lookup(e.path, antecedent)
    if isinstance(e, Literal):
        return _literal_value(e)
    if isinstance(e, SizeOf):
        return _size(env.lookup(e.path, antecedent))
    if isinstance(e, ClockTime):
        return timestamp(env.now)
    return INVALID


_NUMERIC = (Kind.INTEGER, Kind.COUNT)


def _eval_compare(e: Compare, env: Environment, antecedent: bool) -> TriBool:
    lv = _operand_value(e.left, env, antecedent)
    rv = _operand_value(e.right, env, antecedent)
    if lv.kind in (Kind.ABSENT, Kind.INVALID) or rv.kind in (Kind.ABSENT, Kind.INVALID):
        return UNKNOWN
    lk, rk = lv.kind, rv.kind
    # coerce ISO text against a timestamp so probe strings compare by time
    if lk is Kind.TIMESTAMP and rk is Kind.TEXT:
        parsed = parse_timestamp(rv.data)
        if parsed is not None:
            rv, rk = timestamp(parsed), Kind.TIMESTAMP
    elif rk is Kind.TIMESTAMP and lk is Kind.TEXT:
        parsed = parse_timestamp(lv.data)
        if parsed is not None:
            lv, lk = timestamp(parsed), Kind.TIMESTAMP
    comparable = (
        lk is rk
        or (lk in _NUMERIC and rk in _NUMERIC)
    )
    if not comparable:
        # values of different kinds are decidably unequal; ordering between
        # them is undefined
        if e.op == "=":
            return FALSE
        if e.op == "<>":
            return TRUE
        return UNKNOWN
    l, r = lv.data, rv.data
    if e.op == "=":
        return from_bool(l == r)
    if e.op == "<>":
        return from_bool(l != r)
    if lk in (Kind.BOOLEAN, Kind.DOCUMENT) or rk in (Kind.BOOLEAN, Kind.DOCUMENT):
        return UNKNOWN  # no ordering on booleans or documents
    if e.op == "<":
        return from_bool(l < r)
    if e.op == "<=":
        return from_bool(l <= r)
    if e.op == ">":
        return from_bool(l > r)
    if e.op == ">=":
        return from_bool(l >= r)
    raise ValueError(f"unknown comparison operator {e.op!r}")


# ---------------------------------------------------------------------------
# Path analysis


def _walk(e: Expression) -> Iterator[Expression]:
    yield e
    if isinstance(e, (And, Or, Implies)):
        yield from _walk(e.left)
        yield from _walk(e.right)
    elif isinstance(e, Not):
        yield from _walk(e.operand)
    elif isinstance(e, Compare):
        yield from _walk(e.left)
        yield from _walk(e.right)


def free_paths(e: Expression) -> set[Path]:
    """All paths syntactically present in the expression."""
    paths: set[Path] = set()
    for node in _walk(e):
        if isinstance(node, (SizeOf, IsInvalid, PathRef)):
            paths.add(node.path)
    return paths


def antecedent_paths(e: Expression) -> set[Path]:
    """Paths whose values must be captured before execution: every path under
    an implication antecedent, plus paths in unconditional conjuncts."""
    paths: set[Path] = set()
    _collect_antecedents(e, paths, under_consequent=False)
    return paths


def _collect_antecedents(e: Expression, out: set[Path], under_consequent: bool) -> None:
    if isinstance(e, Implies):
        out.update(free_paths(e.left))
        _collect_antecedents(e.right, out, under_consequent=True)
    elif isinstance(e, (And, Or)):
        _collect_antecedents(e.left, out, under_consequent)
        _collect_antecedents(e.right, out, under_consequent)
    elif isinstance(e, Not):
        _collect_antecedents(e.operand, out, under_consequent)
    elif not under_consequent:
        out.update(free_paths(e))


# ---------------------------------------------------------------------------
# Conjunct handling and simplification


def conjuncts(e: Expression) -> list[Expression]:
    """Flatten nested And nodes into a list of top-level conjuncts."""
    if isinstance(e, And):
        return conjuncts(e.left) + conjuncts(e.right)
    return [e]


def conjoin(parts: list[Expression]) -> Expression:
    return functools.reduce(And, parts) if parts else LIT_TRUE


def disjoin(parts: list[Expression]) -> Expression:
    return functools.reduce(Or, parts) if parts else LIT_FALSE


def transform(e: Expression, fn: Callable[[Expression], Expression]) -> Expression:
    """Rebuild ``e`` bottom-up: the operands of And/Or/Implies/Not are
    transformed first, then ``fn`` is applied to the rebuilt node.  Leaves
    and comparisons are passed to ``fn`` whole."""
    if isinstance(e, (And, Or, Implies)):
        e = type(e)(transform(e.left, fn), transform(e.right, fn))
    elif isinstance(e, Not):
        e = Not(transform(e.operand, fn))
    return fn(e)


def _is_lit_true(e: Expression) -> bool:
    return isinstance(e, Literal) and e.value is True


def elide_true(e: Expression) -> Expression:
    """Drop Literal-True operands of conjunctions; the only simplification
    applied to derived contracts."""

    def drop(node: Expression) -> Expression:
        if isinstance(node, And):
            if _is_lit_true(node.left):
                return node.right
            if _is_lit_true(node.right):
                return node.left
        return node

    return transform(e, drop)
