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
import operator
import re
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


RESERVED_HEADS = frozenset(ns.value for ns in Namespace if ns is not Namespace.RESOURCE)


def make_path(segments: list[str]) -> Path:
    head = segments[0]
    if head in RESERVED_HEADS:
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

# The grammar's facts, each stated once: the comparison operators with their
# meaning, the connectives and comparisons with their binding strength (any
# other node is a term, which binds tightest), each compound node's operand
# fields and each connective's Kleene table.
COMPARE_OPS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
ORDERING_OPS = frozenset(COMPARE_OPS) - {"=", "<>"}
_CONNECTIVES = {"==>": (Implies, 1), "or": (Or, 2), "and": (And, 3), "not": (Not, 4)}
_PRECEDENCE = {node: (word, prec) for word, (node, prec) in _CONNECTIVES.items()}
_PRECEDENCE[Compare] = ("", 5)
_BINARY = {word: np for word, np in _CONNECTIVES.items() if np[0] is not Not}
_OPERANDS = {And: ("left", "right"), Or: ("left", "right"), Implies: ("left", "right"),
             Not: ("operand",), Compare: ("left", "right")}
_K3 = {And: tri_and, Or: tri_or, Implies: tri_implies, Not: tri_not}


def _operand_precs(node: type, prec: int) -> tuple[int, int]:
    """The binding strength a binary node asks of its left and right
    operands: ==> groups to the right, and/or to the left, a comparison not
    at all (its operands are terms)."""
    return {Implies: (prec + 1, prec), Compare: (prec + 1, prec + 1)}.get(node, (prec, prec + 1))


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


_PUNCTUATION = sorted({"==>", "->", "(", ")", "."} | set(COMPARE_OPS), key=lambda p: (-len(p), p))
# One token after optional whitespace.  An int is what int() reads (\d, not
# str.isdigit); an identifier starts with a letter or "_", checked in
# _tokenize because \w also holds digits such as "²".  ``bad`` matches
# wherever nothing else does.
_TOKEN = re.compile(
    r"\s*(?:(?P<op>" + "|".join(map(re.escape, _PUNCTUATION)) + r")"
    r"|(?P<string>'[^']*')|(?P<int>\d+)|(?P<ident>\w+)|(?P<end>\Z)|(?P<bad>))"
)
_CONSTANTS = {"True": LIT_TRUE, "False": LIT_FALSE, "clockTime": CLOCK_TIME}
_CALLS = {"size": SizeOf, "oclIsInvalid": IsInvalid}


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    """``(kind, text, offset)`` for each token, the last of kind ``end``."""
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while not tokens or tokens[-1][0] != "end":
        match = _TOKEN.match(src, pos)
        kind = match.lastgroup
        offset = match.start(kind)
        if kind == "bad" or (
            kind == "ident" and not (src[offset].isalpha() or src[offset] == "_")
        ):
            raise ExprSyntaxError(
                src, offset, {"closing quote" if src.startswith("'", offset) else "expression"}
            )
        tokens.append((kind, match[kind], offset))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0

    def text(self, ahead: int = 0) -> str:
        return self.tokens[self.pos + ahead][1]

    def advance(self) -> str:
        self.pos += 1
        return self.tokens[self.pos - 1][1]

    def expect(self, text: str) -> None:
        if self.text() != text:
            raise self.fail({text})
        self.advance()

    def fail(self, expected: set[str]) -> ExprSyntaxError:
        return ExprSyntaxError(self.src, self.tokens[self.pos][2], expected)

    def parse_expr(self, min_prec: int = 1) -> Expression:
        """Binary connectives binding at least ``min_prec``, by precedence
        climbing."""
        left = self.parse_unary()
        while (found := _BINARY.get(self.text())) is not None and found[1] >= min_prec:
            node, prec = found
            self.advance()
            left = node(left, self.parse_expr(_operand_precs(node, prec)[1]))
        return left

    def parse_unary(self) -> Expression:
        if self.text() == "not":
            self.advance()
            return Not(self.parse_unary())
        left = self.parse_term()
        if self.text() in COMPARE_OPS:
            op = self.advance()
            return Compare(op, left, self.parse_term())
        return left

    def parse_term(self) -> Expression:
        kind, text, _ = self.tokens[self.pos]
        if text == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if kind == "int" or kind == "string":
            self.advance()
            return Literal(int(text) if kind == "int" else text[1:-1])
        if kind == "ident":
            if text in _CONSTANTS:
                self.advance()
                return _CONSTANTS[text]
            if text in _CONNECTIVES:
                raise self.fail({"term"})
            return self.parse_path_term()
        raise self.fail({"(", "literal", "clockTime", "path"})

    def parse_path_term(self) -> Expression:
        segments = [self.advance()]
        while self.text() in (".", "->"):
            if self.tokens[self.pos + 1][0] != "ident":
                raise self.fail({"identifier"})
            # a trailing size()/oclIsInvalid() call ends the path
            if self.text(1) in _CALLS and self.text(2) == "(":
                self.advance()
                call = _CALLS[self.advance()]
                self.advance()
                self.expect(")")
                return call(make_path(segments))
            if self.text() == "->":
                raise self.fail({"size()", "oclIsInvalid()"})
            self.advance()
            segments.append(self.advance())
        return PathRef(make_path(segments))


def parse_expression(src: str) -> Expression:
    parser = _Parser(src)
    expr = parser.parse_expr()
    if parser.tokens[parser.pos][0] != "end":
        raise parser.fail({"end of input", "operator"})
    return expr


# ---------------------------------------------------------------------------
# Printer


def to_text(e: Expression) -> str:
    """Deterministic rendering; ``parse_expression(to_text(e))`` round-trips."""
    return _print(e, 0)


_LEAF_TEXT = {
    SizeOf: lambda e: f"{e.path}->size()",
    IsInvalid: lambda e: f"{e.path}.oclIsInvalid()",
    PathRef: lambda e: str(e.path),
    Literal: lambda e: f"'{e.value}'" if isinstance(e.value, str) else str(e.value),
    ClockTime: lambda e: "clockTime",
}


def _print(e: Expression, parent: int) -> str:
    """``e`` printed, in parentheses when it binds more loosely than
    ``parent``."""
    node = type(e)
    if node not in _OPERANDS:
        return _LEAF_TEXT[node](e)
    word, prec = _PRECEDENCE[node]
    if len(_OPERANDS[node]) == 1:
        s = f"{word} {_print(e.operand, prec)}"
    else:
        left, right = _operand_precs(node, prec)
        s = f"{_print(e.left, left)}{f' {word} ' if word else e.op}{_print(e.right, right)}"
    return f"({s})" if prec < parent else s


# ---------------------------------------------------------------------------
# Environment and evaluation


class Environment:
    """Single-use binding context for one evaluation pass.

    ``resolver`` maps Path -> Value; lookups are cached so each path is
    resolved at most once.  In the post phase an optional ``snapshot``
    supplies pre-execution values for paths evaluated inside implication
    antecedents.  ``phase`` is accepted for old callers and ignored.
    """

    def __init__(
        self,
        resolver: Callable[[Path], Value],
        now: datetime,
        phase: object = None,
        snapshot: Optional[dict[Path, Value]] = None,
    ):
        self.resolver = resolver
        self.now = now
        self.snapshot = snapshot or {}
        self._cache: dict[Path, Value] = {}

    def lookup(self, path: Path, antecedent: bool = False) -> Value:
        # one dict read each: a stored Value is never None
        value = self.snapshot.get(path) if antecedent else None
        if value is None:
            value = self._cache.get(path)
        if value is None:
            try:
                value = self.resolver(path)
            except Exception:
                # resolver failures fold into Invalid (fail-closed)
                value = INVALID
            self._cache[path] = value
        return value


def evaluate(e: Expression, env: Environment, antecedent: bool = False) -> TriBool:
    """The truth of ``e``; with ``antecedent``, paths read the snapshot as
    they do under an implication's antecedent."""
    return _eval(e, env, antecedent)


def _eval(e: Expression, env: Environment, antecedent: bool) -> TriBool:
    node = type(e)
    k3 = _K3.get(node)
    if k3 is tri_not:
        return tri_not(_eval(e.operand, env, antecedent))
    if k3 is not None:  # an implication's antecedent reads the snapshot
        left = _eval(e.left, env, antecedent or k3 is tri_implies)
        return k3(left, _eval(e.right, env, antecedent))
    if node is Compare:
        return _eval_compare(e, env, antecedent)
    if node is IsInvalid:
        v = env.lookup(e.path, antecedent)
        return from_bool(v.kind in (Kind.ABSENT, Kind.INVALID))
    # paths and literals read as booleans; sizes and clockTime are Unknown
    return _truth_of(_value(e, env, antecedent))


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


def _value(e: Expression, env: Environment, antecedent: bool) -> Value:
    """A term's value.  Any other operand is a formula and reads as its
    truth: a boolean, or Invalid when it is Unknown."""
    node = type(e)
    if node is PathRef:
        return env.lookup(e.path, antecedent)
    if node is Literal:
        return _literal_value(e)
    if node is SizeOf:
        return _size(env.lookup(e.path, antecedent))
    if node is ClockTime:
        return timestamp(env.now)
    truth = _eval(e, env, antecedent)
    return INVALID if truth is UNKNOWN else boolean(truth is TRUE)


_NUMERIC = (Kind.INTEGER, Kind.COUNT)


def _eval_compare(e: Compare, env: Environment, antecedent: bool) -> TriBool:
    lv = _value(e.left, env, antecedent)
    rv = _value(e.right, env, antecedent)
    if lv.kind in (Kind.ABSENT, Kind.INVALID) or rv.kind in (Kind.ABSENT, Kind.INVALID):
        return UNKNOWN
    # coerce ISO text against a timestamp so probe strings compare by time
    if lv.kind is Kind.TIMESTAMP and rv.kind is Kind.TEXT:
        rv = _as_timestamp(rv)
    elif rv.kind is Kind.TIMESTAMP and lv.kind is Kind.TEXT:
        lv = _as_timestamp(lv)
    lk, rk = lv.kind, rv.kind
    comparable = lk is rk or (lk in _NUMERIC and rk in _NUMERIC)
    if e.op in ORDERING_OPS:
        # no ordering between kinds, nor on booleans or documents
        if not comparable or lk in (Kind.BOOLEAN, Kind.DOCUMENT):
            return UNKNOWN
    elif not comparable:
        return from_bool(e.op == "<>")  # values of different kinds are unequal
    return from_bool(COMPARE_OPS[e.op](lv.data, rv.data))


def _as_timestamp(v: Value) -> Value:
    """Text read as a timestamp; unparseable text stays text."""
    parsed = parse_timestamp(v.data)
    return v if parsed is None else timestamp(parsed)


# ---------------------------------------------------------------------------
# Path analysis


def _walk(e: Expression) -> Iterator[Expression]:
    yield e
    for field in _OPERANDS.get(type(e), ()):
        yield from _walk(getattr(e, field))


def free_paths(e: Expression) -> set[Path]:
    """All paths syntactically present in the expression."""
    return {node.path for node in _walk(e) if isinstance(node, (SizeOf, IsInvalid, PathRef))}


def antecedent_paths(e: Expression) -> set[Path]:
    """Paths whose values must be captured before execution: every path under
    an implication antecedent, plus paths in unconditional conjuncts."""
    paths: set[Path] = set()
    pending = [(e, False)]
    while pending:
        node, under_consequent = pending.pop()
        if type(node) is Implies:
            paths |= free_paths(node.left)
            pending.append((node.right, True))
        elif type(node) in _K3:
            pending += [(getattr(node, f), under_consequent) for f in _OPERANDS[type(node)]]
        elif not under_consequent:
            paths |= free_paths(node)
    return paths


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
    node = type(e)
    if node in _K3:
        e = node(*(transform(getattr(e, f), fn) for f in _OPERANDS[node]))
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
