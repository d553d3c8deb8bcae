"""Declarative resource + state-machine model: types, loader, validation and
URI route derivation.

Models are loaded from a line-oriented UTF-8 document:

    resource <name> [collection]
      attr <name>: <type> [id]
    assoc <source> -> <target> as <role_name> [<min>..<max|*>]
    state <name>: <expression>
    transition <id>: <source> -> <target> on <METHOD> <uri_template>
        [guard: <expr>] [effect: <expr>] [actor: <role>]
    rule <id> on <METHOD> <uri_template>: if <expr> then <expr>
    rule <id> on <METHOD> <uri_template>: always <expr>
    bind <resource.attr> from <request|token> <json.path>

Comments start with ``#``.  A resource whose name starts with ``collection_``
is treated as a collection even without the explicit flag.  The first
declared resource is the model root; the first declared state is initial.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from . import expr as E

ATTRIBUTE_TYPES = ("string", "integer", "boolean", "timestamp", "document")
SIDE_EFFECT_METHODS = ("PUT", "POST", "DELETE")

_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_ROLE_SEGMENT_RE = re.compile(r"^[a-z0-9_-]+$")

UNBOUNDED = -1  # max_card sentinel for 0..*


class ModelError(ValueError):
    """Raised when a model document cannot be loaded."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Attribute:
    name: str
    type: str


@dataclass(frozen=True)
class ResourceDefinition:
    name: str
    kind: str  # "normal" | "collection"
    attributes: tuple[Attribute, ...] = ()
    id_attribute: Optional[str] = None

    @property
    def is_collection(self) -> bool:
        return self.kind == "collection"

    def attribute(self, name: str) -> Optional[Attribute]:
        for attr in self.attributes:
            if attr.name == name:
                return attr
        return None


@dataclass(frozen=True)
class Association:
    source: str
    target: str
    role_name: str
    min_card: int = 0
    max_card: int = UNBOUNDED  # UNBOUNDED means *


@dataclass(frozen=True)
class Binding:
    """Resolution hint: a resource attribute path supplied by the request
    payload or by the validated-token representation instead of a probe."""

    path: E.Path
    source: str  # "request" | "token"
    json_path: tuple[str, ...]


@dataclass(frozen=True)
class ResourceModel:
    definitions: tuple[ResourceDefinition, ...]
    associations: tuple[Association, ...]
    root: str
    bindings: tuple[Binding, ...] = ()

    def definition(self, name: str) -> Optional[ResourceDefinition]:
        lowered = name.lower()
        for d in self.definitions:
            if d.name.lower() == lowered:
                return d
        return None


@dataclass(frozen=True)
class State:
    name: str
    invariant: E.Expression


@dataclass(frozen=True)
class Transition:
    id: str
    source: str
    target: str
    http_method: str
    uri_template: str
    guard: Optional[E.Expression] = None
    effect: Optional[E.Expression] = None
    actor_role: Optional[str] = None


@dataclass(frozen=True)
class BehavioralModel:
    states: tuple[State, ...]
    transitions: tuple[Transition, ...]
    initial: str

    def state(self, name: str) -> Optional[State]:
        for s in self.states:
            if s.name == name:
                return s
        return None


@dataclass(frozen=True)
class SecurityRule:
    id: str
    http_method: str
    uri_template: str
    kind: str  # "conditional" | "unconditional"
    if_expr: Optional[E.Expression] = None
    then_expr: Optional[E.Expression] = None
    rule_expr: Optional[E.Expression] = None


@dataclass(frozen=True)
class RouteEntry:
    uri_template: str
    definition: str
    allowed_methods: frozenset[str]

    @cached_property
    def segments(self) -> tuple[str, ...]:
        """The template's non-empty segments, split once."""
        return tuple(s for s in self.uri_template.split("/") if s)


@dataclass(frozen=True)
class RouteTable:
    entries: tuple[RouteEntry, ...]

    def match(self, path: str) -> Optional[tuple[RouteEntry, dict[str, str]]]:
        """Match a concrete request path against the templates; returns the
        entry and extracted path parameters.  A query string is not part of
        the path, and empty segments are ignored."""
        segments = [s for s in path.split("?", 1)[0].split("/") if s]
        for entry in self.entries:
            if len(entry.segments) != len(segments):
                continue
            params: dict[str, str] = {}
            for tseg, seg in zip(entry.segments, segments):
                if tseg.startswith("{") and tseg.endswith("}"):
                    params[tseg[1:-1]] = seg
                elif tseg != seg:
                    break
            else:
                return entry, params
        return None

    def for_definition(self, name: str) -> Optional[RouteEntry]:
        lowered = name.lower()
        for entry in self.entries:
            if entry.definition.lower() == lowered:
                return entry
        return None


# ---------------------------------------------------------------------------
# Document loading


_TRANSITION_RE = re.compile(
    r"^(?P<id>\S+)\s*:\s*(?P<source>\S+)\s*->\s*(?P<target>\S+)\s+on\s+"
    r"(?P<method>[A-Z]+)\s+(?P<uri>\S+)"
    r"(?:\s+guard:\s*(?P<guard>.*?))?"
    r"(?:\s+effect:\s*(?P<effect>.*?))?"
    r"(?:\s+actor:\s*(?P<actor>\S+))?\s*$"
)

_RULE_RE = re.compile(
    r"^(?P<id>\S+)\s+on\s+(?P<method>[A-Z]+)\s+(?P<uri>\S+)\s*:\s*"
    r"(?:if\s+(?P<if>.*?)\s+then\s+(?P<then>.*)|always\s+(?P<always>.*))$"
)

_ASSOC_RE = re.compile(
    r"^(?P<source>\S+)\s*->\s*(?P<target>\S+)\s+as\s+(?P<role>\S+)"
    r"(?:\s+(?P<min>\d+)\.\.(?P<max>\d+|\*))?\s*$"
)

_BIND_RE = re.compile(
    r"^(?P<path>\S+)\s+from\s+(?P<source>request|token)\s+(?P<json>\S+)\s*$"
)


def load_model(
    document: bytes | str,
) -> tuple[ResourceModel, BehavioralModel, list[SecurityRule]]:
    if isinstance(document, bytes):
        document = document.decode("utf-8")

    definitions: list[ResourceDefinition] = []
    associations: list[Association] = []
    bindings: list[Binding] = []
    states: list[State] = []
    transitions: list[Transition] = []
    rules: list[SecurityRule] = []

    current: Optional[dict] = None  # resource under construction

    def finish_resource() -> None:
        nonlocal current
        if current is None:
            return
        definitions.append(
            ResourceDefinition(
                name=current["name"],
                kind=current["kind"],
                attributes=tuple(current["attrs"]),
                id_attribute=current["id_attr"],
            )
        )
        current = None

    for lineno, raw in enumerate(document.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        stripped = line.strip()
        if not stripped:
            continue
        keyword, _, rest = stripped.partition(" ")
        rest = rest.strip()

        if keyword == "resource":
            finish_resource()
            parts = rest.split()
            if not parts:
                raise ModelError("resource requires a name", lineno)
            name = parts[0]
            if not _IDENT_RE.match(name):
                raise ModelError(f"invalid resource name {name!r}", lineno)
            is_collection = "collection" in parts[1:] or name.startswith("collection_")
            current = {
                "name": name,
                "kind": "collection" if is_collection else "normal",
                "attrs": [],
                "id_attr": None,
            }
        elif keyword == "attr":
            if current is None:
                raise ModelError("attr outside a resource block", lineno)
            m = re.match(r"^(\S+)\s*:\s*(\S+)(\s+id)?\s*$", rest)
            if not m:
                raise ModelError(f"malformed attr line: {stripped!r}", lineno)
            attr_name, attr_type, id_flag = m.group(1), m.group(2), m.group(3)
            if attr_type not in ATTRIBUTE_TYPES:
                raise ModelError(
                    f"unknown attribute type {attr_type!r} "
                    f"(expected one of {', '.join(ATTRIBUTE_TYPES)})",
                    lineno,
                )
            current["attrs"].append(Attribute(attr_name, attr_type))
            if id_flag or (attr_name == "id" and current["id_attr"] is None):
                current["id_attr"] = attr_name
        elif keyword == "assoc":
            finish_resource()
            m = _ASSOC_RE.match(rest)
            if not m:
                raise ModelError(f"malformed assoc line: {stripped!r}", lineno)
            min_card = int(m.group("min")) if m.group("min") else 0
            max_raw = m.group("max")
            max_card = UNBOUNDED if (max_raw is None or max_raw == "*") else int(max_raw)
            associations.append(
                Association(
                    source=m.group("source"),
                    target=m.group("target"),
                    role_name=m.group("role"),
                    min_card=min_card,
                    max_card=max_card,
                )
            )
        elif keyword == "state":
            finish_resource()
            name, sep, invariant_src = rest.partition(":")
            if not sep:
                raise ModelError("state requires ': <expression>'", lineno)
            invariant = _parse(invariant_src, lineno)
            states.append(State(name.strip(), invariant))
        elif keyword == "transition":
            finish_resource()
            m = _TRANSITION_RE.match(rest)
            if not m:
                raise ModelError(f"malformed transition line: {stripped!r}", lineno)
            method = m.group("method")
            if method not in SIDE_EFFECT_METHODS:
                raise ModelError(
                    f"transition {m.group('id')!r} triggered by {method}: only "
                    f"side-effect methods ({', '.join(SIDE_EFFECT_METHODS)}) may "
                    "trigger transitions",
                    lineno,
                )
            transitions.append(
                Transition(
                    id=m.group("id"),
                    source=m.group("source"),
                    target=m.group("target"),
                    http_method=method,
                    uri_template=m.group("uri"),
                    guard=_parse(m.group("guard"), lineno) if m.group("guard") else None,
                    effect=_parse(m.group("effect"), lineno) if m.group("effect") else None,
                    actor_role=m.group("actor"),
                )
            )
        elif keyword == "rule":
            finish_resource()
            m = _RULE_RE.match(rest)
            if not m:
                raise ModelError(f"malformed rule line: {stripped!r}", lineno)
            rules.append(
                SecurityRule(
                    id=m.group("id"),
                    http_method=m.group("method"),
                    uri_template=m.group("uri"),
                    kind="conditional" if m.group("always") is None else "unconditional",
                    if_expr=_parse(m.group("if"), lineno),
                    then_expr=_parse(m.group("then"), lineno),
                    rule_expr=_parse(m.group("always"), lineno),
                )
            )
        elif keyword == "bind":
            finish_resource()
            m = _BIND_RE.match(rest)
            if not m:
                raise ModelError(f"malformed bind line: {stripped!r}", lineno)
            segments = m.group("path").split(".")
            if len(segments) < 2 or segments[0] in E.RESERVED_HEADS:
                raise ModelError("bind path must be <resource>.<attribute>", lineno)
            bindings.append(
                Binding(
                    path=E.make_path(segments),
                    source=m.group("source"),
                    json_path=tuple(m.group("json").split(".")),
                )
            )
        else:
            raise ModelError(f"unknown directive {keyword!r}", lineno)

    finish_resource()

    if not definitions:
        raise ModelError("empty resource model")
    if not states and transitions:
        raise ModelError("transitions declared without states")

    rm = ResourceModel(
        definitions=tuple(definitions),
        associations=tuple(associations),
        root=definitions[0].name,
        bindings=tuple(bindings),
    )
    bm = BehavioralModel(
        states=tuple(states),
        transitions=tuple(transitions),
        initial=states[0].name if states else "",
    )

    dangling = _dangling_references(rm, bm)
    if dangling:
        raise ModelError(f"unknown reference: {dangling[0]}")
    return rm, bm, rules


def _parse(src: Optional[str], lineno: int) -> Optional[E.Expression]:
    """The expression ``src``; None when there is no ``src``."""
    if src is None:
        return None
    try:
        return E.parse_expression(src)
    except E.ExprSyntaxError as exc:
        raise ModelError(f"in expression {src.strip()!r}: {exc}", lineno) from exc


def _dangling_references(rm: ResourceModel, bm: BehavioralModel) -> list[str]:
    names = {d.name for d in rm.definitions}
    out = []
    for assoc in rm.associations:
        if assoc.source not in names:
            out.append(assoc.source)
        if assoc.target not in names:
            out.append(assoc.target)
    state_names = {s.name for s in bm.states}
    for t in bm.transitions:
        if t.source not in state_names:
            out.append(t.source)
        if t.target not in state_names:
            out.append(t.target)
    return out


# ---------------------------------------------------------------------------
# Validation


def validate_model(
    rm: ResourceModel, bm: BehavioralModel, rules: list[SecurityRule]
) -> list[str]:
    diags: list[str] = []

    names = [d.name for d in rm.definitions]
    if len(set(names)) != len(names):
        diags.append("duplicate resource definition names")

    for d in rm.definitions:
        attr_names = [a.name for a in d.attributes]
        if len(set(attr_names)) != len(attr_names):
            diags.append(f"{d.name}: duplicate attribute names")
        if d.is_collection and d.attributes:
            diags.append(f"{d.name}: collection must have no attributes")
        if not d.is_collection and not d.attributes:
            diags.append(f"{d.name}: normal resource must declare attributes")
        if d.id_attribute and d.attribute(d.id_attribute) is None:
            diags.append(f"{d.name}: id attribute {d.id_attribute!r} not declared")

    name_set = set(names)
    seen_roles: set[tuple[str, str]] = set()
    for a in rm.associations:
        if not a.role_name:
            diags.append(f"{a.source}->{a.target}: role name required for URI")
        else:
            for segment in a.role_name.split("/"):
                if not _ROLE_SEGMENT_RE.match(segment):
                    diags.append(
                        f"{a.source}->{a.target}: role name segment {segment!r} "
                        "is not URI-safe"
                    )
        if (a.source, a.role_name) in seen_roles:
            diags.append(f"{a.source}: duplicate role name {a.role_name!r}")
        seen_roles.add((a.source, a.role_name))
        if a.source not in name_set:
            diags.append(f"association source {a.source!r} not declared")
        if a.target not in name_set:
            diags.append(f"association target {a.target!r} not declared")
        if a.max_card != UNBOUNDED and a.min_card > a.max_card:
            diags.append(f"{a.source}->{a.target}: min cardinality exceeds max")
        src_def = rm.definition(a.source)
        if src_def and src_def.is_collection and not (
            a.min_card == 0 and a.max_card == UNBOUNDED
        ):
            diags.append(
                f"{a.source}->{a.target}: collection membership must be 0..*"
            )

    # addressability: every definition reachable from the root
    reachable = {rm.root}
    frontier = [rm.root]
    while frontier:
        node = frontier.pop()
        for a in rm.associations:
            if a.source == node and a.target not in reachable:
                reachable.add(a.target)
                frontier.append(a.target)
    for d in rm.definitions:
        if d.name not in reachable:
            diags.append(f"{d.name}: not reachable from root {rm.root!r}")

    state_names = [s.name for s in bm.states]
    if len(set(state_names)) != len(state_names):
        diags.append("duplicate state names")
    if bm.initial and bm.initial not in state_names:
        diags.append(f"initial state {bm.initial!r} not declared")
    transition_ids = [t.id for t in bm.transitions]
    if len(set(transition_ids)) != len(transition_ids):
        diags.append("duplicate transition ids")
    for t in bm.transitions:
        if t.http_method not in SIDE_EFFECT_METHODS:
            diags.append(
                f"transition {t.id}: trigger {t.http_method} is not a side-effect method"
            )

    # expression paths must resolve against the model or a reserved namespace
    def check_expr(owner: str, e: Optional[E.Expression]) -> None:
        if e is None:
            return
        for p in E.free_paths(e):
            if p.namespace is not E.Namespace.RESOURCE:
                continue
            d = rm.definition(p.head)
            if d is None:
                diags.append(f"{owner}: unknown resource {p.head!r} in {p}")
            elif len(p.segments) >= 2 and not d.is_collection:
                if d.attribute(p.segments[1]) is None:
                    diags.append(f"{owner}: unknown attribute {p}")

    for s in bm.states:
        check_expr(f"state {s.name}", s.invariant)
    for t in bm.transitions:
        check_expr(f"transition {t.id}", t.guard)
        check_expr(f"transition {t.id}", t.effect)
    for r in rules:
        check_expr(f"rule {r.id}", r.if_expr)
        check_expr(f"rule {r.id}", r.then_expr)
        check_expr(f"rule {r.id}", r.rule_expr)
    for b in rm.bindings:
        d = rm.definition(b.path.head)
        if d is None:
            diags.append(f"bind {b.path}: unknown resource {b.path.head!r}")
        elif len(b.path.segments) >= 2 and d.attribute(b.path.segments[1]) is None:
            diags.append(f"bind {b.path}: unknown attribute")

    # every URI template referenced by a transition or rule must be routable
    if not diags:
        routes = derive_routes(rm)
        templates = {entry.uri_template for entry in routes.entries}
        for t in bm.transitions:
            if t.uri_template not in templates:
                diags.append(
                    f"transition {t.id}: uri {t.uri_template!r} not in the route table"
                )
        for r in rules:
            if r.uri_template not in templates:
                diags.append(f"rule {r.id}: uri {r.uri_template!r} not in the route table")

    return diags


# ---------------------------------------------------------------------------
# Route derivation


def derive_routes(
    rm: ResourceModel,
    bm: Optional[BehavioralModel] = None,
    diagnostics: Optional[list[str]] = None,
) -> RouteTable:
    """Derive URI templates from association role names, walking out from the
    root.  Member resources of a collection append ``{<name>_id}`` when they
    declare an id attribute; members without one share the collection's URI
    (and absorb its entry).  First-declared association path wins on
    ambiguity."""
    templates: dict[str, str] = {rm.root: "/"}
    order: list[str] = [rm.root]
    frontier = [rm.root]
    while frontier:
        node = frontier.pop(0)
        node_def = rm.definition(node)
        for a in rm.associations:
            if a.source != node:
                continue
            target_def = rm.definition(a.target)
            if target_def is None:
                continue
            base = templates[node].rstrip("/")
            if node_def is not None and node_def.is_collection:
                # collection membership: the id segment addresses the member
                if target_def.id_attribute:
                    template = f"{base}/{{{target_def.name}_id}}"
                else:
                    template = base or "/"
            else:
                template = f"{base}/{a.role_name}"
            if a.target in templates:
                if diagnostics is not None:
                    diagnostics.append(
                        f"{a.target}: ambiguous route (keeping {templates[a.target]!r})"
                    )
                continue
            templates[a.target] = template
            order.append(a.target)
            frontier.append(a.target)

    # members that share a collection URI absorb the collection entry
    by_template: dict[str, str] = {}
    for name in order:
        template = templates[name]
        prev = by_template.get(template)
        if prev is not None:
            prev_def = rm.definition(prev)
            if prev_def is not None and prev_def.is_collection:
                by_template[template] = name
            continue
        by_template[template] = name

    method_map: dict[str, set[str]] = {}
    if bm is not None:
        for t in bm.transitions:
            method_map.setdefault(t.uri_template, set()).add(t.http_method)

    entries = []
    for template, name in by_template.items():
        methods = {"GET"} | method_map.get(template, set())
        entries.append(RouteEntry(template, name, frozenset(methods)))
    # longest templates first so concrete segments win over parameters
    entries.sort(key=lambda entry: (-entry.uri_template.count("/"), entry.uri_template))
    return RouteTable(tuple(entries))
