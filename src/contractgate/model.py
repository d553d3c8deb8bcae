"""Declarative resource + state-machine model: types, loader, validation, URI
route derivation and the source each contract path is read from.

Models are loaded from a line-oriented UTF-8 document of directives, one a
line; ``_DIRECTIVES`` holds the pattern each directive's line must match.  A
text literal, ``expr.STRING``, is read whole: a ``#`` or clause keyword in one
is text.  A ``collection_…`` resource is a collection even without the flag.
The first declared resource is the model root; the first state is initial.
Resource and attribute names and ``bind`` path segments follow ``expr.NAME``.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional

from . import expr as E

ATTRIBUTE_TYPES = ("string", "integer", "boolean", "timestamp", "document")
SIDE_EFFECT_METHODS = ("PUT", "POST", "DELETE")

_ROLE_SEGMENT_RE = re.compile(r"^[a-z0-9_-]+$")

UNBOUNDED = -1  # max_card sentinel for 0..*


class ModelError(ValueError):
    """Raised when a model document cannot be loaded."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class Attribute(NamedTuple):
    name: str
    type: str


class ResourceDefinition(NamedTuple):
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


class Association(NamedTuple):
    source: str
    target: str
    role_name: str
    min_card: int = 0
    max_card: int = UNBOUNDED  # UNBOUNDED means *


class Binding(NamedTuple):
    """Resolution hint: a resource attribute path supplied by the request
    payload or by the validated-token representation instead of a probe."""

    path: E.Path
    source: str  # "request" | "token"
    json_path: tuple[str, ...]


class ResourceModel(NamedTuple):
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


class State(NamedTuple):
    name: str
    invariant: E.Expression


class Transition(NamedTuple):
    id: str
    source: str
    target: str
    http_method: str
    uri_template: str
    guard: Optional[E.Expression] = None
    effect: Optional[E.Expression] = None
    actor_role: Optional[str] = None


class BehavioralModel(NamedTuple):
    states: tuple[State, ...]
    transitions: tuple[Transition, ...]
    initial: str

    def state(self, name: str) -> Optional[State]:
        for s in self.states:
            if s.name == name:
                return s
        return None


class SecurityRule(NamedTuple):
    id: str
    http_method: str
    uri_template: str
    kind: str  # "conditional" | "unconditional"
    if_expr: Optional[E.Expression] = None
    then_expr: Optional[E.Expression] = None
    rule_expr: Optional[E.Expression] = None


class RouteEntry(NamedTuple):
    uri_template: str
    definition: str
    allowed_methods: frozenset[str]
    segments: tuple[str, ...]  # the template's non-empty segments, split once


class RouteTable(NamedTuple):
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


class Source(NamedTuple):
    """Where a resource path's value comes from on requests to one route
    entry, decided once at load.  ``kind`` is one of ``request`` (the request
    body, by a ``bind … from request`` hint), ``token`` (the token probe, by
    a ``bind … from token`` hint), ``addressed`` (the addressed resource: its
    reply in the post phase, else a probe of its canonical URI), ``fixed`` (a
    probe of another resource's fixed route) and ``none``, which reads
    ``unsourced`` on every request."""

    kind: str
    uri: Optional[str] = None  # the probe's URI; the route's template when addressed
    json_path: Optional[tuple[str, ...]] = None  # None: the resource's existence
    attr_type: Optional[str] = None
    unsourced: E.Value = E.ABSENT


def source(
    rm: ResourceModel, routes: RouteTable, path: E.Path, entry: Optional[RouteEntry]
) -> Source:
    """``path``'s source on requests to ``entry`` (None: on no route).  Each
    path has one exact JSON location: attribute ``d.a`` is ``a`` in the
    member named ``d`` of its resource's representation, and ``token.token``
    is that member itself; a ``bind … from token`` path is read under the
    token probe's ``token`` member, a ``bind … from request`` path from the
    body's root."""
    definition = rm.definition(path.head)
    if definition is None:
        return Source("none", unsourced=E.INVALID)
    attr_name = path.segments[1] if len(path.segments) > 1 else None
    attr = definition.attribute(attr_name) if attr_name else None
    attr_type = attr.type if attr else None
    json_path = None
    if attr_name == definition.name:
        json_path = (attr_name,)
    elif attr_name is not None:
        json_path = (definition.name, attr_name)

    def fixed_uri(name: str) -> Optional[str]:
        found = routes.for_definition(name)
        return None if found is None or "{" in found.uri_template else found.uri_template

    binding = next((b for b in rm.bindings if b.path == path), None)  # first wins
    if binding is not None and binding.source == "request":
        return Source("request", None, binding.json_path, attr_type)
    if binding is not None:
        uri = fixed_uri("token")
        if uri is None:
            return Source("none", unsourced=E.INVALID)
        return Source("token", uri, ("token",) + binding.json_path, attr_type)
    if entry is not None and definition.name.lower() == entry.definition.lower():
        return Source("addressed", entry.uri_template, json_path, attr_type)
    uri = fixed_uri(definition.name)
    if uri is None:
        return Source("none")  # identity not determinable from the request
    return Source("fixed", uri, json_path, attr_type)


def plan(
    rm: ResourceModel,
    routes: RouteTable,
    entry: Optional[RouteEntry],
    exprs: tuple[E.Expression, ...],
) -> dict[E.Path, Source]:
    """The source of each resource path in ``exprs`` on requests to ``entry``."""
    paths = set().union(*map(E.free_paths, exprs))
    return {
        p: source(rm, routes, p, entry) for p in paths if p.namespace is E.Namespace.RESOURCE
    }


# ---------------------------------------------------------------------------
# Document loading


_CLAUSE = rf"(?:{E.STRING}|[^'])*?(?:'[^']*$)?"  # literals read whole; a lone ' takes the rest
_CODE = re.compile(rf"(?:{E.STRING}|[^'#])*(?:'.*)?")  # before a comment; a lone ' keeps all
# Each directive keyword and the pattern the rest of its line must match.
_DIRECTIVES = {
    "resource": re.compile(r"(?P<name>\S+)(?P<flags>.*)"),
    "attr": re.compile(r"(?P<name>\S+)\s*:\s*(?P<type>\S+)(?P<marked>\s+id)?\s*"),
    "assoc": re.compile(
        r"(?P<source>\S+)\s*->\s*(?P<target>\S+)\s+as\s+(?P<role>\S+)"
        r"(?:\s+(?P<min>\d+)\.\.(?P<max>\d+|\*))?\s*"
    ),
    "state": re.compile(r"(?P<name>[^:]*?)\s*:(?P<invariant>.*)"),
    "transition": re.compile(
        r"(?P<id>\S+)\s*:\s*(?P<source>\S+)\s*->\s*(?P<target>\S+)\s+on\s+"
        r"(?P<method>[A-Z]+)\s+(?P<uri>\S+)"
        rf"(?:\s+guard:\s*(?P<guard>{_CLAUSE}))?"
        rf"(?:\s+effect:\s*(?P<effect>{_CLAUSE}))?"
        r"(?:\s+actor:\s*(?P<actor>[^\s']+))?\s*"
    ),
    "rule": re.compile(
        r"(?P<id>\S+)\s+on\s+(?P<method>[A-Z]+)\s+(?P<uri>\S+)\s*:\s*"
        rf"(?:if\s+(?P<if>{_CLAUSE})\s+then\s+(?P<then>.*)|always\s+(?P<always>.*))"
    ),
    "bind": re.compile(
        r"(?P<path>\S+)\s+from\s+(?P<source>request|token)\s+(?P<json>\S+)\s*"
    ),
}

# The error for a line its directive's pattern refuses, where it is not
# "malformed <keyword> line: <line>".
_MALFORMED = {
    "resource": "resource requires a name",
    "state": "state requires ': <expression>'",
}


def _cardinality(bound: str, lineno: int) -> int:
    # "*" or digits; over 18 significant digits is refused here, not by int() past 4300
    if bound == "*":
        return UNBOUNDED
    if len(bound.lstrip("0")) > 18:
        raise ModelError("assoc cardinality has more than 18 digits", lineno)
    return int(bound)


def _name(name: str, what: str, lineno: int) -> str:
    if re.fullmatch(E.NAME, name) is None:
        raise ModelError(f"invalid {what} {name!r}", lineno)
    return name


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

    previous = None  # the last line's directive: an attr line extends a resource block
    for lineno, raw in enumerate(document.splitlines(), start=1):
        stripped = _CODE.match(raw)[0].strip()
        if not stripped:
            continue
        keyword, _, rest = stripped.partition(" ")
        pattern = _DIRECTIVES.get(keyword)
        if pattern is None:
            raise ModelError(f"unknown directive {keyword!r}", lineno)
        if keyword == "attr" and previous not in ("resource", "attr"):
            raise ModelError("attr outside a resource block", lineno)
        m = pattern.fullmatch(rest.strip())
        if m is None:
            message = _MALFORMED.get(keyword, f"malformed {keyword} line: {stripped!r}")
            raise ModelError(message, lineno)
        previous = keyword

        if keyword == "resource":
            name = _name(m["name"], "resource name", lineno)
            is_collection = "collection" in m["flags"].split() or name.startswith("collection_")
            definitions.append(
                ResourceDefinition(name=name, kind="collection" if is_collection else "normal")
            )
        elif keyword == "attr":
            if m["type"] not in ATTRIBUTE_TYPES:
                raise ModelError(
                    f"unknown attribute type {m['type']!r} "
                    f"(expected one of {', '.join(ATTRIBUTE_TYPES)})",
                    lineno,
                )
            _name(m["name"], "attribute name", lineno)
            block = definitions[-1]
            named_id = m["name"] == "id" and block.id_attribute is None
            definitions[-1] = block._replace(
                attributes=block.attributes + (Attribute(m["name"], m["type"]),),
                id_attribute=m["name"] if m["marked"] or named_id else block.id_attribute,
            )
        elif keyword == "assoc":
            associations.append(
                Association(
                    source=m["source"],
                    target=m["target"],
                    role_name=m["role"],
                    min_card=_cardinality(m["min"] or "0", lineno),
                    max_card=_cardinality(m["max"] or "*", lineno),
                )
            )
        elif keyword == "state":
            states.append(State(m["name"], _parse(m["invariant"], lineno)))
        elif keyword == "transition":
            if m["method"] not in SIDE_EFFECT_METHODS:
                raise ModelError(
                    f"transition {m['id']!r} triggered by {m['method']}: only "
                    f"side-effect methods ({', '.join(SIDE_EFFECT_METHODS)}) may "
                    "trigger transitions",
                    lineno,
                )
            transitions.append(
                Transition(
                    id=m["id"],
                    source=m["source"],
                    target=m["target"],
                    http_method=m["method"],
                    uri_template=m["uri"],
                    # an empty guard: or effect: clause reads as none
                    guard=_parse(m["guard"] or None, lineno),
                    effect=_parse(m["effect"] or None, lineno),
                    actor_role=m["actor"],
                )
            )
        elif keyword == "rule":
            rules.append(
                SecurityRule(
                    id=m["id"],
                    http_method=m["method"],
                    uri_template=m["uri"],
                    kind="conditional" if m["always"] is None else "unconditional",
                    if_expr=_parse(m["if"], lineno),
                    then_expr=_parse(m["then"], lineno),
                    rule_expr=_parse(m["always"], lineno),
                )
            )
        else:  # bind
            segments = [_name(s, "bind path segment", lineno) for s in m["path"].split(".")]
            if len(segments) < 2 or segments[0] in E.RESERVED_HEADS:
                raise ModelError("bind path must be <resource>.<attribute>", lineno)
            bindings.append(
                Binding(
                    path=E.make_path(segments),
                    source=m["source"],
                    json_path=tuple(m["json"].split(".")),
                )
            )

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
    transition_ids = [t.id for t in bm.transitions]
    if len(set(transition_ids)) != len(transition_ids):
        diags.append("duplicate transition ids")

    # a resource path names a definition, and at most one of its attributes;
    # other namespaces are reserved
    def check_paths(owner: str, *exprs: Optional[E.Expression]) -> None:
        paths = set().union(*(E.free_paths(e) for e in exprs if e is not None))
        for p in sorted(paths, key=str):
            if p.namespace is not E.Namespace.RESOURCE:
                continue
            d = rm.definition(p.head)
            if d is None:
                diags.append(f"{owner}: unknown resource {p.head!r} in {p}")
            elif len(p.segments) >= 2 and d.attribute(p.segments[1]) is None:
                diags.append(f"{owner}: unknown attribute {p}")
            elif len(p.segments) > 2:
                diags.append(f"{owner}: path {p} goes deeper than its attribute")

    # an invariant or rule clause that can never hold refuses every request
    # it is checked on; a target state's, only after the side effect (502)
    for s in bm.states:
        check_paths(f"state {s.name}", s.invariant)
        if not _can_hold(s.invariant):
            diags.append(f"state {s.name}: invariant can never hold")
    for t in bm.transitions:
        check_paths(f"transition {t.id}", t.guard, t.effect)
        origin = bm.state(t.source)
        invariant = origin.invariant if origin else E.LIT_TRUE
        if not _can_hold(E.And(invariant, t.guard if t.guard is not None else E.LIT_TRUE)):
            diags.append(f"transition {t.id}: can never fire from state {t.source}")
    for r in rules:
        check_paths(f"rule {r.id}", r.if_expr, r.then_expr, r.rule_expr)
        clause, e = ("then", r.then_expr) if r.kind == "conditional" else ("always", r.rule_expr)
        if not _can_hold(e):
            diags.append(f"rule {r.id}: {clause} clause can never hold")
    check_paths("bind", *(E.PathRef(b.path) for b in rm.bindings))

    # every URI template referenced by a transition or rule must be routable
    if not diags:
        routes = derive_routes(rm)
        entries = {entry.uri_template: entry for entry in routes.entries}
        for t in bm.transitions:
            if t.uri_template not in entries:
                diags.append(
                    f"transition {t.id}: uri {t.uri_template!r} not in the route table"
                )
        for r in rules:
            if r.uri_template not in entries:
                diags.append(f"rule {r.id}: uri {r.uri_template!r} not in the route table")

        # every path a contract reads has a source on its route; the import
        # is here because contracts are built from this module's types
        from .contracts import derive_contracts

        for c in derive_contracts(bm, rules):
            if c.uri_template not in entries:
                continue
            sources = plan(rm, routes, entries[c.uri_template], (c.pre, c.post))
            for p, found in sorted(sources.items(), key=lambda item: str(item[0])):
                if found.kind == "none":
                    reads = found.unsourced.kind.value.title()
                    diags.append(
                        f"{c.id}: path {p} has no source, so it reads {reads} on every request"
                    )

    # a rule is merged only into the contract of a transition's trigger
    triggers = {(t.http_method, t.uri_template) for t in bm.transitions}
    for r in rules:
        if (r.http_method, r.uri_template) not in triggers:
            diags.append(
                f"rule {r.id}: no transition on {r.http_method} {r.uri_template}, "
                "so the rule is never checked"
            )

    return diags


MAX_GUARD_ATOMS = 10  # a formula with more distinct atoms is assumed satisfiable


def _can_hold(e: E.Expression) -> bool:
    """Whether some state could make ``e`` TRUE.  Each distinct comparison,
    path, size, validity test or ``clockTime`` in ``e`` is read as an
    independent atom, so no time is read.  Kleene's tables are monotone: if an
    assignment with Unknown atoms makes ``e`` TRUE, so does one of TRUE and
    FALSE alone, and those are all tried."""
    atoms: dict[E.Expression, E.Path] = {}

    def abstract(node: E.Expression) -> E.Expression:
        if isinstance(node, (E.And, E.Or, E.Implies, E.Not, E.Literal)):
            return node
        fresh = E.Path(E.Namespace.SELF, (str(len(atoms)),))
        return E.PathRef(atoms.setdefault(node, fresh))

    formula = E.transform(e, abstract)
    if len(atoms) > MAX_GUARD_ATOMS:
        return True
    return any(
        E.evaluate(formula, E.Environment(lambda p: E.boolean(bits >> int(p.head) & 1), None))
        is E.TRUE
        for bits in range(2 ** len(atoms))
    )


# ---------------------------------------------------------------------------
# Route derivation


def derive_routes(
    rm: ResourceModel,
    bm: Optional[BehavioralModel] = None,
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
            if target_def is None or a.target in templates:
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
        segments = tuple(filter(None, template.split("/")))
        entries.append(RouteEntry(template, name, frozenset(methods), segments))
    # longest templates first so concrete segments win over parameters
    entries.sort(key=lambda entry: (-entry.uri_template.count("/"), entry.uri_template))
    return RouteTable(tuple(entries))
