"""Per-request enforcement: resolve the pre-state environment by probing the
upstream with GETs, check the precondition, snapshot the values it used,
forward, resolve the post-state environment from the response (and re-probes),
check the postcondition and produce a verdict.

Undefined values never escape as exceptions; they fold into UNKNOWN and the
monitor treats UNKNOWN as a violation (fail-closed).
"""

from __future__ import annotations

import json
import threading
import time
from datetime import datetime, timezone
from typing import Optional

from . import expr as E
from .contracts import Check, Contract
from .httpreply import HOP_BY_HOP, HttpUpstream, UpstreamError, UpstreamResponse
from .httpreply import parse_json
from .model import ResourceModel, RouteEntry, RouteTable

_UNSET = object()
Failed = list[tuple[str, E.TriBool]]  # failing conjuncts' texts and values, in order


# ---------------------------------------------------------------------------
# Request context and verdicts


class RequestContext:
    __slots__ = ("method", "uri", "headers", "body", "arrival_time", "deadline", "route")

    def __init__(
        self,
        method: str,
        uri: str,
        headers: Optional[dict[str, str]] = None,
        body: object = None,
        arrival_time: Optional[datetime] = None,
        deadline: Optional[float] = None,
    ):
        self.method = method
        self.uri = uri
        self.headers = {} if headers is None else headers  # lowercase names
        self.body = body  # parsed request document; None when unparseable
        self.arrival_time = arrival_time or datetime.now(timezone.utc)
        # time.monotonic() by which every upstream call for the request must
        # end; set by Monitor.handle, None outside it
        self.deadline = deadline
        # the route ``uri`` matches, as (entry, canonical URI) or None; set
        # once by Monitor.route
        self.route = _UNSET

    def time_left(self, cap: float) -> float:
        """Seconds an upstream call may take: ``cap``, cut to the time left
        before the deadline."""
        if self.deadline is None:
            return cap
        return min(cap, self.deadline - time.monotonic())

    @classmethod
    def build(
        cls,
        method: str,
        uri: str,
        headers: dict[str, str],
        raw_body: bytes,
        arrival_time: Optional[datetime] = None,
    ) -> "RequestContext":
        return cls(
            method=method,
            uri=uri,
            headers={k.lower(): v for k, v in headers.items()},
            # unparseable: all request.* paths become Absent (fail-closed)
            body=parse_json(raw_body),
            arrival_time=arrival_time,
        )

    def auth_token(self) -> Optional[str]:
        token = self.headers.get("x-auth-token")
        if token:
            return token
        node = json_walk(self.body, ("auth", "identity", "token", "id"))
        return node if isinstance(node, str) else None


class Snapshot:
    __slots__ = ("bindings", "captured_at")

    def __init__(self, bindings: dict[E.Path, E.Value], captured_at: datetime):
        self.bindings = bindings
        self.captured_at = captured_at


class Verdict:
    __slots__ = ("outcome", "failed_atoms", "contract_id", "probe_ms", "upstream_ms",
                 "total_ms")

    def __init__(
        self,
        outcome: str,  # pass | pre_violation | post_violation | audit_violation
        failed_atoms: Optional[Failed] = None,
        contract_id: Optional[str] = None,
        probe_ms: float = 0.0,
        upstream_ms: float = 0.0,
        total_ms: float = 0.0,
    ):
        self.outcome = outcome
        self.failed_atoms = [] if failed_atoms is None else failed_atoms
        self.contract_id = contract_id
        self.probe_ms = probe_ms
        self.upstream_ms = upstream_ms
        self.total_ms = total_ms

    @property
    def phase(self) -> str:
        """``pre`` or ``post`` for a contract violation, else the outcome."""
        return {"pre_violation": "pre", "post_violation": "post"}.get(
            self.outcome, self.outcome
        )

    def failed_json(self) -> list[dict]:
        return [{"expr": text, "value": value.value} for text, value in self.failed_atoms]


class ViolationRecord:
    __slots__ = ("timestamp", "verdict", "method", "uri", "requester", "upstream_status")

    def __init__(
        self,
        timestamp: datetime,
        verdict: Verdict,
        method: str,
        uri: str,
        requester: Optional[str] = None,
        upstream_status: Optional[int] = None,
    ):
        self.timestamp = timestamp
        self.verdict = verdict
        self.method = method
        self.uri = uri
        self.requester = requester
        self.upstream_status = upstream_status

    def to_json(self) -> dict:
        return {
            "ts": self.timestamp.isoformat(),
            "phase": self.verdict.phase,
            "method": self.method,
            "uri": self.uri,
            "contract": self.verdict.contract_id,
            "failed": self.verdict.failed_json(),
            "requester": self.requester,
            "upstream_status": self.upstream_status,
            "latency_ms": round(self.verdict.total_ms, 3),
            "probe_ms": round(self.verdict.probe_ms, 3),
            "upstream_ms": round(self.verdict.upstream_ms, 3),
        }


# ---------------------------------------------------------------------------
# Monitor variables (self.*)


class MonitorVariables:
    """Shared store for per-resource ``self.processing`` flags; acquire is an
    atomic test-and-set, taken after the precondition passed, so concurrent
    side-effect calls on one resource serialize their forwards only.  Their
    pre-checks still overlap: a call can read its pre-state, lose the race
    to another call's forward, then acquire the freed flag and be forwarded
    on a precondition that no longer holds."""

    def __init__(self):
        self._lock = threading.Lock()
        self._processing: set[str] = set()

    def processing(self, uri: str) -> bool:
        with self._lock:
            return uri in self._processing

    def acquire(self, uri: str) -> bool:
        with self._lock:
            if uri in self._processing:
                return False
            self._processing.add(uri)
            return True

    def release(self, uri: str) -> None:
        with self._lock:
            self._processing.discard(uri)


# ---------------------------------------------------------------------------
# JSON helpers


def json_walk(node: object, segments: tuple[str, ...]) -> object:
    """Exact descent through dicts/lists; a segment of ASCII digits indexes
    a list.  Returns None when the path does not exist."""
    for seg in segments:
        if isinstance(node, dict):
            node = node.get(seg)
        elif isinstance(node, list) and seg.isascii() and seg.isdigit():
            index = int(seg)
            node = node[index] if index < len(node) else None
        else:
            return None
    return node


def _member_walk(node: object, segments: tuple[str, ...]) -> object:
    """``segments`` under a message's one top-level member (``auth`` for a
    login); None when the document has any other shape."""
    if isinstance(node, dict) and len(node) == 1:
        (member,) = node.values()
        return json_walk(member, segments)
    return None


def json_to_value(node: object, attr_type: Optional[str] = None) -> E.Value:
    if node is None:
        return E.ABSENT
    if attr_type == "timestamp" and isinstance(node, str):
        parsed = E.parse_timestamp(node)
        return E.timestamp(parsed) if parsed else E.INVALID
    if isinstance(node, bool):
        return E.boolean(node)
    if isinstance(node, int):
        return E.integer(node)
    if isinstance(node, str):
        return E.text(node)
    if isinstance(node, float):
        return E.text(str(node))
    return E.document(node)


# ---------------------------------------------------------------------------
# Environment resolution


class Resolver:
    """Maps paths to values for one request phase, the post phase being the
    one with an upstream reply.  A resource attribute is read from one source:
    the request payload or the validated-token representation for a ``bind``
    hint, the reply for the addressed resource in the post phase, and
    otherwise a GET probe of the addressed resource's canonical URI or of
    another resource's fixed route.  Probes are cached per URI for the phase.

    Each path has one exact JSON location, and a value anywhere else is never
    read.  Attribute ``d.a`` is ``a`` in the reply's member named ``d``
    (``{"user": {"id": …}}``), and ``token.token``, named after its own
    resource, is that member itself.  A ``bind … from token`` path is read
    under the token probe's ``token`` member, and a ``bind … from request``
    path from the body's root.  ``request.*`` and ``response.*`` paths are
    read under their message's one top-level member (``auth`` for a login),
    and are Absent when it has any other shape."""

    def __init__(
        self,
        monitor: "Monitor",
        ctx: RequestContext,
        upstream_response: Optional[UpstreamResponse] = None,
    ):
        self.monitor = monitor
        self.ctx = ctx
        self.upstream_response = upstream_response
        self.probe_ms = 0.0
        self._probes: dict[str, Optional[UpstreamResponse]] = {}
        route = monitor.route(ctx)
        self.route_entry = route[0] if route else None
        self.resource = route[1] if route else ctx.uri

    # -- entry point

    def __call__(self, path: E.Path) -> E.Value:
        ns = path.namespace
        if ns is E.Namespace.REQUEST:
            return self._resolve_request(path)
        if ns is E.Namespace.SELF:
            return self._resolve_self(path)
        if ns is E.Namespace.RESPONSE:
            return self._resolve_response(path)
        return self._resolve_resource(path)

    # -- namespaces

    def _resolve_request(self, path: E.Path) -> E.Value:
        if path.segments and path.segments[0] == "headers":
            name = "-".join(path.segments[1:]).lower()
            raw = self.ctx.headers.get(name)
            return E.text(raw) if raw is not None else E.ABSENT
        return json_to_value(_member_walk(self.ctx.body, path.segments))

    def _resolve_self(self, path: E.Path) -> E.Value:
        if path.segments == ("processing",):
            if self.upstream_response is not None:  # post phase
                return E.boolean(False)
            return E.boolean(self.monitor.variables.processing(self.resource))
        return E.ABSENT

    def _resolve_response(self, path: E.Path) -> E.Value:
        if self.upstream_response is None:
            return E.ABSENT
        if path.segments == ("status",):
            return E.integer(self.upstream_response.status)
        return json_to_value(_member_walk(self.upstream_response.json(), path.segments))

    def _resolve_resource(self, path: E.Path) -> E.Value:
        definition = self.monitor.rm.definition(path.head)
        if definition is None:
            return E.INVALID
        attr_name = path.segments[1] if len(path.segments) > 1 else None
        attr = definition.attribute(attr_name) if attr_name else None
        attr_type = attr.type if attr else None
        json_path = None
        if attr_name == definition.name:
            json_path = (attr_name,)
        elif attr_name is not None:
            json_path = (definition.name, attr_name)

        binding = self.monitor.bindings.get(path)
        if binding is not None and binding.source == "request":
            return json_to_value(json_walk(self.ctx.body, binding.json_path), attr_type)
        if binding is not None:
            # token-representation source: validate the caller's token upstream
            uri, json_path = self._fixed_uri("token"), ("token",) + binding.json_path
            if uri is None:
                return E.INVALID
        elif (
            self.route_entry is not None
            and definition.name.lower() == self.route_entry.definition.lower()
        ):
            resp = self.upstream_response
            # without a representation, re-probe
            if resp is not None and json_path is not None and resp.body:
                doc = resp.json()
                if doc is None:
                    return E.INVALID  # unparseable upstream body
                return json_to_value(json_walk(doc, json_path), attr_type)
            uri = self.resource
        else:
            uri = self._fixed_uri(definition.name)
            if uri is None:
                return E.ABSENT  # identity not determinable from the request

        reply = self.probe(uri)
        if reply is None or reply.status not in (200, 404):
            return E.INVALID  # transport failure or unexpected status (fail-closed)
        if reply.status == 404:
            return E.ABSENT
        if json_path is None:
            return E.count(1)
        doc = reply.json()
        if doc is None:
            return E.INVALID  # unparseable probe body
        return json_to_value(json_walk(doc, json_path), attr_type)

    def _fixed_uri(self, definition: str) -> Optional[str]:
        entry = self.monitor.routes.for_definition(definition)
        if entry is None or "{" in entry.uri_template:
            return None
        return entry.uri_template

    # -- probes

    def probe(self, uri: str) -> Optional[UpstreamResponse]:
        """GET ``uri`` upstream with the caller's token, at most once per
        phase; None when the upstream is unreachable or its reply malformed."""
        if uri not in self._probes:
            token = self.ctx.auth_token()
            headers = [("X-Auth-Token", token)] if token else []
            started = time.monotonic()
            try:
                self._probes[uri] = self.monitor.upstream.request(
                    "GET", uri, headers,
                    timeout_s=self.ctx.time_left(self.monitor.probe_timeout_s),
                )
            except UpstreamError:
                self._probes[uri] = None
            self.probe_ms += _ms_since(started)
        return self._probes[uri]

    def requester_name(self) -> Optional[str]:
        for resp in self._probes.values():
            if resp is not None and resp.status == 200:
                node = json_walk(resp.json(), ("token", "user", "name"))
                if isinstance(node, str):
                    return node
        return None


# ---------------------------------------------------------------------------
# Monitor


class MonitorResult:
    __slots__ = ("status", "headers", "body", "verdict", "violation")

    def __init__(
        self,
        status: int,
        headers: list[tuple[str, str]],
        body: bytes,
        verdict: Optional[Verdict] = None,
        violation: Optional[ViolationRecord] = None,
    ):
        self.status = status
        self.headers = headers
        self.body = body
        self.verdict = verdict
        self.violation = violation


class Monitor:
    def __init__(
        self,
        rm: ResourceModel,
        routes: RouteTable,
        contracts: list[Contract],
        upstream: HttpUpstream,
        probe_timeout_s: float = 2.0,
        paper_status: bool = False,
        audit_get: bool = False,
        state_invariants: Optional[list[tuple[str, E.Expression]]] = None,
    ):
        self.rm = rm
        self.bindings = {b.path: b for b in reversed(rm.bindings)}  # first wins
        self.routes = routes
        self.contracts = {(c.method, c.uri_template): c for c in contracts}
        self.upstream = upstream
        self.probe_timeout_s = probe_timeout_s
        self.paper_status = paper_status
        self.audit_get = audit_get
        self.state_invariants = state_invariants or []
        self.variables = MonitorVariables()

    # -- environment construction (exposed for direct testing)

    def resolve_pre_env(
        self, ctx: RequestContext, contract: Contract
    ) -> tuple[E.Environment, Snapshot]:
        resolver = Resolver(self, ctx)
        env = E.Environment(resolver, now=ctx.arrival_time)
        bindings = {p: env.lookup(p) for p in contract.snapshot_paths}
        return env, Snapshot(bindings=bindings, captured_at=ctx.arrival_time)

    def resolve_post_env(
        self,
        ctx: RequestContext,
        contract: Contract,
        upstream_response: UpstreamResponse,
        snapshot: Snapshot,
    ) -> E.Environment:
        resolver = Resolver(self, ctx, upstream_response)
        return E.Environment(resolver, now=ctx.arrival_time, snapshot=snapshot.bindings)

    # -- checks

    def check_precondition(self, contract: Contract, env: E.Environment) -> Failed:
        return _failed_conjuncts(contract.pre_checks, env)

    def check_postcondition(self, contract: Contract, env: E.Environment) -> Failed:
        return _failed_conjuncts(contract.post_checks, env)

    def route(self, ctx: RequestContext) -> Optional[tuple[RouteEntry, str]]:
        """The route entry ``ctx.uri`` matches and the addressed resource's
        canonical URI, one key for every alias of its URI; None when no
        route matches.  Matched once per request."""
        if ctx.route is _UNSET:
            matched = self.routes.match(ctx.uri)
            ctx.route = matched and (
                matched[0], matched[0].uri_template.format(**matched[1])
            )
        return ctx.route

    # -- pipeline

    def handle(self, ctx: RequestContext, raw_body: bytes) -> MonitorResult:
        """Check and forward one request.  Its probes and its forward share
        one deadline, the upstream timeout after it starts: each probe may
        take the probe timeout or the time left, whichever is less."""
        started = time.monotonic()
        ctx.deadline = started + self.upstream.timeout_s
        route = self.route(ctx)
        if route is None:
            return _error(404, "no such resource")
        entry, _ = route
        if ctx.method not in entry.allowed_methods:
            allow = ", ".join(sorted(entry.allowed_methods))
            return _error(405, "method not allowed", [("Allow", allow)])

        if ctx.method == "GET":
            return self._forward_get(ctx, raw_body)

        contract = self.contracts.get((ctx.method, entry.uri_template))
        if contract is None:
            return _error(405, "unmodeled method",
                          [("Allow", ", ".join(sorted(entry.allowed_methods)))])

        env, snapshot = self.resolve_pre_env(ctx, contract)
        failed = self.check_precondition(contract, env)
        resolver: Resolver = env.resolver  # type: ignore[assignment]

        if not failed and not self.variables.acquire(resolver.resource):
            # lost the test-and-set race: another side-effect call is in
            # flight on this resource
            failed = [("self.processing=False", E.FALSE)]

        if failed:
            verdict = Verdict(
                outcome="pre_violation",
                failed_atoms=failed,
                contract_id=contract.id,
                probe_ms=resolver.probe_ms,
                total_ms=_ms_since(started),
            )
            return self._violation(ctx, resolver, verdict)

        upstream_started = time.monotonic()
        try:
            response = self._forward(ctx, raw_body)
        except UpstreamError:
            response = None
        finally:
            self.variables.release(resolver.resource)
        upstream_ms = _ms_since(upstream_started)
        if response is None:
            verdict = Verdict(
                outcome="post_violation",
                failed_atoms=[("upstream reachable", E.UNKNOWN)],
                contract_id=contract.id,
                probe_ms=resolver.probe_ms,
                upstream_ms=upstream_ms,
                total_ms=_ms_since(started),
            )
            return self._violation(ctx, resolver, verdict, status=504)

        post_env = self.resolve_post_env(ctx, contract, response, snapshot)
        post_failed = self.check_postcondition(contract, post_env)
        verdict = Verdict(
            outcome="post_violation" if post_failed else "pass",
            failed_atoms=post_failed,
            contract_id=contract.id,
            probe_ms=resolver.probe_ms + post_env.resolver.probe_ms,
            upstream_ms=upstream_ms,
            total_ms=_ms_since(started),
        )
        if post_failed:
            return self._violation(
                ctx, resolver, verdict, upstream_status=response.status
            )
        return _relay(response, verdict)

    def _forward_get(self, ctx: RequestContext, raw_body: bytes) -> MonitorResult:
        violation = None
        if self.audit_get and self.state_invariants:
            violation = self._audit(ctx)
        try:
            response = self._forward(ctx, raw_body)
        except UpstreamError:
            return _error(504, "upstream unreachable")
        return _relay(response, Verdict(outcome="pass"), violation)

    def _forward(self, ctx: RequestContext, raw_body: bytes) -> UpstreamResponse:
        """Send the request itself upstream within the time its deadline
        leaves; raises UpstreamError."""
        return self.upstream.request(
            ctx.method, ctx.uri, list(ctx.headers.items()), raw_body,
            timeout_s=ctx.time_left(self.upstream.timeout_s),
        )

    def _audit(self, ctx: RequestContext) -> Optional[ViolationRecord]:
        """Optional mode: on GET, check that at least one state invariant
        currently holds; a service in no modeled state is reported."""
        resolver = Resolver(self, ctx)
        env = E.Environment(resolver, now=ctx.arrival_time)
        results = [
            (name, E.evaluate(inv, env)) for name, inv in self.state_invariants
        ]
        if any(value is E.TRUE for _, value in results):
            return None
        verdict = Verdict(
            outcome="audit_violation",
            failed_atoms=results,
            contract_id="state-audit",
            probe_ms=resolver.probe_ms,
        )
        return ViolationRecord(
            timestamp=datetime.now(timezone.utc),
            verdict=verdict,
            method=ctx.method,
            uri=ctx.uri,
        )

    def _violation(
        self,
        ctx: RequestContext,
        resolver: Resolver,
        verdict: Verdict,
        status: Optional[int] = None,
        upstream_status: Optional[int] = None,
    ) -> MonitorResult:
        """Refuse the request with a JSON body naming the failed conjuncts,
        and the record for the violation log.  Without an explicit
        ``status``, pre violations are 412 and post violations 502 (404 for
        both under ``paper_status``)."""
        if status is None:
            if self.paper_status:
                status = 404
            else:
                status = 412 if verdict.phase == "pre" else 502
        record = ViolationRecord(
            timestamp=datetime.now(timezone.utc),
            verdict=verdict,
            method=ctx.method,
            uri=ctx.uri,
            requester=resolver.requester_name(),
            upstream_status=upstream_status,
        )
        doc = {
            "phase": verdict.phase,
            "contract": verdict.contract_id,
            "failed": verdict.failed_json(),
            "request": {"method": ctx.method, "uri": ctx.uri},
        }
        return MonitorResult(
            status=status,
            headers=[("Content-Type", "application/json")],
            body=json.dumps(doc, sort_keys=True).encode("utf-8"),
            verdict=verdict,
            violation=record,
        )


def _failed_conjuncts(checks: tuple[Check, ...], env: E.Environment) -> Failed:
    """The checks that do not hold; empty means pass.  An implication whose
    antecedent held in the pre-state is named by its failing consequent
    conjuncts instead."""
    failed = []
    for check in checks:
        value = E.evaluate(check.expr, env)
        if value is E.TRUE:
            continue
        split = check.antecedent is not None
        if split and E.evaluate(check.antecedent, env, antecedent=True) is E.TRUE:
            failed += _failed_conjuncts(check.consequent, env)
        else:
            failed.append((check.text, value))
    return failed


def _error(
    status: int, message: str, headers: Optional[list[tuple[str, str]]] = None
) -> MonitorResult:
    body = json.dumps({"error": message}).encode("utf-8")
    return MonitorResult(
        status=status,
        headers=(headers or []) + [("Content-Type", "application/json")],
        body=body,
    )


def _ms_since(started: float) -> float:
    return (time.monotonic() - started) * 1000.0


def _relay(
    response: UpstreamResponse,
    verdict: Verdict,
    violation: Optional[ViolationRecord] = None,
) -> MonitorResult:
    """Pass the upstream reply through, minus its hop-by-hop headers."""
    headers = [(k, v) for k, v in response.headers if k.lower() not in HOP_BY_HOP]
    return MonitorResult(response.status, headers, response.body, verdict, violation)
