"""Per-layer metrics: the split of a traced run's spans, and fixed-input
microbenchmarks of evaluation, route matching and model set-up.

Phase times (`*_ms` without a call count beside them, and `*_eval_us`) are
totals per client request, so they add up along the request path.  Call
times (`evaluate_us`, `to_text_us`, `route_match_us`, `request_build_us`,
`log_record_us`) are means per call; `evaluate_us` is self time, without
the probes that lazy resolution runs inside it.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict
from datetime import datetime, timezone
from pathlib import Path

PRE = ("resolve_pre_env", "check_precondition")
POST = ("resolve_post_env", "check_postcondition")
NOT_EVAL = ("upstream_request", "route_match")  # children an eval span excludes


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "rid", "children")

    def __init__(self, sid, parent, name, start, end, rid):
        self.id, self.parent, self.name = sid, parent, name
        self.start, self.end, self.rid = start, end, rid
        self.children: list = []

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.dur - sum(c.dur for c in self.children)


def _excluded(span: Span) -> float:
    """Time in probe and route-match descendants of `span`."""
    return sum(c.dur if c.name in NOT_EVAL else _excluded(c) for c in span.children)


def _mean(values: list) -> float:
    return sum(values) / len(values) if values else 0.0


def split(raw_spans: list, latencies: dict, upstream_served: int) -> dict:
    """Per-layer values from the traced gateway's spans.  `latencies` maps
    each timed request id to its client latency in ms; spans of other
    requests (boot, final checks) are ignored."""
    spans = {s[0]: Span(*s) for s in raw_spans if s[5] in latencies}
    for s in spans.values():
        if s.parent in spans:
            spans[s.parent].children.append(s)
    by_name: dict = defaultdict(list)
    for s in spans.values():
        by_name[s.name].append(s)
    n = len(latencies)

    handle = {s.rid: s.dur * 1e3 for s in by_name["handle"]}
    probes: dict = {"pre": [], "post": [], "forward": []}
    for s in by_name["upstream_request"]:
        parent = spans.get(s.parent)
        if parent is not None and parent.name == "handle":
            probes["forward"].append(s.dur)
            continue
        while parent is not None and parent.name not in PRE + POST:
            parent = spans.get(parent.parent)
        if parent is not None:
            probes["pre" if parent.name in PRE else "post"].append(s.dur)

    def per_req(total: float, unit: str) -> tuple:
        return total / n, unit, n

    def per_call_us(name: str, self_time: bool = False) -> tuple:
        calls = by_name[name]
        values = [(c.self_time if self_time else c.dur) * 1e6 for c in calls]
        return _mean(values), "us", len(calls)

    def eval_us(names) -> tuple:
        spent = sum(s.dur - _excluded(s) for name in names for s in by_name[name])
        return per_req(spent * 1e6, "us")

    return {
        "gateway.edge_ms": (
            _mean([latencies[r] - ms for r, ms in handle.items()]), "ms", len(handle)),
        "gateway.log_record_us": per_call_us("log_record"),
        "monitor.handle_ms": (_mean(list(handle.values())), "ms", len(handle)),
        "monitor.request_build_us": per_call_us("request_build"),
        "monitor.pre_probe_ms": per_req(sum(probes["pre"]) * 1e3, "ms"),
        "monitor.pre_probes_per_req": per_req(len(probes["pre"]), "1/req"),
        "monitor.post_probe_ms": per_req(sum(probes["post"]) * 1e3, "ms"),
        "monitor.post_probes_per_req": per_req(len(probes["post"]), "1/req"),
        "monitor.forward_ms": per_req(sum(probes["forward"]) * 1e3, "ms"),
        "monitor.upstream_connects_per_call": (
            len(by_name["upstream_connect"]) / max(upstream_served, 1), "1/call",
            upstream_served),
        "monitor.pre_eval_us": eval_us(PRE),
        "monitor.post_eval_us": eval_us(POST),
        "expr.evaluate_calls_per_req": per_req(len(by_name["evaluate"]), "1/req"),
        "expr.evaluate_us": per_call_us("evaluate", self_time=True),
        "expr.to_text_calls_per_req": per_req(len(by_name["to_text"]), "1/req"),
        "expr.to_text_us": per_call_us("to_text", self_time=True),
        "model.route_match_calls_per_req": per_req(len(by_name["route_match"]), "1/req"),
        "model.route_match_us": per_call_us("route_match"),
    }


# ---------------------------------------------------------------------------
# Microbenchmarks


BATCHES = 7
BATCH_S = 0.03  # rough length of one batch


def _per_call_s(fn) -> float:
    """Median over BATCHES batches of the mean seconds per call of fn()."""
    calls, t0 = 0, time.perf_counter()
    while time.perf_counter() - t0 < BATCH_S / 4:
        fn()
        calls += 1
    reps = max(1, int(calls * 4))
    means = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        means.append((time.perf_counter() - t0) / reps)
    return statistics.median(means)


def microbenchmarks(root: Path) -> dict:
    """Fixed inputs: the bundled model and its POST-token postcondition.
    Each value is the median of BATCHES batch means."""
    sys.path.insert(0, str(root / "src"))
    from contractgate import expr as E
    from contractgate.contracts import derive_contracts
    from contractgate.model import derive_routes, load_model, validate_model

    document = (root / "src" / "contractgate" / "fixtures" / "keystone.model").read_bytes()
    rm, bm, rules = load_model(document)
    routes = derive_routes(rm, bm)
    post = next(c.post for c in derive_contracts(bm, rules)
                if (c.method, c.uri_template) == ("POST", "/v3/auth/tokens"))
    now = datetime(2026, 8, 1, 12, tzinfo=timezone.utc)
    constant = E.count(1)
    paths = ["/v3/users/u-alice", "/v3/auth/tokens", "/v3/projects/p-demo", "/v3/roles"]

    def match_all():
        for p in paths:
            routes.match(p)

    micro = {
        "expr.evaluate_post_token_us": (1e6, lambda: E.evaluate(
            post, E.Environment(lambda p: constant, now, "post"))),
        "expr.to_text_post_token_us": (1e6, lambda: E.to_text(post)),
        "model.route_match_fixed_us": (1e6 / len(paths), match_all),
        "model.load_model_ms": (1e3, lambda: load_model(document)),
        "model.validate_model_ms": (1e3, lambda: validate_model(rm, bm, rules)),
        "model.derive_routes_ms": (1e3, lambda: derive_routes(rm, bm)),
        "contracts.derive_contracts_ms": (1e3, lambda: derive_contracts(bm, rules)),
    }
    return {name: (scale * _per_call_s(fn), name.rsplit("_", 1)[1], BATCHES)
            for name, (scale, fn) in micro.items()}
