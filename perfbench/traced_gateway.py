"""`contractgate run` with spans recorded around each layer's public calls.

    python3 perfbench/traced_gateway.py SPANS.json run --listen ... --upstream ...

Everything after SPANS.json is passed to the contractgate CLI unchanged.
Spans stay in memory and are written to SPANS.json, with the violation
log's counters, once the gateway shuts down on SIGINT.  A span is
(id, parent id, name, start, end, request id); times are
time.perf_counter() seconds, a monotonic clock shared with the client.
"""

from __future__ import annotations

import http.client
import itertools
import json
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from contractgate import cli, expr, gateway, model, monitor  # noqa: E402


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    (sid, parent, name, start, end, getattr(self._local, "rid", None))
                )
        return traced

    def set_request(self, headers: dict) -> None:
        """Tag this handler thread's next spans with the X-Request-Id."""
        self._local.rid = next(
            (v for k, v in headers.items() if k.lower() == "x-request-id"), None
        )


def install(tracer: Tracer) -> dict:
    """Wrap the layer entry points; returns a dict that receives the
    Gateway object once the CLI has built it."""
    built: dict = {}
    M = monitor.Monitor
    for name in ("handle", "resolve_pre_env", "check_precondition",
                 "resolve_post_env", "check_postcondition"):
        setattr(M, name, tracer.wrap(name, getattr(M, name)))
    monitor.HttpUpstream.request = tracer.wrap(
        "upstream_request", monitor.HttpUpstream.request)
    http.client.HTTPConnection.connect = tracer.wrap(
        "upstream_connect", http.client.HTTPConnection.connect)
    expr.evaluate = tracer.wrap("evaluate", expr.evaluate)
    expr.to_text = tracer.wrap("to_text", expr.to_text)
    model.RouteTable.match = tracer.wrap("route_match", model.RouteTable.match)
    gateway.ViolationLog.record = tracer.wrap("log_record", gateway.ViolationLog.record)

    build = monitor.RequestContext.build.__func__
    traced_build = tracer.wrap("request_build", build)

    def request_build(cls, method, uri, headers, *args, **kwargs):
        tracer.set_request(headers)
        return traced_build(cls, method, uri, headers, *args, **kwargs)

    monitor.RequestContext.build = classmethod(request_build)

    build_gateway = cli.build_gateway

    def capture(cfg):
        built["gateway"] = build_gateway(cfg)
        return built["gateway"]

    cli.build_gateway = capture
    return built


def main(argv: list) -> int:
    spans_path, cli_args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    built = install(tracer)
    code = cli.main(cli_args)
    log = built["gateway"].violation_log if "gateway" in built else None
    spans_path.write_text(json.dumps({
        "spans": list(tracer.spans),
        "log_written": log.written if log else 0,
        "log_dropped": log.dropped if log else 0,
    }))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
