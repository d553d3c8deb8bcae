"""Operational wiring: HTTP listener, configuration, violation-log
persistence and the /healthz and /contracts endpoints."""

from __future__ import annotations

import hashlib
import json
import logging
import os
import queue
import threading
from dataclasses import dataclass, replace
from http.server import ThreadingHTTPServer
from pathlib import Path
from typing import Optional

from . import expr as E
from .contracts import derive_contracts, render_contracts
from .httpreply import OneWriteHandler
from .model import derive_routes, load_model, validate_model
from .monitor import HttpUpstream, Monitor, RequestContext, ViolationRecord

log = logging.getLogger(__name__)

ENV_PREFIX = "CONTRACTGATE_"
MAX_BODY_BYTES = 1 << 20  # longer request bodies are refused (413) unread


@dataclass
class GatewayConfig:
    listen_address: str = "127.0.0.1:8080"
    upstream_base_url: str = ""
    model_path: str = ""
    log_path: Optional[str] = None
    probe_timeout_ms: int = 2000
    upstream_timeout_ms: int = 10000
    paper_status: bool = False
    audit_get: bool = False
    expires_reading: str = "corrected"  # or "paper"

    def __post_init__(self):
        self.apply_env_overrides()
        if self.probe_timeout_ms <= 0 or self.upstream_timeout_ms <= 0:
            raise ValueError("timeouts must be positive")
        if self.expires_reading not in ("paper", "corrected"):
            raise ValueError("expires_reading must be 'paper' or 'corrected'")

    def apply_env_overrides(self) -> None:
        mapping = {
            "LISTEN": "listen_address",
            "UPSTREAM": "upstream_base_url",
            "MODEL": "model_path",
            "LOG": "log_path",
            "PROBE_TIMEOUT_MS": "probe_timeout_ms",
            "UPSTREAM_TIMEOUT_MS": "upstream_timeout_ms",
            "PAPER_STATUS": "paper_status",
            "AUDIT_GET": "audit_get",
            "EXPIRES_READING": "expires_reading",
        }
        for suffix, attr in mapping.items():
            raw = os.environ.get(ENV_PREFIX + suffix)
            if raw is None:
                continue
            current = getattr(self, attr)
            if isinstance(current, bool):
                setattr(self, attr, raw.lower() in ("1", "true", "yes", "on"))
            elif isinstance(current, int):
                setattr(self, attr, int(raw))
            else:
                setattr(self, attr, raw)


def flip_clock_comparisons(e: E.Expression) -> E.Expression:
    """Swap the operands of ordering comparisons that involve the clock,
    selecting the alternative reading of token-freshness invariants."""

    def flip(node: E.Expression) -> E.Expression:
        if (
            isinstance(node, E.Compare)
            and node.op in ("<", "<=", ">", ">=")
            and isinstance(node.left, E.ClockTime) != isinstance(node.right, E.ClockTime)
        ):
            return E.Compare(node.op, node.right, node.left)
        return node

    return E.transform(e, flip)


class ViolationLog:
    """Append-only JSONL sink fed through a bounded queue by a single writer
    thread; overload drops the oldest entries and counts the drops instead of
    blocking request handling."""

    def __init__(self, path: Optional[str], max_queue: int = 1024):
        self.path = path
        self.queue: queue.Queue = queue.Queue(maxsize=max_queue)
        self.dropped = 0
        self.written = 0
        self._lock = threading.Lock()
        self._closing = threading.Event()
        self._thread = threading.Thread(target=self._writer, daemon=True)
        self._thread.start()

    def record(self, violation: ViolationRecord) -> None:
        line = json.dumps(violation.to_json(), sort_keys=True)
        while True:
            try:
                self.queue.put_nowait(line)
                return
            except queue.Full:
                try:
                    self.queue.get_nowait()
                    with self._lock:
                        self.dropped += 1
                except queue.Empty:
                    pass

    def _writer(self) -> None:
        """Drain the queue into the file, which stays open for the writer's
        life and is flushed whenever the queue runs empty."""
        fh = None
        try:
            while not self._closing.is_set() or not self.queue.empty():
                try:
                    line = self.queue.get(timeout=0.1)
                except queue.Empty:
                    continue
                try:
                    if self.path:
                        if fh is None:
                            fh = open(self.path, "a", encoding="utf-8")
                        fh.write(line + "\n")
                        if self.queue.empty():
                            fh.flush()
                    with self._lock:
                        self.written += 1
                except OSError as exc:
                    log.warning("violation log write failed: %s", exc)
        finally:
            if fh is not None:
                fh.close()

    def close(self) -> None:
        self._closing.set()
        self._thread.join(timeout=5.0)


@dataclass
class Gateway:
    config: GatewayConfig
    monitor: Monitor
    contracts_text: str
    model_checksum: str
    violation_log: ViolationLog
    server: Optional[ThreadingHTTPServer] = None

    @property
    def port(self) -> int:
        return self.server.server_address[1] if self.server else 0


def build_gateway(cfg: GatewayConfig) -> Gateway:
    """Load and validate the model, derive routes and contracts, and wire the
    monitor; raises on an invalid model or unreadable paths."""
    document = Path(cfg.model_path).read_bytes()
    rm, bm, rules = load_model(document)
    diagnostics = validate_model(rm, bm, rules)
    if diagnostics:
        raise ValueError("invalid model: " + "; ".join(diagnostics))

    if cfg.expires_reading == "paper":
        flip = flip_clock_comparisons
        bm = replace(
            bm,
            states=tuple(replace(s, invariant=flip(s.invariant)) for s in bm.states),
            transitions=tuple(
                replace(
                    t,
                    guard=flip(t.guard) if t.guard else None,
                    effect=flip(t.effect) if t.effect else None,
                )
                for t in bm.transitions
            ),
        )

    routes = derive_routes(rm, bm)
    contracts = derive_contracts(bm, rules)
    monitor = Monitor(
        rm,
        routes,
        contracts,
        HttpUpstream(cfg.upstream_base_url, timeout_s=cfg.upstream_timeout_ms / 1000.0),
        probe_timeout_s=cfg.probe_timeout_ms / 1000.0,
        paper_status=cfg.paper_status,
        audit_get=cfg.audit_get,
        state_invariants=[(s.name, s.invariant) for s in bm.states],
    )
    return Gateway(
        config=cfg,
        monitor=monitor,
        contracts_text=render_contracts(contracts),
        model_checksum=hashlib.sha256(document).hexdigest(),
        violation_log=ViolationLog(cfg.log_path),
    )


class _GatewayHandler(OneWriteHandler):
    gateway: Gateway = None  # bound by make_server

    def _dispatch(self) -> None:
        gw = self.gateway
        refusal = self._framing_refusal()
        if refusal is not None:
            status, message = refusal
            self.close_connection = True
            self._reply(
                status,
                [("Content-Type", "application/json"), ("Connection", "close")],
                json.dumps({"error": message}).encode(),
            )
            return
        length = int(self.headers.get("Content-Length") or 0)
        raw_body = self.rfile.read(length) if length else b""

        if self.path == "/healthz" and self.command == "GET":
            self._reply(
                200,
                [("Content-Type", "application/json")],
                json.dumps(
                    {
                        "status": "ok",
                        "model_sha256": gw.model_checksum,
                        "log_dropped": gw.violation_log.dropped,
                    }
                ).encode(),
            )
            return
        if self.path == "/contracts" and self.command == "GET":
            self._reply(
                200,
                [("Content-Type", "text/plain; charset=utf-8")],
                gw.contracts_text.encode("utf-8"),
            )
            return

        ctx = RequestContext.build(
            self.command, self.path, dict(self.headers.items()), raw_body
        )
        result = gw.monitor.handle(ctx, raw_body)
        if result.violation is not None:
            gw.violation_log.record(result.violation)
        self._reply(result.status, result.headers, result.body)

    def _framing_refusal(self) -> Optional[tuple[int, str]]:
        """Status and message for a request body the gateway will not read.
        The connection is then closed, so no unread body bytes can be taken
        for a further request on it."""
        if "Transfer-Encoding" in self.headers:
            return 411, "Transfer-Encoding is not supported; send Content-Length"
        lengths = self.headers.get_all("Content-Length") or []
        if len(lengths) > 1 or any(not (v.isascii() and v.isdigit()) for v in lengths):
            return 400, "malformed Content-Length"
        if lengths and int(lengths[0]) > MAX_BODY_BYTES:
            return 413, "request body too large"
        return None

    do_GET = do_POST = do_PUT = do_DELETE = do_PATCH = do_HEAD = _dispatch

    def log_message(self, fmt, *args):
        pass


def make_server(gateway: Gateway) -> ThreadingHTTPServer:
    host, _, port = gateway.config.listen_address.partition(":")
    handler = type("BoundGatewayHandler", (_GatewayHandler,), {"gateway": gateway})
    server = ThreadingHTTPServer((host or "127.0.0.1", int(port or 0)), handler)
    gateway.server = server
    return server
