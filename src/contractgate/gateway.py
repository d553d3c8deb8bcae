"""Operational wiring: HTTP listener, configuration, violation-log
persistence and the /healthz and /contracts endpoints."""

from __future__ import annotations

import hashlib
import json
import logging
import os
import queue
import re
import threading
from dataclasses import dataclass, replace
from http.server import ThreadingHTTPServer
from pathlib import Path
from typing import Optional

from . import expr as E
from .contracts import derive_contracts, render_contracts
from .httpreply import (
    TOKEN,
    FramingError,
    OneWriteHandler,
    field_tokens,
    field_values,
    read_headers,
)
from .model import derive_routes, load_model, validate_model
from .monitor import HttpUpstream, Monitor, RequestContext, ViolationRecord

log = logging.getLogger(__name__)

ENV_PREFIX = "CONTRACTGATE_"
MAX_BODY_BYTES = 1 << 20  # longer request bodies are refused (413) unread
CLIENT_TIMEOUT_S = 60.0  # a client connection idle or stalled this long is closed
_REQUEST_LINE = re.compile(
    rb"(" + TOKEN.pattern + rb") ([!-~]+) HTTP/([0-9])\.([0-9])\r\n"
)  # METHOD SP target (visible ASCII) SP HTTP-version CRLF


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
                if line is None:  # close() waking the writer
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
        try:
            self.queue.put_nowait(None)  # wake the writer now, not at its next poll
        except queue.Full:
            pass  # the writer is busy draining anyway
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
    timeout = CLIENT_TIMEOUT_S  # the stdlib closes the connection on TimeoutError

    def parse_request(self) -> bool:
        """Read the request line and the header block strictly, in place of
        the stdlib's parser.  The line must be ``METHOD SP target SP
        HTTP/1.x``: HTTP/2 or later gets 505, anything else 400; a malformed
        header block gets 400 (431 past a size limit).  A refusal closes the
        connection.  ``self.headers`` holds the (name, value) pairs."""
        self.command = None
        self.close_connection = True
        match = _REQUEST_LINE.fullmatch(self.raw_requestline)
        if match is None or match[3] == b"0":
            return self._refuse(400, "malformed request line")
        if match[3] != b"1":
            return self._refuse(505, "HTTP version not supported")
        self.command = match[1].decode("ascii")
        self.path = match[2].decode("ascii")
        if self.path.startswith("//"):  # as the stdlib: no scheme-relative path
            self.path = "/" + self.path.lstrip("/")
        self.request_version = f"HTTP/1.{match[4].decode()}"
        http_1_1 = match[4] != b"0"
        try:
            self.headers = read_headers(self.rfile)
        except FramingError as exc:
            return self._refuse(exc.status, str(exc))
        connection = field_tokens(self.headers, "connection")
        self.close_connection = "close" in connection or (
            not http_1_1 and "keep-alive" not in connection
        )
        return True

    def send_error(self, code: int, message: Optional[str] = None, explain=None) -> None:
        """The stdlib's own refusals (a request line over 65536 bytes, an
        unknown method) are answered like the gateway's."""
        self._refuse(code, message or self.responses[code][0])

    def _refuse(self, status: int, message: str) -> bool:
        """Answer with a JSON error and close the connection, so no unread
        bytes can be taken for a further request on it."""
        self._reply(
            status,
            [("Content-Type", "application/json"), ("Connection", "close")],
            json.dumps({"error": message}).encode(),
        )
        return False

    def _dispatch(self) -> None:
        gw = self.gateway
        refusal = self._framing_refusal()
        if refusal is not None:
            self._refuse(*refusal)
            return
        expect = field_values(self.headers, "expect")
        if self.request_version != "HTTP/1.0" and [v.lower() for v in expect] == ["100-continue"]:
            self.handle_expect_100()  # only once the body will be read
        lengths = field_values(self.headers, "content-length")
        length = int(lengths[0]) if lengths else 0
        raw_body = self.rfile.read(length) if length else b""
        if len(raw_body) < length:
            self._refuse(400, "request body shorter than its Content-Length")
            return

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

        ctx = RequestContext.build(self.command, self.path, dict(self.headers), raw_body)
        result = gw.monitor.handle(ctx, raw_body)
        if result.violation is not None:
            gw.violation_log.record(result.violation)
        self._reply(result.status, result.headers, result.body)

    def _framing_refusal(self) -> Optional[tuple[int, str]]:
        """Status and message for a request body the gateway will not read."""
        if field_values(self.headers, "transfer-encoding"):
            return 411, "Transfer-Encoding is not supported; send Content-Length"
        lengths = field_values(self.headers, "content-length")
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
