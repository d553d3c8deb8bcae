"""Operational wiring: HTTP listener, configuration, violation-log
persistence and the /healthz and /contracts endpoints."""

from __future__ import annotations

import json
import logging
import socketserver
import threading
from collections import deque
from pathlib import Path
from typing import Optional

# CPython's built-in SHA-256: hashlib would map OpenSSL (about 4 MB resident)
# into the gateway for one checksum at boot
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10, 3.11
    except ImportError:
        from hashlib import sha256

from . import expr as E
from .contracts import derive_contracts, render_contracts
from .httpreply import (
    FramingError,
    HttpUpstream,
    SocketReader,
    encode_reply,
    read_headers,
    read_request_line,
    request_framing,
)
from .model import derive_routes, load_model, validate_model
from .monitor import Monitor, RequestContext, ViolationRecord

log = logging.getLogger(__name__)

CLIENT_TIMEOUT_S = 60.0  # a client connection idle or stalled this long is closed
FLUSH_INTERVAL_S = 0.05  # the violation-log writer wakes this often


class GatewayConfig:
    """One gateway's settings as passed; only the CLI reads CONTRACTGATE_* variables."""

    __slots__ = ("listen_address", "upstream_base_url", "model_path", "log_path",
                 "probe_timeout_ms", "upstream_timeout_ms", "paper_status", "audit_get",
                 "expires_reading")

    def __init__(
        self,
        listen_address: str = "127.0.0.1:8080",
        upstream_base_url: str = "",
        model_path: str = "",
        log_path: Optional[str] = None,
        probe_timeout_ms: int = 2000,
        upstream_timeout_ms: int = 10000,
        paper_status: bool = False,
        audit_get: bool = False,
        expires_reading: str = "corrected",  # or "paper"
    ):
        if probe_timeout_ms <= 0 or upstream_timeout_ms <= 0:
            raise ValueError("timeouts must be positive")
        if expires_reading not in ("paper", "corrected"):
            raise ValueError("expires_reading must be 'paper' or 'corrected'")
        self.listen_address = listen_address
        self.upstream_base_url = upstream_base_url
        self.model_path = model_path
        self.log_path = log_path
        self.probe_timeout_ms = probe_timeout_ms
        self.upstream_timeout_ms = upstream_timeout_ms
        self.paper_status = paper_status
        self.audit_get = audit_get
        self.expires_reading = expires_reading

    def __eq__(self, other: object) -> bool:
        if type(other) is not GatewayConfig:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)


def flip_clock_comparisons(e: E.Expression) -> E.Expression:
    """Swap the operands of ordering comparisons that involve the clock,
    selecting the alternative reading of token-freshness invariants."""

    def flip(node: E.Expression) -> E.Expression:
        if not isinstance(node, E.Compare):
            return node
        # a formula operand of a comparison is evaluated, so flip inside it
        left, right = flip_clock_comparisons(node.left), flip_clock_comparisons(node.right)
        clock = isinstance(left, E.ClockTime) != isinstance(right, E.ClockTime)
        if clock and node.op in E.ORDERING_OPS:
            left, right = right, left
        return E.Compare(node.op, left, right)

    return E.transform(e, flip)


class ViolationLog:
    """Append-only JSONL sink.  ``record`` only appends to a bounded buffer
    and never wakes the writer; one writer thread takes the buffer every
    ``FLUSH_INTERVAL_S`` (at once on ``close``), encodes it and writes it with
    one write.  Overload drops the oldest records, and records that cannot be
    encoded or written, or arrive after ``close``, are dropped too; every drop
    is counted instead of blocking request handling."""

    def __init__(self, path: Optional[str], max_queue: int = 1024):
        self.path = path
        self.dropped = 0
        self.written = 0
        self._buffer: deque = deque(maxlen=max_queue)
        self._lock = threading.Lock()
        self._closing = threading.Event()
        self._thread = threading.Thread(target=self._writer, daemon=True)
        self._thread.start()

    def record(self, violation: ViolationRecord) -> None:
        with self._lock:
            if self._closing.is_set():  # the writer may have taken its last batch
                self.dropped += 1
                return
            if len(self._buffer) == self._buffer.maxlen:
                self.dropped += 1  # the append below pushes out the oldest
            self._buffer.append(violation)

    @property
    def buffered(self) -> int:
        """Records waiting for the writer."""
        return len(self._buffer)

    @property
    def writer_alive(self) -> bool:
        return self._thread.is_alive()

    def _writer(self) -> None:
        """Write the buffer out on every wake-up until closed."""
        while True:
            closing = self._closing.wait(FLUSH_INTERVAL_S)
            with self._lock:
                batch = self._buffer
                self._buffer = deque(maxlen=batch.maxlen)
            if batch:
                self._write_batch(batch)
            if closing:
                return

    def _write_batch(self, batch: deque) -> None:
        """Encode one batch and append it to the file in one write; the file
        is opened per batch, so a failed open or write costs only its batch."""
        lines = []
        for violation in batch:
            try:
                lines.append(json.dumps(violation.to_json(), sort_keys=True) + "\n")
            except Exception:  # one bad record must not stop the writer
                log.warning("violation record not encodable, dropped", exc_info=True)
        written = len(lines)
        if self.path and lines:
            try:
                with open(self.path, "a", encoding="utf-8") as fh:
                    fh.write("".join(lines))
            except OSError as exc:
                log.warning("violation log write failed, %d records dropped: %s",
                            written, exc)
                written = 0
        with self._lock:
            self.written += written
            self.dropped += len(batch) - written

    def close(self) -> None:
        self._closing.set()
        self._thread.join(timeout=5.0)


class Gateway:
    __slots__ = ("config", "monitor", "contracts_text", "model_checksum", "violation_log",
                 "server")

    def __init__(
        self,
        config: GatewayConfig,
        monitor: Monitor,
        contracts_text: str,
        model_checksum: str,
        violation_log: ViolationLog,
        server: Optional[socketserver.ThreadingTCPServer] = None,
    ):
        self.config = config
        self.monitor = monitor
        self.contracts_text = contracts_text
        self.model_checksum = model_checksum
        self.violation_log = violation_log
        self.server = server

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
        bm = bm._replace(
            states=tuple(s._replace(invariant=flip(s.invariant)) for s in bm.states),
            transitions=tuple(
                t._replace(
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
        model_checksum=sha256(document).hexdigest(),
        violation_log=ViolationLog(cfg.log_path),
    )


class _GatewayHandler(socketserver.BaseRequestHandler):
    """One client connection: its requests are read and answered in turn
    until either side asks to close it, a request is refused, or the client
    stays idle or stalled for ``timeout`` seconds, which closes it without a
    reply.  A request that cannot be framed is refused with the status of its
    ``FramingError``, and the refusal closes the connection, so no unread
    bytes can be taken for a further request."""

    gateway: Gateway = None  # bound by make_server
    timeout = CLIENT_TIMEOUT_S

    def handle(self) -> None:
        reader = SocketReader(self.request)
        try:
            self.request.settimeout(self.timeout)
            while self._serve_one(reader):
                pass
        except OSError:
            # the client stalled or went away, or the server closed the
            # socket under the handler: close without a reply
            pass

    def _serve_one(self, reader: SocketReader) -> bool:
        """Read and answer one request; whether the connection stays open."""
        method = ""  # a refusal before the method is read is no reply to HEAD
        try:
            request_line = read_request_line(reader)
            if request_line is None:
                return False
            method, path, http_1_0 = request_line
            headers = read_headers(reader)
            keep_alive, length, expect = request_framing(method, headers, http_1_0)
            if expect:  # the body is wanted
                self.request.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
            raw_body = reader.read(length)
            if len(raw_body) < length:
                raise FramingError("request body shorter than its Content-Length")
        except FramingError as exc:
            return self._refuse(method, exc.status, str(exc))
        closes = self._reply(method, *self._answer(method, path, headers, raw_body))
        return keep_alive and not closes

    def _answer(
        self, method: str, path: str, headers: list[tuple[str, str]], raw_body: bytes
    ) -> tuple[int, list[tuple[str, str]], bytes]:
        """Status, header fields and body of the reply to one request."""
        gw = self.gateway
        if path == "/healthz" and method == "GET":
            vlog = gw.violation_log
            alive = vlog.writer_alive
            return (
                200 if alive else 503,
                [("Content-Type", "application/json")],
                json.dumps(
                    {
                        "status": "ok" if alive else "violation log writer down",
                        "model_sha256": gw.model_checksum,
                        "log_dropped": vlog.dropped,
                        "log_buffered": vlog.buffered,
                        "log_writer_alive": alive,
                    }
                ).encode(),
            )
        if path == "/contracts" and method == "GET":
            return (
                200,
                [("Content-Type", "text/plain; charset=utf-8")],
                gw.contracts_text.encode("utf-8"),
            )
        ctx = RequestContext.build(method, path, dict(headers), raw_body)
        result = gw.monitor.handle(ctx, raw_body)
        if result.violation is not None:
            gw.violation_log.record(result.violation)
        return result.status, result.headers, result.body

    def _refuse(self, method: str, status: int, message: str) -> bool:
        """Answer with a JSON error and close the connection."""
        self._reply(
            method,
            status,
            [("Content-Type", "application/json"), ("Connection", "close")],
            json.dumps({"error": message}).encode(),
        )
        return False

    def _reply(
        self, method: str, status: int, headers: list[tuple[str, str]], body: bytes
    ) -> bool:
        """Send one reply in one write; whether it closes the connection."""
        data, closes = encode_reply(status, headers, body, method == "HEAD")
        self.request.sendall(data)
        return closes


class _GatewayServer(socketserver.ThreadingTCPServer):
    daemon_threads = True  # one thread per connection, never joined
    allow_reuse_address = True


def make_server(gateway: Gateway) -> socketserver.ThreadingTCPServer:
    host, _, port = gateway.config.listen_address.partition(":")
    handler = type("BoundGatewayHandler", (_GatewayHandler,), {"gateway": gateway})
    server = _GatewayServer((host or "127.0.0.1", int(port or 0)), handler)
    gateway.server = server
    return server
