"""HTTP/1.1 on the wire, the one module that frames it: requests read at
the gateway's edge, replies written by the gateway and the mock in one write,
and the upstream client with its pool.  Both edges are read strictly (RFC
9112), without the stdlib's email.parser and http.client machinery."""

from __future__ import annotations

import json
import re
import select
import socket
import threading
import time
from http import HTTPStatus
from typing import Optional
from urllib.parse import urlsplit

MAX_LINE = 65536  # bytes in one request, status, header or chunk-size line
MAX_FIELDS = 100  # fields in one header block
MAX_BODY_BYTES = 1 << 20  # longer request bodies are refused (413) unread
POOL_SIZE = 8  # idle kept-alive connections per upstream
REASONS = {status.value: status.phrase for status in HTTPStatus}  # reason phrases
HOP_BY_HOP = {
    "connection",
    "keep-alive",
    "proxy-authenticate",
    "proxy-authorization",
    "te",
    "trailer",
    "transfer-encoding",
    "upgrade",
}

TOKEN = re.compile(rb"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")  # RFC 9110 field name
_CR_LF_NUL = re.compile(rb"[\r\n\x00]")
_REQUEST_LINE = re.compile(
    rb"(" + TOKEN.pattern + rb") ([!-~]+) HTTP/([0-9])\.([0-9])\r\n"
)  # METHOD SP target (visible ASCII) SP HTTP-version CRLF
_METHODS = frozenset(("GET", "HEAD", "POST", "PUT", "DELETE", "PATCH"))  # else 501
_TARGET = re.compile(r"[!-~]+")  # no whitespace or control character
_STATUS_LINE = re.compile(rb"HTTP/1\.([0-9]) ([1-9][0-9][0-9])(?: [^\r\n\x00]*)?\r\n")
_HEX = re.compile(rb"[0-9A-Fa-f]+")
_UNSET = object()


class FramingError(ValueError):
    """A request or reply that cannot be framed.  ``status`` is the answer
    the gateway gives a request for it."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


def read_request_line(reader: SocketReader) -> Optional[tuple[str, str, bool]]:
    """The method, target and HTTP/1.0-ness of the next request line; None at
    EOF.  Past MAX_LINE bytes it is 414, for HTTP/2.0 or later 505, and 400
    unless ``METHOD SP target SP HTTP/1.x`` with a visible ASCII target.  As
    in the stdlib, a leading ``//`` collapses to ``/``."""
    line = reader.readline(MAX_LINE + 1)
    if not line:
        return None
    if len(line) > MAX_LINE:
        raise FramingError(REASONS[414], 414)
    match = _REQUEST_LINE.fullmatch(line)
    if match is None or match[3] == b"0":
        raise FramingError("malformed request line")
    if match[3] != b"1":
        raise FramingError("HTTP version not supported", 505)
    target = match[2].decode("ascii")
    if target.startswith("//"):
        target = "/" + target.lstrip("/")
    return match[1].decode("ascii"), target, match[4] == b"0"


def read_headers(reader: SocketReader) -> list[tuple[str, str]]:
    """Read a header block through its empty line, as (name, value) pairs in
    order and case.  Every line ends in CRLF; a line over MAX_LINE bytes, more
    than MAX_FIELDS fields, a line without a colon, a name that is not a token
    (an empty name, whitespace before the colon, obs-fold) and CR, LF or NUL
    inside a value are malformed."""
    fields: list[tuple[str, str]] = []
    while True:
        line = reader.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise FramingError("header line too long", 431)
        if line == b"\r\n":
            return fields
        if not line.endswith(b"\r\n"):
            raise FramingError("header block truncated or not CRLF-terminated")
        if len(fields) == MAX_FIELDS:
            raise FramingError("too many header fields", 431)
        name, colon, value = line[:-2].partition(b":")
        if not colon or not TOKEN.fullmatch(name):
            raise FramingError("malformed header line")
        value = value.strip(b" \t")
        if _CR_LF_NUL.search(value):
            raise FramingError("CR, LF or NUL inside a header field")
        fields.append((name.decode("latin-1"), value.decode("latin-1")))


def field_values(fields: list[tuple[str, str]], name: str) -> list[str]:
    """The values of every field called ``name`` (any case), in order."""
    name = name.lower()
    return [v for k, v in fields if k.lower() == name]


def field_tokens(fields: list[tuple[str, str]], name: str) -> set[str]:
    """The lowercased comma-separated elements of every field called ``name``."""
    return {
        token.strip().lower()
        for value in field_values(fields, name)
        for token in value.split(",")
    }


def request_framing(
    method: str, fields: list[tuple[str, str]], http_1_0: bool
) -> tuple[bool, int, bool]:
    """Whether the connection stays open after the request, its body length
    and whether the client waits for ``100 Continue``.  An unknown method is
    501; the body must be framed by one Content-Length, a non-negative
    integer (else 400) of at most MAX_BODY_BYTES (else 413), and any
    Transfer-Encoding is 411."""
    if method not in _METHODS:
        raise FramingError(f"Unsupported method ({method!r})", 501)
    if field_values(fields, "transfer-encoding"):
        raise FramingError("Transfer-Encoding is not supported; send Content-Length", 411)
    lengths = field_values(fields, "content-length")
    if len(lengths) > 1:
        raise FramingError("malformed Content-Length")
    length = _content_length(lengths[0]) if lengths else 0
    if length > MAX_BODY_BYTES:
        raise FramingError("request body too large", 413)
    connection = field_tokens(fields, "connection")
    keep_alive = "close" not in connection and (not http_1_0 or "keep-alive" in connection)
    expect = [v.lower() for v in field_values(fields, "expect")]
    return keep_alive, length, not http_1_0 and expect == ["100-continue"]


def _content_length(value: str) -> int:
    """A Content-Length value as a number: ASCII digits, else 400.  More
    than 18 digits after the leading zeros (10**18 bytes or more) is 413,
    decided before int(), which refuses a string of over 4300 digits."""
    if not (value.isascii() and value.isdigit()):
        raise FramingError("malformed Content-Length")
    digits = value.lstrip("0")
    if len(digits) > 18:
        raise FramingError("Content-Length too large", 413)
    return int(digits or "0")


class SocketReader:
    """Buffered reads from one socket.  Unlike io.BufferedReader it tells
    whether bytes past the last read are already buffered: a kept-alive
    connection holding such bytes would hand them to the next request.

    Past ``deadline`` (a time.monotonic() value) a read raises TimeoutError,
    so a peer that trickles bytes cannot hold a reader beyond it."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.deadline: Optional[float] = None
        self._buf = bytearray()

    @property
    def pending(self) -> bool:
        return bool(self._buf)

    def readline(self, limit: int) -> bytes:
        """Up to and including the next LF, at most ``limit`` bytes; fewer,
        without the LF, at EOF."""
        start = 0
        while True:
            end = self._buf.find(b"\n", start, limit)
            if end >= 0:
                return self._take(end + 1)
            start = len(self._buf)
            if start >= limit or not self._fill():
                return self._take(limit)

    def read(self, n: int) -> bytes:
        """``n`` bytes; fewer at EOF."""
        while len(self._buf) < n and self._fill():
            pass
        return self._take(n)

    def read_to_eof(self) -> bytes:
        while self._fill():
            pass
        return self._take(len(self._buf))

    def close(self) -> None:
        self.sock.close()

    def _fill(self) -> bool:
        if self.deadline is not None:
            left = self.deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError("read past the deadline")
            self.sock.settimeout(left)
        data = self.sock.recv(65536)
        self._buf += data
        return bool(data)

    def _take(self, n: int) -> bytes:
        data = bytes(self._buf[:n])
        del self._buf[:n]
        return data


def read_reply(
    reader: SocketReader, method: str
) -> tuple[int, list[tuple[str, str]], bytes, bool]:
    """Read the reply to one ``method`` request: its status, header fields,
    body and whether the connection can carry another request.

    The body is framed by RFC 9112 section 6.3.  Interim 1xx replies are
    skipped (101 is malformed: no upgrade is ever asked for).  A reply to
    HEAD, 204 and 304 has no body.  ``chunked`` is decoded and its trailers
    dropped; any other Transfer-Encoding, or one beside a Content-Length, is
    malformed.  Several Content-Length values must be equal, and no longer
    than 18 digits past leading zeros.  With no length the body runs to EOF
    and the connection is not reused.  A truncated reply is malformed."""
    while True:
        match = _STATUS_LINE.fullmatch(reader.readline(MAX_LINE + 1))
        if match is None:
            raise FramingError("malformed or missing status line")
        status = int(match[2])
        fields = read_headers(reader)
        if status == 101:
            raise FramingError("unrequested protocol switch")
        if status >= 200:
            break
    lengths = {
        part.strip()
        for value in field_values(fields, "content-length")
        for part in value.split(",")
    }
    if len(lengths) > 1:
        raise FramingError("malformed Content-Length")
    length = _content_length(lengths.pop()) if lengths else None
    codings = field_values(fields, "transfer-encoding")
    keep_alive = match[1] != b"0" and "close" not in field_tokens(fields, "connection")
    if method == "HEAD" or status in (204, 304):
        body = b""
    elif codings:
        if length is not None or [c.lower() for c in codings] != ["chunked"]:
            raise FramingError("unsupported Transfer-Encoding")
        body = _read_chunked(reader)
    elif length is not None:
        body = reader.read(length)
        if len(body) < length:
            raise FramingError("truncated body")
    else:
        body = reader.read_to_eof()
        keep_alive = False
    return status, fields, body, keep_alive


def _read_chunked(reader: SocketReader) -> bytes:
    chunks = []
    while True:
        line = reader.readline(MAX_LINE + 1)
        if not line.endswith(b"\r\n"):
            raise FramingError("truncated chunked body")
        size = line[:-2].split(b";", 1)[0].strip(b" \t")  # extensions ignored
        if not _HEX.fullmatch(size):
            raise FramingError("malformed chunk size")
        length = int(size, 16)
        if length == 0:
            read_headers(reader)  # trailer fields are dropped
            return b"".join(chunks)
        chunk = reader.read(length + 2)
        if len(chunk) < length + 2 or not chunk.endswith(b"\r\n"):
            raise FramingError("truncated or malformed chunk")
        chunks.append(chunk[:-2])


def encode_reply(
    status: int, headers: list[tuple[str, str]], body: bytes, head_only: bool = False
) -> tuple[bytes, bool]:
    """An HTTP/1.1 reply as the bytes of one write, and whether it closes the
    connection (it carries ``Connection: close``).

    Sent as two writes (headers, then body), Nagle's algorithm holds the body
    back on a kept-alive connection until the client's delayed ACK, about
    40 ms later.  A Content-Length is added when ``headers`` has none; the
    body is left out when ``head_only`` (a reply to HEAD)."""
    lines = [f"HTTP/1.1 {status} {REASONS.get(status, '')}"]
    has_length = closes = False
    for name, value in headers:
        lowered = name.lower()
        if lowered == "content-length":
            has_length = True
        elif lowered == "connection" and value.lower() == "close":
            closes = True
        lines.append(f"{name}: {value}")
    if not has_length:
        lines.append(f"Content-Length: {len(body)}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1", "strict")
    return (head if head_only else head + body), closes


class UpstreamError(ConnectionError):
    pass


def parse_json(raw: bytes) -> object:
    """``raw`` parsed as JSON; None when it is empty, not UTF-8 JSON, or
    nested deeper than the parser's recursion limit (about 1000 levels)."""
    if not raw:
        return None
    try:
        return json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError, RecursionError):
        return None


class UpstreamResponse:
    __slots__ = ("status", "headers", "body", "_doc")

    def __init__(self, status: int, headers: list[tuple[str, str]], body: bytes):
        self.status = status
        self.headers = headers
        self.body = body
        self._doc = _UNSET

    def json(self) -> Optional[object]:
        """The body parsed as JSON, or None when it is empty, not JSON or
        nested too deeply to parse.  Parsed once: every caller gets the same
        object, to read only."""
        if self._doc is _UNSET:
            self._doc = parse_json(self.body)
        return self._doc


class HttpUpstream:
    """Upstream client over kept-alive sockets.  Each request leaves in one
    write; the reply is read with ``read_reply``, keeping response header
    order and case so passing traffic can be relayed verbatim.

    Connections are kept alive in a bounded LIFO pool.  A GET that fails on a
    pooled connection, other than by timing out, is retried once on a fresh
    one; any other method is never resent, because the upstream may already
    have acted on it."""

    def __init__(self, base_url: str, timeout_s: float = 10.0):
        parts = urlsplit(base_url)
        if parts.scheme not in ("http", ""):
            raise ValueError(f"unsupported upstream scheme {parts.scheme!r}")
        self.host = parts.hostname or "127.0.0.1"
        self.port = parts.port or 80
        self.timeout_s = timeout_s
        host = f"[{self.host}]" if ":" in self.host else self.host
        self._host_field = host if self.port == 80 else f"{host}:{self.port}"
        self._idle: list[SocketReader] = []
        self._lock = threading.Lock()

    def request(
        self,
        method: str,
        path: str,
        headers: Optional[list[tuple[str, str]]] = None,
        body: bytes = b"",
        timeout_s: Optional[float] = None,
    ) -> UpstreamResponse:
        """Send one request and read its reply within ``timeout_s`` seconds
        (default: the upstream timeout); with no time left, nothing is sent.
        Raises UpstreamError when the request cannot be sent or the reply is
        late, missing, truncated or malformed."""
        timeout = self.timeout_s if timeout_s is None else timeout_s
        if timeout <= 0:
            raise UpstreamError("no time left for the upstream call")
        message = self._message(method, path, headers or [], body)
        conn = self._checkout(timeout)
        while True:
            pooled = conn is not None
            try:
                if conn is None:
                    conn = self._connect(timeout)
                conn.deadline = time.monotonic() + timeout
                conn.sock.sendall(message)
                status, fields, payload, keep_alive = read_reply(conn, method)
            except (OSError, FramingError) as exc:
                if conn is not None:
                    conn.close()
                if pooled and method == "GET" and not isinstance(exc, TimeoutError):
                    conn = None  # the pooled connection was stale: once more, fresh
                    continue
                # a malformed reply is as unusable as no reply (fail-closed)
                raise UpstreamError(str(exc)) from exc
            if keep_alive and not conn.pending:
                self._checkin(conn)
            else:
                conn.close()
            return UpstreamResponse(status, fields, payload)

    def _message(
        self, method: str, path: str, headers: list[tuple[str, str]], body: bytes
    ) -> bytes:
        """The request line, Host, the caller's headers minus hop-by-hop,
        Host and Content-Length, and one Content-Length when there is a body
        or the method carries one.  As http.client did, ``Accept-Encoding:
        identity`` is asked for unless the caller names an encoding, so that
        probe replies stay readable."""
        if not TOKEN.fullmatch(method.encode()) or not _TARGET.fullmatch(path):
            raise UpstreamError(f"refusing to send {method!r} {path!r}")
        lines = [f"{method} {path} HTTP/1.1", f"Host: {self._host_field}"]
        accept_encoding = False
        for name, value in headers:
            lowered = name.lower()
            if lowered in HOP_BY_HOP or lowered in ("host", "content-length"):
                continue
            # a character outside latin-1 is refused by the final encode
            raw_value = value.encode("latin-1", "replace")
            if not TOKEN.fullmatch(name.encode()) or _CR_LF_NUL.search(raw_value):
                raise UpstreamError(f"refusing to send header {name!r}")
            accept_encoding = accept_encoding or lowered == "accept-encoding"
            lines.append(f"{name}: {value}")
        if not accept_encoding:
            lines.append("Accept-Encoding: identity")
        if body or method in ("POST", "PUT", "PATCH"):
            lines.append(f"Content-Length: {len(body)}")
        lines.append("\r\n")
        try:
            return "\r\n".join(lines).encode("latin-1") + body
        except UnicodeEncodeError as exc:
            raise UpstreamError("header not encodable as latin-1") from exc

    def _connect(self, timeout: float) -> SocketReader:
        """A new connection to the upstream: the only place one is opened."""
        sock = socket.create_connection((self.host, self.port), timeout)
        # a request leaves in one write; Nagle would only delay it
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return SocketReader(sock)

    def _checkout(self, timeout: float) -> Optional[SocketReader]:
        """The most recently used idle connection that is still usable, with
        ``timeout`` set on its socket; None when there is none."""
        while True:
            with self._lock:
                if not self._idle:
                    return None
                conn = self._idle.pop()
            # an idle socket with something to read was closed by the peer
            # or holds stray bytes; either way no reply can be read from it.
            # poll, unlike select, takes descriptors of 1024 and more.
            readable = select.poll()
            readable.register(conn.sock, select.POLLIN)
            if readable.poll(0):
                conn.close()
                continue
            conn.sock.settimeout(timeout)
            return conn

    def _checkin(self, conn: SocketReader) -> None:
        with self._lock:
            if len(self._idle) < POOL_SIZE:
                self._idle.append(conn)
                return
        conn.close()

    def close(self) -> None:
        """Close the idle connections."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()
