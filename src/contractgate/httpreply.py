"""HTTP/1.1 framing shared by the gateway and the mock upstream: a reply
leaves in one write, and header blocks and upstream replies are read
strictly, without the stdlib's email.parser and http.client machinery."""

from __future__ import annotations

import re
import socket
import time
from http import HTTPStatus
from typing import Optional

MAX_LINE = 65536  # bytes in one request, status, header or chunk-size line
MAX_FIELDS = 100  # fields in one header block
REASONS = {status.value: status.phrase for status in HTTPStatus}  # reason phrases

TOKEN = re.compile(rb"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")  # RFC 9110 field name
_CR_LF_NUL = re.compile(rb"[\r\n\x00]")
_STATUS_LINE = re.compile(rb"HTTP/1\.([0-9]) ([1-9][0-9][0-9])(?: [^\r\n\x00]*)?\r\n")
_HEX = re.compile(rb"[0-9A-Fa-f]+")


class FramingError(ValueError):
    """A header block or reply that cannot be framed.  ``status`` is the
    answer the edge gives for it: 431 when it breaks a size limit, else 400."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


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
    malformed.  Several Content-Length values must be equal.  With no length
    the body runs to EOF and the connection is not reused.  A truncated reply
    is malformed."""
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
    if len(lengths) > 1 or any(not (v.isascii() and v.isdigit()) for v in lengths):
        raise FramingError("malformed Content-Length")
    codings = field_values(fields, "transfer-encoding")
    keep_alive = match[1] != b"0" and "close" not in field_tokens(fields, "connection")
    if method == "HEAD" or status in (204, 304):
        body = b""
    elif codings:
        if lengths or [c.lower() for c in codings] != ["chunked"]:
            raise FramingError("unsupported Transfer-Encoding")
        body = _read_chunked(reader)
    elif lengths:
        length = int(lengths.pop())
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
