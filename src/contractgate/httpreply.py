"""Request handler base for the gateway and the mock upstream: a reply
leaves in one write."""

from __future__ import annotations

from http.server import BaseHTTPRequestHandler


class OneWriteHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def _reply(self, status: int, headers: list[tuple[str, str]], body: bytes) -> None:
        """Send the status line, the headers and the body as one write.

        Sent as two writes (headers, then body), Nagle's algorithm holds the
        body back on a kept-alive connection until the client's delayed ACK,
        about 40 ms later.  A Content-Length is added when ``headers`` has
        none; the body is left out for HEAD."""
        message = self.responses[status][0] if status in self.responses else ""
        lines = [f"{self.protocol_version} {status} {message}"]
        has_length = False
        for name, value in headers:
            lowered = name.lower()
            if lowered == "content-length":
                has_length = True
            elif lowered == "connection" and value.lower() == "close":
                self.close_connection = True
            lines.append(f"{name}: {value}")
        if not has_length:
            lines.append(f"Content-Length: {len(body)}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1", "strict")
        self.wfile.write(head if self.command == "HEAD" else head + body)
