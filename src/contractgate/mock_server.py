"""HTTP server for the mock identity upstream (``mock_keystone``).

It stays on the stdlib's ``http.server``: as the benchmark's reference
service its replies must not move when the gateway's own HTTP edge does.
Only ``contractgate mock`` and the tests load this module.
"""

from __future__ import annotations

import json
from datetime import datetime
from email.utils import format_datetime
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional

from .httpreply import encode_reply
from .mock_keystone import DEFAULT_TTL_SECONDS, FaultProfile, IdentityStore, MockKeystone


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    service: MockKeystone = None  # set by make_server

    def _reply(self, status: int, headers: list[tuple[str, str]], body: bytes) -> None:
        """Send the whole reply in one write (see ``encode_reply``)."""
        data, closes = encode_reply(status, headers, body, self.command == "HEAD")
        if closes:
            self.close_connection = True
        self.wfile.write(data)

    def _dispatch(self) -> None:
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length) if length else b""
        headers = {k.lower(): v for k, v in self.headers.items()}
        path = self.path

        if path == "/__log":
            self._serve_log()
            return

        response = self.service.handle(self.command, path, headers, body)
        # deterministic Date from the injected clock so identically seeded
        # instances produce byte-identical responses
        date = format_datetime(self.service.store.clock(), usegmt=True)
        reply_headers = [("Date", date), *response.headers]
        payload = b""
        if response.body is not None:
            payload = json.dumps(response.body, sort_keys=True).encode("utf-8")
            reply_headers.append(("Content-Type", "application/json"))
        self._reply(response.status, reply_headers, payload)

    def _serve_log(self) -> None:
        if self.command == "DELETE":
            self.service.reset_log()
            payload = b"{}"
        else:
            payload = json.dumps(
                {
                    "requests": [{"method": m, "path": p}
                                 for m, p in self.service.request_log],
                    "side_effect_count": self.service.side_effect_count(),
                }
            ).encode("utf-8")
        self._reply(200, [("Content-Type", "application/json")], payload)

    do_GET = do_POST = do_PUT = do_DELETE = do_PATCH = _dispatch

    def log_message(self, fmt, *args):  # quiet by default
        pass


def make_server(
    service: MockKeystone, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    handler = type("BoundHandler", (_Handler,), {"service": service})
    return ThreadingHTTPServer((host, port), handler)


def serve_forever(
    host: str,
    port: int,
    seed: Optional[dict] = None,
    faults: FaultProfile = FaultProfile(),
    ttl_seconds: int = DEFAULT_TTL_SECONDS,
    clock: Optional[Callable[[], datetime]] = None,
) -> None:
    store = IdentityStore(seed=seed, clock=clock, ttl_seconds=ttl_seconds, faults=faults)
    service = MockKeystone(store)
    server = make_server(service, host, port)
    try:
        server.serve_forever()
    finally:
        server.server_close()
