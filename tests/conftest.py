"""Shared fixtures: loaded fixture model, derived contracts, and an
in-process mock + gateway harness."""

import http.client
import json
import os
import socket
import threading
from dataclasses import dataclass, field
from typing import Optional

import pytest

from contractgate import keystone_fixture_path
from contractgate import mock_keystone as mk
from contractgate import mock_server as ms
from contractgate.contracts import Contract, derive_contracts
from contractgate.gateway import Gateway, GatewayConfig, build_gateway, make_server
from contractgate.model import load_model


# Reference transcriptions of the expected POST-token and DELETE-user
# contracts, used as golden oracles for logical-equivalence checks.
GOLDEN = {
    ("POST", "/v3/auth/tokens", "pre"): (
        "self.processing = False and "
        "(user.credential->size()=1 or token.token->size()=1 and "
        "clockTime <= token.expires_at) and "
        "((request.scope->size()=1 and request.scope <> 'unscope' and "
        "not request.scope.oclIsInvalid()) or "
        "(request.scope->size()=0 or request.scope.oclIsInvalid() or "
        "request.scope = 'unscope'))"
    ),
    ("POST", "/v3/auth/tokens", "post"): (
        "(self.processing = False and "
        "(user.credential->size()=1 or token.token->size()=1 and "
        "clockTime <= token.expires_at) "
        "==> self.processing = False and token.token->size()=1 and "
        "clockTime <= token.expires_at) and "
        "(request.scope->size()=1 and request.scope <> 'unscope' and "
        "not request.scope.oclIsInvalid() "
        "==> token.token->size()=1 and token.catalog->size()=1) and "
        "(request.scope->size()=0 or request.scope.oclIsInvalid() or "
        "request.scope = 'unscope' "
        "==> token.token->size()=1 and token.catalog->size()=0)"
    ),
    ("DELETE", "/v3/users/{user_id}", "pre"): (
        "self.processing = False and token.token->size()=1 and "
        "clockTime <= token.expires_at and user.id->size()=1 and "
        "user.role = 'admin'"
    ),
    ("DELETE", "/v3/users/{user_id}", "post"): (
        "self.processing = False and token.token->size()=1 and "
        "clockTime <= token.expires_at and user.id->size()=1 "
        "==> token.token->size()=1 and user.id->size()=0 and "
        "user.role = 'admin'"
    ),
}


@pytest.fixture(autouse=True)
def _no_gateway_environment(monkeypatch):
    """The `run` parser reads CONTRACTGATE_* variables as its flags'
    defaults; clear them so the caller's shell cannot change a test."""
    for name in list(os.environ):
        if name.startswith("CONTRACTGATE_"):
            monkeypatch.delenv(name)


def password_body(name: str, password: str, scope=None) -> dict:
    auth = {
        "identity": {
            "methods": ["password"],
            "password": {"user": {"name": name, "password": password}},
        }
    }
    if scope is not None:
        auth["scope"] = scope
    return {"auth": auth}


def token_body(token_id: str, scope=None) -> dict:
    auth = {"identity": {"methods": ["token"], "token": {"id": token_id}}}
    if scope is not None:
        auth["scope"] = scope
    return {"auth": auth}


def http_call(port: int, method: str, path: str, body=None, headers=None,
              raw: Optional[bytes] = None):
    """Issue one request to 127.0.0.1:port; returns (status, headers, body)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=15)
    payload = raw
    if payload is None and body is not None:
        payload = json.dumps(body).encode("utf-8")
    conn.request(method, path, body=payload, headers=headers or {})
    resp = conn.getresponse()
    data = resp.read()
    result = (resp.status, resp.getheaders(), data)
    conn.close()
    return result


@dataclass
class Harness:
    store: mk.IdentityStore
    service: mk.MockKeystone
    gateway: Gateway
    mock_port: int
    port: int
    _servers: list = field(default_factory=list)

    def call(self, method, path, body=None, headers=None, raw=None):
        return http_call(self.port, method, path, body=body, headers=headers, raw=raw)

    def call_mock(self, method, path, body=None, headers=None, raw=None):
        return http_call(self.mock_port, method, path, body=body,
                         headers=headers, raw=raw)

    def authenticate(self, name: str, password: str, scope=None) -> str:
        status, headers, _ = self.call(
            "POST", "/v3/auth/tokens", password_body(name, password, scope)
        )
        assert status == 201, f"authentication failed with {status}"
        return dict(headers)["X-Subject-Token"]

    def close(self):
        for server in self._servers:
            server.shutdown()
            server.server_close()
        self.gateway.monitor.upstream.close()
        self.gateway.violation_log.close()


def boot_gateway(upstream_url: str, **config_overrides):
    """Build the fixture-model gateway for ``upstream_url`` and serve it on
    an ephemeral port; returns the gateway and its server."""
    cfg = GatewayConfig(
        listen_address="127.0.0.1:0",
        upstream_base_url=upstream_url,
        model_path=keystone_fixture_path(),
        **config_overrides,
    )
    gateway = build_gateway(cfg)
    server = make_server(gateway)
    threading.Thread(target=server.serve_forever,
                     kwargs={"poll_interval": 0.02}, daemon=True).start()
    return gateway, server


def boot_harness(faults: mk.FaultProfile = mk.FaultProfile(), *,
                 clock=None, seed=None, log_path=None,
                 **config_overrides) -> Harness:
    store = mk.IdentityStore(seed=seed, clock=clock, faults=faults)
    service = mk.MockKeystone(store)
    mock_server = ms.make_server(service)
    threading.Thread(target=mock_server.serve_forever,
                     kwargs={"poll_interval": 0.02}, daemon=True).start()
    mock_port = mock_server.server_address[1]
    gateway, gateway_server = boot_gateway(
        f"http://127.0.0.1:{mock_port}", log_path=log_path, **config_overrides
    )

    return Harness(
        store=store,
        service=service,
        gateway=gateway,
        mock_port=mock_port,
        port=gateway_server.server_address[1],
        _servers=[mock_server, gateway_server],
    )


@pytest.fixture
def harness_factory():
    created = []

    def factory(*args, **kwargs):
        h = boot_harness(*args, **kwargs)
        created.append(h)
        return h

    yield factory
    for h in created:
        h.close()


@pytest.fixture
def harness(harness_factory):
    return harness_factory()


class RawUpstream:
    """A scripted upstream on a raw socket.  Each request it reads is
    logged in ``requests`` and answered with the bytes ``respond(method,
    target)`` returns, sent as they are; None leaves it unanswered.  Unless
    ``keep_alive``, the connection is closed after each reply; ``respond``
    may also return a (bytes, close) pair to decide per reply."""

    def __init__(self, respond, keep_alive: bool = False):
        self.respond = respond
        self.keep_alive = keep_alive
        self.requests: list[tuple[str, str]] = []
        self.accepted = 0
        self._conns: list[socket.socket] = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.url = f"http://127.0.0.1:{self._listener.getsockname()[1]}"
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            self.accepted += 1
            self._conns.append(conn)
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn: socket.socket) -> None:
        buf = b""
        try:
            while True:
                while b"\r\n\r\n" not in buf:
                    data = conn.recv(65536)
                    if not data:
                        return
                    buf += data
                head, _, buf = buf.partition(b"\r\n\r\n")
                lines = head.decode("latin-1").split("\r\n")
                method, target, _ = lines[0].split(" ")
                length = sum(int(line.split(":", 1)[1]) for line in lines[1:]
                             if line.lower().startswith("content-length:"))
                while len(buf) < length:
                    buf += conn.recv(65536)
                buf = buf[length:]
                self.requests.append((method, target))
                reply = self.respond(method, target)
                if reply is None:
                    continue
                close = not self.keep_alive
                if isinstance(reply, tuple):
                    reply, close = reply
                conn.sendall(reply)
                if close:
                    return
        except OSError:
            return
        finally:
            conn.close()

    def close(self) -> None:
        self._listener.close()
        for conn in self._conns:
            conn.close()


@pytest.fixture
def raw_upstream():
    """Factory for RawUpstream instances, closed after the test."""
    created = []

    def factory(respond, keep_alive=False):
        created.append(RawUpstream(respond, keep_alive))
        return created[-1]

    yield factory
    for upstream in created:
        upstream.close()


@pytest.fixture
def raw_gateway():
    """Factory for a gateway (built and served) in front of a given
    upstream URL; returns the Gateway, closed after the test."""
    created = []

    def factory(upstream_url, **config_overrides):
        gateway, server = boot_gateway(upstream_url, **config_overrides)
        created.append((gateway, server))
        return gateway

    yield factory
    for gateway, server in created:
        server.shutdown()
        server.server_close()
        gateway.monitor.upstream.close()
        gateway.violation_log.close()


@pytest.fixture(scope="session")
def fixture_document() -> bytes:
    with open(keystone_fixture_path(), "rb") as fh:
        return fh.read()


@pytest.fixture(scope="session")
def loaded_model(fixture_document):
    return load_model(fixture_document)


@pytest.fixture(scope="session")
def fixture_contracts(loaded_model) -> dict[tuple[str, str], Contract]:
    _, bm, rules = loaded_model
    return {(c.method, c.uri_template): c for c in derive_contracts(bm, rules)}
