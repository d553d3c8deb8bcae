"""Runtime monitor tests: JSON helpers, request context, monitor variables,
and the full validation pipeline against the in-process harness."""

import ast
import json
import os
import resource
import socket
import sys
import threading
import time
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from contractgate import expr as E
from contractgate import mock_keystone as mk
from contractgate import monitor as monitor_module
from contractgate.httpreply import (
    POOL_SIZE,
    HttpUpstream,
    UpstreamError,
    UpstreamResponse,
)
from contractgate.model import ResourceModel, RouteTable, derive_routes
from contractgate.monitor import (
    Monitor,
    MonitorVariables,
    RequestContext,
    Resolver,
    Snapshot,
    json_to_value,
    json_walk,
)
from conftest import http_call, password_body, token_body


class TestJsonHelpers:
    DOC = {"token": {"roles": [{"name": "admin"}, {"name": "member"}], "user": {"id": "u-1"}}}

    def test_walk_exact_path(self):
        assert json_walk(self.DOC, ("token", "user", "id")) == "u-1"

    def test_walk_list_index(self):
        assert json_walk(self.DOC, ("token", "roles", "0", "name")) == "admin"

    def test_walk_missing_is_none(self):
        assert json_walk(self.DOC, ("token", "ghost")) is None

    @pytest.mark.parametrize("index", ["-1", "+1", "\u0660", " 0", "0x0", "", "2"])
    def test_walk_indexes_a_list_with_ascii_digits_only(self, index):
        """A list index is ``[0-9]+``: no sign, no other script's digits,
        no count from the end."""
        assert json_walk(self.DOC, ("token", "roles", index, "name")) is None

    def test_to_value_typing(self):
        assert json_to_value(None) == E.ABSENT
        assert json_to_value(True) == E.boolean(True)
        assert json_to_value(3) == E.integer(3)
        assert json_to_value("x") == E.text("x")
        ts = json_to_value("2026-08-01T12:00:00Z", "timestamp")
        assert ts.kind is E.Kind.TIMESTAMP
        assert json_to_value("junk", "timestamp") == E.INVALID
        assert json_to_value([1, 2]).kind is E.Kind.DOCUMENT


class TestRequestContext:
    def test_unparseable_body_becomes_none(self):
        ctx = RequestContext.build("POST", "/x", {}, b"{not json")
        assert ctx.body is None

    def test_header_names_lowercased(self):
        ctx = RequestContext.build("GET", "/x", {"X-Auth-Token": "t"}, b"")
        assert ctx.headers["x-auth-token"] == "t"

    def test_auth_token_header_beats_body(self):
        raw = json.dumps(token_body("body-token")).encode()
        ctx = RequestContext.build("POST", "/x", {"X-Auth-Token": "hdr"}, raw)
        assert ctx.auth_token() == "hdr"

    def test_auth_token_from_body(self):
        raw = json.dumps(token_body("body-token")).encode()
        ctx = RequestContext.build("POST", "/x", {}, raw)
        assert ctx.auth_token() == "body-token"

    def test_auth_token_absent(self):
        assert RequestContext.build("GET", "/x", {}, b"").auth_token() is None


class TestMonitorVariables:
    def test_acquire_is_test_and_set(self):
        v = MonitorVariables()
        assert v.acquire("/a")
        assert not v.acquire("/a")
        assert v.acquire("/b")
        v.release("/a")
        assert v.acquire("/a")

    def test_release_is_idempotent(self):
        v = MonitorVariables()
        v.release("/never-acquired")
        assert v.acquire("/never-acquired")


class TestPipeline:
    def test_unrouted_uri_is_404(self, harness):
        status, _, _ = harness.call("GET", "/v9/bogus")
        assert status == 404

    def test_disallowed_method_is_405_with_allow(self, harness):
        status, headers, _ = harness.call("PATCH", "/v3/auth/tokens")
        assert status == 405
        assert set(dict(headers)["Allow"].split(", ")) == {"GET", "POST"}

    def test_get_is_forwarded(self, harness):
        token = harness.authenticate("admin", "secret")
        status, _, body = harness.call(
            "GET", "/v3/users/u-alice", headers={"X-Auth-Token": token}
        )
        assert status == 200
        assert json.loads(body)["user"]["id"] == "u-alice"

    def test_missing_credentials_block_before_upstream_post(self, harness):
        # no user name anywhere: the credential cannot be established
        # pre-flight, so the request never reaches the upstream POST
        before = harness.service.side_effect_count()
        payload = {
            "auth": {
                "identity": {
                    "methods": ["password"],
                    "password": {"user": {"password": "whatever"}},
                }
            }
        }
        status, _, body = harness.call("POST", "/v3/auth/tokens", payload)
        assert status == 412
        doc = json.loads(body)
        assert doc["phase"] == "pre"
        assert doc["contract"] == "POST /v3/auth/tokens"
        assert harness.service.side_effect_count() == before

    def test_wrong_password_is_caught_post_flight(self, harness):
        # a present-but-wrong credential passes the pre check (the wrapper
        # cannot verify secrets); the upstream rejects it and the missing
        # token then fails the postcondition
        status, _, body = harness.call(
            "POST", "/v3/auth/tokens", password_body("admin", "wrong")
        )
        assert status == 502
        assert json.loads(body)["phase"] == "post"

    def test_malformed_body_blocks_fail_closed(self, harness):
        before = harness.service.side_effect_count()
        status, _, _ = harness.call("POST", "/v3/auth/tokens", raw=b"{broken")
        assert status == 412
        assert harness.service.side_effect_count() == before

    def test_admin_delete_relays_204(self, harness):
        token = harness.authenticate("admin", "secret")
        status, _, _ = harness.call(
            "DELETE", "/v3/users/u-alice", headers={"X-Auth-Token": token}
        )
        assert status == 204
        status, _, _ = harness.call(
            "GET", "/v3/users/u-alice", headers={"X-Auth-Token": token}
        )
        assert status == 404

    def test_non_admin_delete_names_role_conjunct(self, harness):
        token = harness.authenticate("alice", "wonder")
        status, _, body = harness.call(
            "DELETE", "/v3/users/u-admin", headers={"X-Auth-Token": token}
        )
        assert status == 412
        doc = json.loads(body)
        assert doc["failed"] == [{"expr": "user.role='admin'", "value": "false"}]

    def test_missing_token_delete_is_blocked(self, harness):
        before = harness.service.side_effect_count()
        status, _, _ = harness.call("DELETE", "/v3/users/u-alice")
        assert status == 412
        assert harness.service.side_effect_count() == before

    def test_in_flight_resource_blocks_concurrent_side_effect(self, harness):
        token = harness.authenticate("admin", "secret")
        uri = "/v3/users/u-alice"
        assert harness.gateway.monitor.variables.acquire(uri)
        try:
            status, _, body = harness.call(
                "DELETE", uri, headers={"X-Auth-Token": token}
            )
            assert status == 412
            assert any(
                "self.processing" in atom["expr"]
                for atom in json.loads(body)["failed"]
            )
        finally:
            harness.gateway.monitor.variables.release(uri)
        status, _, _ = harness.call("DELETE", uri, headers={"X-Auth-Token": token})
        assert status == 204

    def test_unreachable_upstream_get_is_504(self, harness_factory):
        h = harness_factory()
        h._servers[0].shutdown()
        h._servers[0].server_close()
        status, _, _ = h.call("GET", "/v3/users")
        assert status == 504

    def test_expired_token_blocks_delete(self, harness_factory):
        # the mock's clock starts at real time (so freshly issued tokens are
        # valid against the monitor's wall clock), then jumps past the TTL
        clock_value = [datetime.now(timezone.utc)]
        h = harness_factory(clock=lambda: clock_value[0])
        token = h.authenticate("admin", "secret")
        clock_value[0] += timedelta(hours=2)
        status, _, body = h.call(
            "DELETE", "/v3/users/u-alice", headers={"X-Auth-Token": token}
        )
        assert status == 412
        assert any(
            "expires_at" in atom["expr"] or "token.token" in atom["expr"]
            for atom in json.loads(body)["failed"]
        )


NOW = datetime(2026, 8, 1, 12, tzinfo=timezone.utc)
HOUR = timedelta(hours=1)
# Per path, the value that makes its fixture atoms hold (drawn most often)
# and values that do not; any path may also be Absent or Invalid.
CANDIDATES = {
    "self.processing": (E.boolean(False), E.boolean(True)),
    "token.token": (E.text("t-1"), E.count(0)),
    "token.expires_at": (E.timestamp(NOW + HOUR), E.timestamp(NOW - HOUR)),
    "token.catalog": (E.document([{"type": "identity"}]), E.count(0)),
    "user.id": (E.text("u-1"), E.count(0)),
    "user.role": (E.text("admin"), E.text("member")),
    "user.credential": (E.text("secret"), E.count(0)),
    "request.scope": (E.document({"project": {"id": "p"}}), E.text("unscope")),
}


def _values(path: E.Path):
    held, other = CANDIDATES[str(path)]
    return st.sampled_from([held, held, held, other, E.ABSENT, E.INVALID])


class TestLoweredDiagnosis:
    """The lowered checks name the same failing conjuncts, with the same
    values and in the same order, as the reference check loops: the
    postcondition all of them, the precondition those its probing rule
    evaluates, with the same verdict as the full evaluation's."""

    def test_same_failed_conjuncts_as_the_reference(self, loaded_model, fixture_contracts):
        rm, bm, _ = loaded_model
        contracts = sorted(fixture_contracts.values(), key=lambda c: c.id)
        upstream = HttpUpstream("http://127.0.0.1:9")  # never called
        monitor = Monitor(rm, derive_routes(rm, bm), contracts, upstream)
        free = {p for c in contracts for p in E.free_paths(c.pre) | E.free_paths(c.post)}
        paths = sorted(free, key=str)
        snapshot_paths = sorted({p for c in contracts for p in c.snapshot_paths}, key=str)
        seen = {"pass": 0, "fail": 0, "consequent": 0}

        @settings(max_examples=100, derandomize=True, deadline=None)
        @given(
            values=st.tuples(*map(_values, paths)),
            snapshot=st.tuples(*(st.one_of(st.none(), _values(p)) for p in snapshot_paths)),
        )
        def check(values, snapshot):
            table = dict(zip(paths, values))
            captured = {p: v for p, v in zip(snapshot_paths, snapshot) if v is not None}

            def env(phase):
                return E.Environment(table.__getitem__, NOW, phase, captured)

            for contract in contracts:
                got = monitor.check_precondition(contract, env("pre"))
                probes = monitor.pre_probes(contract)
                assert got == oracle.check_precondition_probing(contract, env("pre"), probes)
                assert bool(got) == bool(oracle.check_precondition(contract, env("pre")))
                seen["fail" if got else "pass"] += 1
                got = monitor.check_postcondition(contract, env("post"))
                assert got == oracle.check_postcondition(contract, env("post"))
                top = {E.to_text(c) for c in E.conjuncts(contract.post)}
                seen["consequent"] += any(text not in top for text, _ in got)

        check()
        assert all(seen.values()), seen  # passes, failures and split implications all ran


class TestRouteMatchedOnce:
    """handle and every resolver of a request read one route match."""

    @pytest.mark.parametrize("user,password,target,status", [
        ("admin", "secret", "/v3/users/u-alice", 204),  # pre and post resolvers
        ("alice", "wonder", "/v3/users/u-admin", 412),  # pre resolver only
    ])
    def test_side_effect_matches_its_route_once(
        self, harness, monkeypatch, user, password, target, status
    ):
        token = harness.authenticate(user, password)
        calls = []
        match = RouteTable.match

        def counting_match(table, path):
            calls.append(path)
            return match(table, path)

        monkeypatch.setattr(RouteTable, "match", counting_match)
        got, _, _ = harness.call("DELETE", target, headers={"X-Auth-Token": token})
        assert got == status
        assert calls == [target]


class TestProbePlan:
    """Each path's source is decided when the monitor is built, and a
    refused precondition sends no probe after the check that refused it:
    the token probe alone decides a non-admin DELETE."""

    def test_no_source_is_decided_on_the_request_path(self, harness_factory, monkeypatch):
        h = harness_factory(audit_get=True)
        admin = h.authenticate("admin", "secret")
        alice = h.authenticate("alice", "wonder")
        decided = []

        def counted(owner, name):
            original = getattr(owner, name)

            def call(*args):
                decided.append(name)
                return original(*args)

            monkeypatch.setattr(owner, name, call)

        counted(monitor_module, "source")
        counted(ResourceModel, "definition")
        counted(RouteTable, "for_definition")
        for method, uri, body, token, status in [
            ("GET", "/v3/users/u-alice", None, admin, 200),
            ("DELETE", "/v3/users/u-admin", None, alice, 412),
            ("DELETE", "/v3/users/u-ghost", None, admin, 412),
            ("DELETE", "/v3/users/u-alice", None, admin, 204),
            ("POST", "/v3/auth/tokens", password_body("admin", "wrong"), None, 502),
            ("POST", "/v3/auth/tokens", token_body(admin), None, 201),
        ]:
            headers = {"X-Auth-Token": token} if token else None
            assert h.call(method, uri, body, headers=headers)[0] == status
        assert decided == []

    @pytest.mark.parametrize("user,password,target,status,probes", [
        ("alice", "wonder", "/v3/users/u-admin", 412, ["/v3/auth/tokens"]),
        ("admin", "secret", "/v3/users/u-alice", 204,
         ["/v3/auth/tokens", "/v3/users/u-alice"]),
    ])
    def test_delete_sends_the_probes_its_verdict_needs(
        self, harness, user, password, target, status, probes
    ):
        token = harness.authenticate(user, password)
        harness.call_mock("DELETE", "/__log")
        got, _, _ = harness.call("DELETE", target, headers={"X-Auth-Token": token})
        assert got == status
        _, _, log = harness.call_mock("GET", "/__log")
        sent = [(r["method"], r["path"]) for r in json.loads(log)["requests"]]
        pre = sent[:sent.index(("DELETE", target))] if status == 204 else sent
        assert pre == [("GET", uri) for uri in probes]


class TestCanonicalResource:
    @pytest.mark.parametrize(
        "alias",
        ["/v3//users/u-alice", "/v3/users/u-alice/", "/v3/users/u-alice?x=1"],
    )
    def test_alias_of_an_in_flight_resource_is_blocked(self, harness, alias):
        """Every spelling of one resource's URI shares its self.processing
        flag, so side effects on it serialize."""
        token = harness.authenticate("admin", "secret")
        before = harness.service.side_effect_count()
        assert harness.gateway.monitor.variables.acquire("/v3/users/u-alice")
        status, _, body = harness.call("DELETE", alias, headers={"X-Auth-Token": token})
        assert status == 412
        assert json.loads(body)["failed"] == [
            {"expr": "self.processing=False", "value": "false"}
        ]
        assert harness.service.side_effect_count() == before

    def test_query_string_is_forwarded(self, harness):
        token = harness.authenticate("admin", "secret")
        status, _, _ = harness.call(
            "GET", "/v3/users?limit=1", headers={"X-Auth-Token": token}
        )
        assert status == 200
        _, _, log = harness.call_mock("GET", "/__log")
        assert {"method": "GET", "path": "/v3/users?limit=1"} in json.loads(log)["requests"]


class TestHttpUpstream:
    def test_forwards_exactly_one_content_length(self):
        listener = socket.create_server(("127.0.0.1", 0))
        received = []

        def serve_once():
            conn, _ = listener.accept()
            with conn:
                data = b""
                while not data.endswith(b"{}"):
                    data += conn.recv(4096)
                received.append(data)
                conn.sendall(b"HTTP/1.1 204 No Content\r\nContent-Length: 0\r\n\r\n")

        server = threading.Thread(target=serve_once, daemon=True)
        server.start()
        try:
            upstream = HttpUpstream(f"http://127.0.0.1:{listener.getsockname()[1]}")
            response = upstream.request(
                "POST", "/v3/auth/tokens", [("content-length", "2")], b"{}"
            )
            server.join(timeout=5)
            upstream.close()
        finally:
            listener.close()
        assert response.status == 204
        head = received[0].split(b"\r\n\r\n")[0].lower()
        assert head.count(b"\r\ncontent-length:") == 1
        assert b"\r\ncontent-length: 2" in head


OK_REPLY = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}"
MALFORMED_REPLIES = {
    "differing lengths": b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}",
    "line without colon": b"HTTP/1.1 200 OK\r\nbogus line\r\nContent-Length: 2\r\n\r\n{}",
    "obs-fold": b"HTTP/1.1 200 OK\r\nX-A: 1\r\n folded\r\nContent-Length: 2\r\n\r\n{}",
    "bare CR": b"HTTP/1.1 200 OK\r\nX-A: 1\r2\r\nContent-Length: 2\r\n\r\n{}",
    "truncated body": b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n{}",
    "truncated chunk": b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\n{}",
    "other coding": b"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip, chunked\r\n\r\n0\r\n\r\n",
    "no status line": b"{}",
    "5001-digit length": b"HTTP/1.1 200 OK\r\nContent-Length: 1" + b"0" * 5000 + b"\r\n\r\n{}",
}


class TestUpstreamFraming:
    """Replies are framed by RFC 9112 section 6.3; one the gateway cannot
    frame is an unusable reply: 504 on a forward, Invalid on a probe."""

    def test_chunked_reply_is_relayed_with_one_length(self, raw_upstream, raw_gateway):
        upstream = raw_upstream(lambda method, target: (
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            b"5;note=1\r\n{\"use\r\n8\r\nrs\": []}\r\n0\r\nX-Trailer: t\r\n\r\n"
        ))
        gateway = raw_gateway(upstream.url)
        status, headers, body = http_call(gateway.port, "GET", "/v3/users")
        assert status == 200
        assert body == b'{"users": []}'
        names = [name.lower() for name, _ in headers]
        assert names.count("content-length") == 1
        assert "transfer-encoding" not in names and "x-trailer" not in names

    def test_reply_without_length_is_read_to_close_and_not_pooled(self, raw_upstream):
        upstream = raw_upstream(lambda method, target: b"HTTP/1.1 200 OK\r\n\r\n{\"a\": 1}")
        client = HttpUpstream(upstream.url, timeout_s=2.0)
        try:
            assert [client.request("GET", "/v3/users").body for _ in range(2)] == [
                b'{"a": 1}', b'{"a": 1}'
            ]
        finally:
            client.close()
        assert upstream.accepted == 2

    def test_head_and_204_have_no_body_and_keep_the_connection(self, raw_upstream):
        replies = {
            "HEAD": b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n",
            "DELETE": b"HTTP/1.1 204 No Content\r\n\r\n",
            "GET": OK_REPLY,
        }
        upstream = raw_upstream(lambda method, target: replies[method], keep_alive=True)
        client = HttpUpstream(upstream.url, timeout_s=2.0)
        try:
            got = [
                (r.status, r.body)
                for r in (client.request(m, "/v3/users/u-x") for m in ("HEAD", "DELETE", "GET"))
            ]
        finally:
            client.close()
        assert got == [(200, b""), (204, b""), (200, b"{}")]
        assert upstream.accepted == 1

    def test_interim_100_is_skipped(self, raw_upstream):
        upstream = raw_upstream(lambda method, target: (
            b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 201 Created\r\nContent-Length: 2\r\n\r\n{}"
        ))
        client = HttpUpstream(upstream.url, timeout_s=2.0)
        try:
            response = client.request("POST", "/v3/auth/tokens", [], b"{}")
        finally:
            client.close()
        assert (response.status, response.body) == (201, b"{}")

    def test_equal_duplicate_lengths_are_accepted(self, raw_upstream):
        upstream = raw_upstream(lambda method, target: (
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 2, 2\r\n\r\n{}"
        ))
        client = HttpUpstream(upstream.url, timeout_s=2.0)
        try:
            assert client.request("GET", "/v3/users").body == b"{}"
        finally:
            client.close()

    @pytest.mark.parametrize("reply", MALFORMED_REPLIES.values(), ids=MALFORMED_REPLIES)
    def test_malformed_reply_to_a_forward_is_504(self, raw_upstream, raw_gateway, reply):
        upstream = raw_upstream(lambda method, target: reply)
        gateway = raw_gateway(upstream.url, upstream_timeout_ms=2000)
        status, _, body = http_call(gateway.port, "GET", "/v3/users")
        assert status == 504
        assert json.loads(body) == {"error": "upstream unreachable"}

    @pytest.mark.parametrize("reply", MALFORMED_REPLIES.values(), ids=MALFORMED_REPLIES)
    def test_malformed_reply_to_a_probe_is_invalid(self, raw_upstream, raw_gateway, reply):
        upstream = raw_upstream(lambda method, target: reply)
        monitor = raw_gateway(upstream.url, probe_timeout_ms=2000).monitor
        ctx = RequestContext.build("DELETE", "/v3/users/u-alice", {"X-Auth-Token": "t"}, b"")
        resolver = Resolver(monitor, ctx)
        assert resolver(E.parse_expression("user.id").path) is E.INVALID
        assert upstream.requests[0] == ("GET", "/v3/users/u-alice")

    @pytest.mark.parametrize("reply", MALFORMED_REPLIES.values(), ids=MALFORMED_REPLIES)
    def test_delete_on_a_pooled_connection_is_never_resent(self, raw_upstream, reply):
        upstream = raw_upstream(
            lambda method, target: OK_REPLY if method == "GET" else reply, keep_alive=True
        )
        client = HttpUpstream(upstream.url, timeout_s=2.0)
        try:
            assert client.request("GET", "/v3/users/u-alice").status == 200
            with pytest.raises(UpstreamError):  # a truncated reply times out
                client.request("DELETE", "/v3/users/u-alice", timeout_s=0.2)
        finally:
            client.close()
        assert upstream.requests == [("GET", "/v3/users/u-alice"), ("DELETE", "/v3/users/u-alice")]

    def test_bytes_past_the_reply_are_not_handed_to_the_next_request(self, raw_upstream):
        """A reply longer than its Content-Length leaves the connection out
        of the pool: the stray bytes would be read as the next reply."""
        upstream = raw_upstream(
            lambda method, target: OK_REPLY + b"HTTP/1.1 204 No Content\r\n\r\n",
            keep_alive=True,
        )
        client = HttpUpstream(upstream.url, timeout_s=2.0)
        try:
            statuses = [client.request("GET", "/v3/users").status for _ in range(2)]
        finally:
            client.close()
        assert statuses == [200, 200]
        assert upstream.accepted == 2

    @pytest.mark.parametrize(
        "path, headers",
        [
            ("/v3/users /x", []),
            ("/v3/users\r\nX-Evil: 1", []),
            ("/v3/users", [("X-Auth-Token", "t\r\nX-Evil: 1")]),
            ("/v3/users", [("X-Auth-Token", "t\x00")]),
            ("/v3/users", [("X Bad", "t")]),
            ("/v3/users", [("X-Auth-Token", "t\u20ac")]),  # not latin-1
        ],
    )
    def test_unsafe_request_is_refused_unsent(self, raw_upstream, path, headers):
        upstream = raw_upstream(lambda method, target: OK_REPLY)
        client = HttpUpstream(upstream.url, timeout_s=2.0)
        with pytest.raises(UpstreamError):
            client.request("GET", path, headers)
        assert upstream.accepted == 0

    def test_request_is_one_write_with_one_length(self, raw_upstream, monkeypatch):
        writes = []
        sendall = socket.socket.sendall

        upstream = raw_upstream(lambda method, target: OK_REPLY)
        port = int(upstream.url.rpartition(":")[2])

        def recording_sendall(sock, data, *args):
            if sock.getpeername()[1] == port:  # the client's writes only
                writes.append(bytes(data))
            return sendall(sock, data, *args)

        client = HttpUpstream(upstream.url, timeout_s=2.0)
        monkeypatch.setattr(socket.socket, "sendall", recording_sendall)
        try:
            client.request(
                "PUT", "/v3/x", [("Host", "evil"), ("Connection", "close"),
                                 ("Content-Length", "9"), ("X-A", "1")], b"{}"
            )
        finally:
            monkeypatch.undo()
            client.close()
        assert len(writes) == 1
        head, _, body = writes[0].partition(b"\r\n\r\n")
        assert body == b"{}"
        assert head.split(b"\r\n") == [
            b"PUT /v3/x HTTP/1.1",
            b"Host: " + upstream.url.removeprefix("http://").encode(),
            b"X-A: 1",
            b"Accept-Encoding: identity",
            b"Content-Length: 2",
        ]


class TestResolverNamespaces:
    """request.headers.* and response.* read the request and the upstream
    reply in hand; neither probes (the upstream here accepts no connection)."""

    def test_request_header_path(self, raw_gateway):
        monitor = raw_gateway("http://127.0.0.1:9").monitor
        ctx = RequestContext.build("GET", "/v3/users", {"X-Auth-Token": "t-1"}, b"")
        resolver = Resolver(monitor, ctx)
        assert resolver(E.parse_expression("request.headers.x.auth.token").path) == E.text("t-1")
        assert resolver(E.parse_expression("request.headers.x.missing").path) is E.ABSENT

    def test_response_paths_read_the_reply_after_the_forward(self, raw_gateway):
        monitor = raw_gateway("http://127.0.0.1:9").monitor
        ctx = RequestContext.build("POST", "/v3/auth/tokens", {}, b"{}")
        reply = UpstreamResponse(201, [], b'{"token": {"user": "alice", "n": 2}}')
        post = Resolver(monitor, ctx, reply)
        pre = Resolver(monitor, ctx)
        for text, value in [
            ("response.status", E.integer(201)),
            ("response.user", E.text("alice")),
            ("response.token.n", E.ABSENT),
            ("response.missing", E.ABSENT),
        ]:
            path = E.parse_expression(text).path
            assert post(path) == value
            assert pre(path) is E.ABSENT
        two_members = UpstreamResponse(201, [], b'{"token": {"user": "alice"}, "x": {}}')
        path = E.parse_expression("response.user").path
        assert Resolver(monitor, ctx, two_members)(path) is E.ABSENT


def _json_reply(doc: object) -> bytes:
    body = json.dumps(doc).encode()
    head = f"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {len(body)}"
    return head.encode() + b"\r\n\r\n" + body


# Field names of the bundled model's locations, for decoys to reuse.
_KEYS = ("token", "user", "roles", "name", "id", "auth", "scope", "extra")


def _nest(keys: list[str], leaf: object) -> object:
    for key in reversed(keys):
        leaf = [leaf] if key.isdigit() else {key: leaf}
    return leaf


@st.composite
def _placed(draw, location: tuple[str, ...], min_depth: int = 0):
    """A document with "real" at ``location``, or with the location cut off
    at a field at least ``min_depth`` deep, and decoys: the location's tails
    under other keys, at every depth and before or after the real field."""
    cut = draw(st.sampled_from(
        [d for d in range(min_depth, len(location)) if not location[d].isdigit()]
        + [len(location)]
    ))

    def decoy():
        tail = location[draw(st.integers(0, len(location) - 1)):]
        return _nest(draw(st.lists(st.sampled_from(_KEYS), max_size=2)) + list(tail), "decoy")

    def level(depth):
        if depth == len(location):
            return "real"
        seg = location[depth]
        if seg.isdigit():  # the real element at its index, decoys after it
            return [level(depth + 1)] + [decoy() for _ in range(draw(st.integers(0, 2)))]
        keys = draw(st.lists(st.sampled_from(_KEYS).filter(lambda k: k != seg),
                             max_size=2, unique=True))
        others = [(key, decoy()) for key in keys]
        real = [(seg, level(depth + 1))] if depth < cut else []
        at = draw(st.integers(0, len(others)))
        return dict(others[:at] + real + others[at:])

    return level(0), cut == len(location)


class TestExactLocations:
    """Every path is read at one exact JSON location: a field of the same
    name anywhere else in a reply or request body is never read."""

    def test_nested_roles_do_not_make_the_caller_admin(self, raw_upstream, raw_gateway):
        """An unscoped token has no ``roles``; one nested elsewhere in its
        representation is not the caller's role."""
        expires = datetime.now(timezone.utc) + timedelta(hours=1)
        token = {"token": {
            "expires_at": expires.strftime("%Y-%m-%dT%H:%M:%S.%fZ"),
            "user": {"name": "bob", "extra": {"roles": [{"name": "admin"}]}},
        }}
        replies = {
            ("GET", "/v3/auth/tokens"): _json_reply(token),
            ("GET", "/v3/users/u-x"): _json_reply({"user": {"id": "u-x", "name": "x"}}),
        }
        upstream = raw_upstream(lambda method, target: replies.get(
            (method, target), b"HTTP/1.1 204 No Content\r\n\r\n"
        ))
        gateway = raw_gateway(upstream.url)
        status, _, body = http_call(
            gateway.port, "DELETE", "/v3/users/u-x", headers={"X-Auth-Token": "t-bob"}
        )
        assert status == 412
        assert json.loads(body)["failed"] == [
            {"expr": "user.role='admin'", "value": "unknown"}
        ]
        # the token probe decides the refusal: the user is not probed
        assert upstream.requests == [("GET", "/v3/auth/tokens")]

    @pytest.mark.parametrize("source,location,min_depth", [
        ("user.role", ("token", "roles", "0", "name"), 0),  # token probe, by its bind
        ("user.id", ("user", "id"), 0),  # the addressed user's probe
        ("request.scope", ("auth", "scope"), 1),  # the login body
    ])
    def test_decoys_are_never_read(self, loaded_model, source, location, min_depth):
        rm, bm, _ = loaded_model
        upstream = HttpUpstream("http://127.0.0.1:9")  # never called
        monitor = Monitor(rm, derive_routes(rm, bm), [], upstream)
        path = E.parse_expression(source).path

        @settings(max_examples=50, derandomize=True, deadline=None)
        @given(_placed(location, min_depth))
        def check(placed):
            doc, present = placed
            if source.startswith("request."):
                resolver = Resolver(monitor, RequestContext("POST", "/v3/auth/tokens", body=doc))
                present = present and len(doc) == 1  # a body of one member
            else:
                resolver = Resolver(monitor, RequestContext("DELETE", "/v3/users/u-x"))
                resolver.probe = lambda uri: UpstreamResponse(200, [], json.dumps(doc).encode())
            assert resolver(path) == (E.text("real") if present else E.ABSENT)

        check()


class TestRequestDeadline:
    def test_stalled_probes_share_one_deadline(self, raw_upstream, raw_gateway):
        """Each probe gets the probe timeout or the time left, whichever is
        less: a token probe answered after 0.3 s and a stalled user probe end
        at the 0.5 s upstream timeout, not after 0.3 s and a 0.4 s probe
        timeout."""
        expires = datetime.now(timezone.utc) + timedelta(hours=1)
        admin = _json_reply({"token": {
            "expires_at": expires.strftime("%Y-%m-%dT%H:%M:%S.%fZ"),
            "roles": [{"name": "admin"}], "user": {"name": "admin"},
        }})

        def respond(method, target):
            if target == "/v3/auth/tokens":
                time.sleep(0.3)
                return admin
            return None  # the user probe stalls

        upstream = raw_upstream(respond)
        monitor = raw_gateway(
            upstream.url, probe_timeout_ms=400, upstream_timeout_ms=500
        ).monitor
        ctx = RequestContext.build("DELETE", "/v3/users/u-alice", {"X-Auth-Token": "t"}, b"")
        started = time.monotonic()
        result = monitor.handle(ctx, b"")
        elapsed = time.monotonic() - started
        assert result.status == 412
        assert json.loads(result.body)["failed"] == [
            {"expr": "user.id->size()=1", "value": "unknown"}
        ]
        assert upstream.requests == [("GET", "/v3/auth/tokens"), ("GET", "/v3/users/u-alice")]
        assert 0.45 <= elapsed < 0.7

    def test_no_time_left_sends_nothing(self, raw_upstream):
        upstream = raw_upstream(lambda method, target: OK_REPLY)
        client = HttpUpstream(upstream.url, timeout_s=2.0)
        for timeout in (0.0, -1.0):
            with pytest.raises(UpstreamError):
                client.request("DELETE", "/v3/users/u-alice", timeout_s=timeout)
        assert upstream.accepted == 0

    def test_trickled_reply_ends_at_the_limit(self):
        """A reply still arriving a byte at a time when the call's time is
        up is late: each wait is short, but the whole read is bounded."""
        listener = socket.create_server(("127.0.0.1", 0))
        stop = threading.Event()

        def trickle():
            conn, _ = listener.accept()
            with conn:
                conn.recv(65536)
                conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n")
                while not stop.wait(0.05):
                    conn.sendall(b"x")

        server = threading.Thread(target=trickle, daemon=True)
        server.start()
        client = HttpUpstream(f"http://127.0.0.1:{listener.getsockname()[1]}")
        started = time.monotonic()
        try:
            with pytest.raises(UpstreamError):
                client.request("GET", "/v3/users", timeout_s=0.4)
            elapsed = time.monotonic() - started
        finally:
            stop.set()
            server.join(timeout=5)
            listener.close()
        assert elapsed < 1.0  # 100 bytes at 20 per second take 5 s

    def test_forward_gets_the_time_left(self, raw_upstream, raw_gateway):
        upstream = raw_upstream(lambda method, target: None)
        monitor = raw_gateway(upstream.url, upstream_timeout_ms=300).monitor
        ctx = RequestContext.build("GET", "/v3/users", {}, b"")
        ctx.deadline = time.monotonic() + 60  # replaced by handle's own
        started = time.monotonic()
        assert monitor.handle(ctx, b"").status == 504
        assert time.monotonic() - started < 0.6


class TestUpstreamResponseJson:
    def test_decoded_once(self, monkeypatch):
        calls = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda text: calls.append(text) or loads(text))
        response = UpstreamResponse(200, [], b'{"a": 1}')
        assert response.json() == {"a": 1}
        assert response.json() is response.json()
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "body",
        [b"", b"<html>", b"\xff\xfe", pytest.param(b"[" * 5000, id="nested-too-deep")],
    )
    def test_not_json_is_none(self, body):
        response = UpstreamResponse(200, [], body)
        assert response.json() is None
        assert response.json() is None


class TestRecordTimings:
    def test_blocked_delete_record_has_probe_time_only(self, harness):
        token = harness.authenticate("alice", "wonder")
        ctx = RequestContext.build(
            "DELETE", "/v3/users/u-admin", {"X-Auth-Token": token}, b""
        )
        record = harness.gateway.monitor.handle(ctx, b"").violation.to_json()
        assert record["phase"] == "pre"
        assert record["probe_ms"] > 0
        assert record["upstream_ms"] == 0

    def test_post_violation_record_has_upstream_time(self, harness):
        raw = json.dumps(password_body("admin", "wrong")).encode()
        ctx = RequestContext.build("POST", "/v3/auth/tokens", {}, raw)
        record = harness.gateway.monitor.handle(ctx, raw).violation.to_json()
        assert record["phase"] == "post"
        assert record["upstream_ms"] > 0


class TestMalformedUpstreamReply:
    def test_garbage_reply_to_side_effect_is_504_and_releases_flag(self, harness):
        """The upstream performs the delete but answers with bytes that are
        not HTTP.  The gateway must refuse fail-closed and free the
        resource's self.processing flag."""
        handler = harness._servers[0].RequestHandlerClass

        def garbage_after_delete(self):
            headers = {k.lower(): v for k, v in self.headers.items()}
            self.service.handle(self.command, self.path, headers, b"")
            self.wfile.write(b"NOT HTTP\r\n\r\n")
            self.close_connection = True

        token = harness.authenticate("admin", "secret")
        uri = "/v3/users/u-alice"
        # patched on the bound class, so a kept-alive connection's existing
        # handler sees it too
        handler.do_DELETE = garbage_after_delete
        try:
            status, _, body = harness.call(
                "DELETE", uri, headers={"X-Auth-Token": token}
            )
        finally:
            del handler.do_DELETE
        assert status == 504
        assert json.loads(body)["failed"] == [
            {"expr": "upstream reachable", "value": "unknown"}
        ]
        # the user is gone and the flag is free: only user.id->size()=1 fails
        status, _, body = harness.call("DELETE", uri, headers={"X-Auth-Token": token})
        assert status == 412
        assert json.loads(body)["failed"] == [
            {"expr": "user.id->size()=1", "value": "false"}
        ]


class TestUnreadableState:
    def test_unreadable_reprobe_after_delete_is_502(self, harness):
        """The upstream answers the DELETE 204 without deleting, then answers
        the post-phase re-probe 200 with a body that is not JSON.  The
        unreadable state must not satisfy user.id->size()=0."""
        handler = harness._servers[0].RequestHandlerClass
        uri = "/v3/users/u-alice"
        deletes = []

        def pretend_delete(self):
            deletes.append(self.path)
            self._reply(204, [], b"")

        def html_after_delete(self):
            if deletes and self.path == uri:
                self._reply(200, [("Content-Type", "text/html")], b"<html>ok</html>")
            else:
                handler._dispatch(self)

        token = harness.authenticate("admin", "secret")
        handler.do_DELETE, handler.do_GET = pretend_delete, html_after_delete
        try:
            status, _, body = harness.call(
                "DELETE", uri, headers={"X-Auth-Token": token}
            )
        finally:
            del handler.do_DELETE, handler.do_GET
        assert deletes == [uri]
        assert status == 502
        assert {"expr": "user.id->size()=0", "value": "unknown"} in json.loads(body)["failed"]
        assert "u-alice" in harness.store.users


class TestUpstreamPool:
    """Kept-alive upstream connections: reuse, stale connections, and side
    effects that are never resent."""

    def test_sequential_calls_reuse_one_connection(self, harness, monkeypatch):
        connects = []
        connect = HttpUpstream._connect

        def counting_connect(upstream, timeout):
            conn = connect(upstream, timeout)
            if upstream.port == harness.mock_port:
                connects.append(conn)
            return conn

        monkeypatch.setattr(HttpUpstream, "_connect", counting_connect)
        token = harness.authenticate("admin", "secret")
        auth = {"X-Auth-Token": token}
        for _ in range(3):
            assert harness.call("GET", "/v3/users/u-alice", headers=auth)[0] == 200
        assert harness.call("DELETE", "/v3/users/u-alice", headers=auth)[0] == 204
        assert len(connects) == 1
        assert connects[0].sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    def test_concurrent_callers_share_the_pool(self, harness):
        """8 threads on one upstream: each reply is the one its caller asked
        for, and the pool ends bounded, holding no stray bytes."""
        for n in range(8 * 50):
            uid = f"u-pool-{n}"
            harness.store.users[uid] = mk.UserRecord(uid, uid, "pw", ["member"], [])
        upstream = harness.gateway.monitor.upstream
        auth = [("X-Auth-Token", harness.authenticate("admin", "secret"))]
        start = threading.Barrier(8)
        mismatches, errors = [], []

        def caller(first: int) -> None:
            try:
                start.wait(timeout=10)
                for uid in (f"u-pool-{n}" for n in range(first, first + 50)):
                    reply = upstream.request("GET", f"/v3/users/{uid}", auth)
                    if reply.status != 200 or reply.json()["user"]["id"] != uid:
                        mismatches.append((uid, reply.status, reply.body))
            except Exception as exc:  # reported below, with the thread's inputs
                errors.append((first, exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=caller, args=(t * 50,), daemon=True)
                for t in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and mismatches == []
        assert len(upstream._idle) <= POOL_SIZE
        assert not any(conn.pending for conn in upstream._idle)

    def test_idle_connection_closed_by_the_upstream_is_not_used(self, harness):
        handler = harness._servers[0].RequestHandlerClass
        handler.timeout = 0.2  # the mock closes connections idle this long
        try:
            upstream = harness.gateway.monitor.upstream
            token = harness.authenticate("admin", "secret")
            auth = [("X-Auth-Token", token)]
            time.sleep(0.5)
            probe = upstream.request("GET", "/v3/users/u-alice", auth, timeout_s=2.0)
            assert probe.status == 200
            time.sleep(0.5)
            before = harness.service.side_effect_count()
            assert upstream.request("DELETE", "/v3/users/u-alice", auth).status == 204
            assert harness.service.side_effect_count() == before + 1
        finally:
            del handler.timeout

    def test_side_effect_on_a_dropped_connection_is_504_and_not_resent(self, harness):
        """The upstream reads the DELETE and closes without replying."""
        handler = harness._servers[0].RequestHandlerClass
        uri = "/v3/users/u-alice"
        deletes = []

        def drop_delete(self):
            deletes.append(self.path)
            self.close_connection = True

        token = harness.authenticate("admin", "secret")
        auth = {"X-Auth-Token": token}
        handler.do_DELETE = drop_delete
        try:
            status, _, body = harness.call("DELETE", uri, headers=auth)
        finally:
            del handler.do_DELETE
        assert status == 504
        assert json.loads(body)["failed"] == [
            {"expr": "upstream reachable", "value": "unknown"}
        ]
        assert deletes == [uri]
        assert not harness.gateway.monitor.variables.processing(uri)
        assert harness.call("DELETE", uri, headers=auth)[0] == 204

    def test_pooled_connection_past_descriptor_1024(self, harness):
        """select() cannot watch a descriptor of 1024 or more; the liveness
        check of a pooled connection must still work there."""
        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        wanted = 1400
        if soft != resource.RLIM_INFINITY and soft < wanted:
            if hard != resource.RLIM_INFINITY and hard < wanted:
                pytest.skip(f"RLIMIT_NOFILE hard limit {hard} is below {wanted}")
            resource.setrlimit(resource.RLIMIT_NOFILE, (wanted, hard))
        fillers = []
        try:
            for _ in range(1100):
                fillers.append(os.open(os.devnull, os.O_RDONLY))
            _, headers, _ = harness.call_mock(
                "POST", "/v3/auth/tokens", password_body("admin", "secret")
            )
            auth = [("X-Auth-Token", dict(headers)["X-Subject-Token"])]
            upstream = harness.gateway.monitor.upstream
            assert upstream.request("GET", "/v3/users/u-alice", auth).status == 200
            assert upstream._idle[-1].sock.fileno() >= 1024
            assert upstream.request("GET", "/v3/users/u-alice", auth).status == 200
            status, _, _ = harness.call("DELETE", "/v3/users/u-alice", headers=dict(auth))
            assert status == 204
        finally:
            for fd in fillers:
                os.close(fd)
            resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))

    def test_reply_with_connection_close_is_not_reused(self):
        listener = socket.create_server(("127.0.0.1", 0))
        accepted = []

        def serve():
            for _ in range(2):
                conn, _ = listener.accept()
                accepted.append(conn)  # left open: only the header says close
                data = b""
                while b"\r\n\r\n" not in data:
                    data += conn.recv(4096)
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\nConnection: close\r\n"
                    b"Content-Length: 2\r\n\r\n{}"
                )

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        try:
            upstream = HttpUpstream(
                f"http://127.0.0.1:{listener.getsockname()[1]}", timeout_s=2.0
            )
            statuses = [upstream.request("GET", "/v3/users").status for _ in range(2)]
            server.join(timeout=5)
        finally:
            for conn in accepted:
                conn.close()
            listener.close()
        assert statuses == [200, 200]
        assert len(accepted) == 2

    def test_timed_out_get_is_not_retried(self):
        listener = socket.create_server(("127.0.0.1", 0))
        accepted = []

        def serve():
            conn, _ = listener.accept()
            accepted.append(conn)
            data = b""
            while b"\r\n\r\n" not in data:
                data += conn.recv(4096)
            conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
            # the next GET on this connection is never answered; a retry
            # would arrive on a second connection
            listener.settimeout(1.0)
            try:
                accepted.append(listener.accept()[0])
            except socket.timeout:
                pass

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        try:
            upstream = HttpUpstream(f"http://127.0.0.1:{listener.getsockname()[1]}")
            assert upstream.request("GET", "/v3/users").status == 200
            with pytest.raises(UpstreamError):
                upstream.request("GET", "/v3/users", timeout_s=0.2)
            server.join(timeout=5)
        finally:
            for conn in accepted:
                conn.close()
            listener.close()
        assert len(accepted) == 1


class TestAuditGet:
    def _audited_get(self, h, token):
        ctx = RequestContext.build(
            "GET", "/v3/users/u-alice", {"X-Auth-Token": token}, b""
        )
        return h.gateway.monitor.handle(ctx, b"")

    def test_no_record_while_an_invariant_holds(self, harness_factory):
        h = harness_factory(audit_get=True)
        token = h.authenticate("admin", "secret")
        # the model's Ready state (self.processing = False) holds
        result = self._audited_get(h, token)
        assert result.status == 200
        assert result.violation is None

    def test_record_when_no_invariant_holds(self, harness_factory):
        h = harness_factory(audit_get=True)
        token = h.authenticate("admin", "secret")
        h.gateway.monitor.state_invariants = [
            ("User_Deleted",
             E.parse_expression("token.token->size()=1 and user.id->size()=0")),
        ]
        result = self._audited_get(h, token)
        assert result.status == 200  # the audit reports, it never blocks
        record = result.violation.to_json()
        assert record["contract"] == "state-audit"
        assert record["method"] == "GET"
        assert record["failed"] == [{"expr": "User_Deleted", "value": "false"}]


class TestDoubleCheck:
    def test_post_check_catches_forged_precondition_environment(self, harness_factory):
        """Even with a pre-phase bypass (forged snapshot claiming the caller
        is an admin) and an upstream that wrongly allows the delete, the
        postcondition still fails on the role conjunct."""
        h = harness_factory(mk.FaultProfile(allow_nonadmin_delete=True))
        alice = h.authenticate("alice", "wonder")
        monitor = h.gateway.monitor
        contract = monitor.contracts[("DELETE", "/v3/users/{user_id}")]
        ctx = RequestContext.build(
            "DELETE", "/v3/users/u-admin", {"X-Auth-Token": alice}, b""
        )
        now = ctx.arrival_time
        forged = {
            "self.processing": E.boolean(False),
            "token.token": E.text(alice),
            "token.expires_at": E.timestamp(now + timedelta(hours=1)),
            "user.id": E.text("u-admin"),
            "user.role": E.text("admin"),
        }
        snapshot = Snapshot(
            {p: forged[str(p)] for p in contract.snapshot_paths}, now
        )
        response = monitor.upstream.request(
            "DELETE", "/v3/users/u-admin", [("X-Auth-Token", alice)]
        )
        assert response.status == 204  # the seeded regression let it through
        env = monitor.resolve_post_env(ctx, contract, response, snapshot)
        failed = monitor.check_postcondition(contract, env)
        assert ("user.role='admin'", E.FALSE) in failed


class TestLayering:
    def test_monitor_holds_no_transport(self):
        """Sockets, regexes and URL parsing belong to ``httpreply``; the
        monitor is contract logic only."""
        with open(monitor_module.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
        assert imported & {"socket", "select", "urllib", "re"} == set()

    def test_only_expr_reads_its_private_names(self):
        """Every other module, runtime or test, goes through ``expr``'s
        public functions: no ``E._name`` and no ``from expr import _name``."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        package, tests = os.path.join(root, "src", "contractgate"), os.path.join(root, "tests")
        sources = [os.path.join(d, name) for d in (package, tests)
                   for name in sorted(os.listdir(d)) if name.endswith(".py")]
        sources.remove(os.path.join(package, "expr.py"))
        reads = []
        for path in sources:
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            aliases = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    aliases.update(a.asname or a.name for a in node.names
                                   if a.name == "contractgate.expr")
                elif isinstance(node, ast.ImportFrom):
                    module = "." * node.level + (node.module or "")
                    if module in ("contractgate", "."):
                        aliases.update(a.asname or a.name for a in node.names
                                       if a.name == "expr")
                    elif module in ("contractgate.expr", ".expr"):
                        reads += [(path, a.name) for a in node.names
                                  if a.name.startswith("_")]
            for node in ast.walk(tree):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.value.id in aliases
                        and node.attr.startswith("_")
                        and not node.attr.startswith("__")):
                    reads.append((path, node.attr))
        assert reads == []
