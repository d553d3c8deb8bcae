"""Gateway wiring tests: config, admin endpoints, violation log, and the
alternate operating modes."""

import hashlib
import json
import random
import socket
import time

import pytest

from contractgate import expr as E
from contractgate import gateway
from contractgate.gateway import (
    MAX_BODY_BYTES,
    GatewayConfig,
    ViolationLog,
    _GatewayHandler,
    build_gateway,
    flip_clock_comparisons,
)
from contractgate.monitor import Verdict, ViolationRecord
from conftest import password_body
from oracle import gen_expression_text
from datetime import datetime, timezone


class TestConfig:
    def test_defaults(self):
        cfg = GatewayConfig()
        assert cfg.probe_timeout_ms == 2000
        assert cfg.upstream_timeout_ms == 10000
        assert cfg.expires_reading == "corrected"
        assert not cfg.paper_status

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError):
            GatewayConfig(probe_timeout_ms=0)

    def test_rejects_unknown_expires_reading(self):
        with pytest.raises(ValueError):
            GatewayConfig(expires_reading="sideways")

    def test_environment_overrides(self, monkeypatch):
        monkeypatch.setenv("CONTRACTGATE_PROBE_TIMEOUT_MS", "123")
        monkeypatch.setenv("CONTRACTGATE_PAPER_STATUS", "true")
        monkeypatch.setenv("CONTRACTGATE_UPSTREAM", "http://example:9999")
        cfg = GatewayConfig()
        assert cfg.probe_timeout_ms == 123
        assert cfg.paper_status is True
        assert cfg.upstream_base_url == "http://example:9999"

    def test_invalid_model_path_raises(self):
        with pytest.raises(OSError):
            build_gateway(GatewayConfig(model_path="/nonexistent.model",
                                        upstream_base_url="http://localhost:1"))


class TestFlipClockComparisons:
    def test_swaps_clock_orderings(self):
        e = E.parse_expression("clockTime <= token.expires_at")
        assert E.to_text(flip_clock_comparisons(e)) == "token.expires_at<=clockTime"

    def test_leaves_other_comparisons_alone(self):
        e = E.parse_expression("a.x <= 3 and user.role='admin'")
        assert flip_clock_comparisons(e) == e

    def test_recurses_through_connectives(self):
        e = E.parse_expression(
            "a.x=1 and (clockTime < token.expires_at ==> not b.y=2)"
        )
        assert "token.expires_at<clockTime" in E.to_text(flip_clock_comparisons(e))


    def test_flipping_twice_is_the_identity(self):
        rng = random.Random(41)
        for _ in range(300):
            e = E.parse_expression(gen_expression_text(rng))
            assert flip_clock_comparisons(flip_clock_comparisons(e)) == e


class TestAdminEndpoints:
    def test_healthz_reports_model_checksum(self, harness):
        status, _, body = harness.call("GET", "/healthz")
        assert status == 200
        doc = json.loads(body)
        assert doc["status"] == "ok"
        with open(harness.gateway.config.model_path, "rb") as fh:
            assert doc["model_sha256"] == hashlib.sha256(fh.read()).hexdigest()

    def test_contracts_endpoint_is_stable(self, harness):
        first = harness.call("GET", "/contracts")
        second = harness.call("GET", "/contracts")
        assert first[0] == 200
        assert first[2] == second[2]
        assert b"contract POST /v3/auth/tokens" in first[2]
        assert b"contract DELETE /v3/users/{user_id}" in first[2]


def _record(expr_text="user.role='admin'"):
    return ViolationRecord(
        timestamp=datetime(2026, 8, 1, tzinfo=timezone.utc),
        verdict=Verdict(
            outcome="pre_violation",
            failed_atoms=[(expr_text, E.FALSE)],
            contract_id="DELETE /v3/users/{user_id}",
        ),
        method="DELETE",
        uri="/v3/users/u-admin",
    )


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestViolationLog:
    def test_writes_jsonl(self, tmp_path):
        path = tmp_path / "violations.jsonl"
        log = ViolationLog(str(path))
        log.record(_record())
        log.record(_record("token.token->size()=1"))
        log.close()
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(lines) == 2
        assert lines[0]["phase"] == "pre"
        assert lines[0]["failed"] == [
            {"expr": "user.role='admin'", "value": "false"}
        ]
        assert lines[1]["contract"] == "DELETE /v3/users/{user_id}"

    def test_record_reaches_the_file_while_open(self, tmp_path):
        path = tmp_path / "violations.jsonl"
        log = ViolationLog(str(path))
        try:
            log.record(_record())
            assert _wait_for(
                lambda: path.exists() and path.read_text().endswith("\n"),
                timeout=1.0,
            )
            assert json.loads(path.read_text())["phase"] == "pre"
        finally:
            log.close()

    def test_overload_drops_oldest_and_counts(self, tmp_path):
        log = ViolationLog(str(tmp_path / "v.jsonl"), max_queue=4)
        # stall the writer by flooding faster than it can drain
        for _ in range(500):
            log.record(_record())
        log.close()
        assert log.written + log.dropped == 500

    def test_pathless_log_counts_without_writing(self):
        log = ViolationLog(None)
        log.record(_record())
        assert _wait_for(lambda: log.written == 1)
        log.close()


class TestOperatingModes:
    def test_paper_status_maps_violations_to_404(self, harness_factory):
        h = harness_factory(paper_status=True)
        status, _, body = h.call(
            "DELETE", "/v3/users/u-alice"  # no token: pre violation
        )
        assert status == 404
        assert json.loads(body)["phase"] == "pre"

    def test_paper_status_keeps_405(self, harness_factory):
        h = harness_factory(paper_status=True)
        status, _, _ = h.call("PATCH", "/v3/auth/tokens")
        assert status == 405

    def test_paper_expires_reading_rejects_fresh_tokens(self, harness_factory):
        """Under the literal reading the freshness invariant demands an
        already-expired token, so a successful authentication violates the
        POST postcondition."""
        h = harness_factory(expires_reading="paper")
        status, _, body = h.call(
            "POST", "/v3/auth/tokens", password_body("admin", "secret")
        )
        assert status == 502
        failed = {atom["expr"] for atom in json.loads(body)["failed"]}
        assert any("expires_at" in expr for expr in failed)

    def test_violations_reach_the_log_file(self, harness_factory, tmp_path):
        path = tmp_path / "gateway.jsonl"
        h = harness_factory(log_path=str(path))
        status, _, _ = h.call("DELETE", "/v3/users/u-alice")
        assert status == 412
        assert _wait_for(lambda: h.gateway.violation_log.written == 1)
        record = json.loads(path.read_text().splitlines()[0])
        assert record["phase"] == "pre"
        assert record["method"] == "DELETE"
        assert record["uri"] == "/v3/users/u-alice"
        assert record["latency_ms"] >= 0


def _raw_exchange(port: int, request: bytes) -> bytes:
    """Send raw bytes to the gateway and read until it closes the
    connection (a timeout fails the test)."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(request)
        reply = b""
        try:
            while chunk := sock.recv(65536):
                reply += chunk
        except ConnectionResetError:
            pass
    return reply


class TestRequestFraming:
    """Framing the gateway does not read is refused with one response and
    a closed connection, before anything reaches the upstream."""

    LOGIN = json.dumps(password_body("admin", "secret")).encode()

    @pytest.mark.parametrize(
        "framing, status",
        [
            (b"Content-Length: abc\r\n", 400),
            (b"Content-Length: -5\r\n", 400),
            (b"Content-Length: 2\r\nContent-Length: 3\r\n", 400),
            (f"Content-Length: {MAX_BODY_BYTES + 1}\r\n".encode(), 413),
            (b"Transfer-Encoding: chunked\r\n", 411),
        ],
    )
    def test_refused_and_closed(self, harness, framing, status):
        before = harness.service.side_effect_count()
        body = b"%x\r\n%s\r\n0\r\n\r\n" % (len(self.LOGIN), self.LOGIN)
        if b"Transfer-Encoding" not in framing:
            body = b""  # the declared length is never sent
        reply = _raw_exchange(
            harness.port,
            b"POST /v3/auth/tokens HTTP/1.1\r\nHost: gw\r\n"
            b"Content-Type: application/json\r\n" + framing + b"\r\n" + body,
        )
        assert reply.startswith(b"HTTP/1.1 %d " % status)
        assert reply.count(b"HTTP/1.1 ") == 1
        assert harness.service.side_effect_count() == before

    def test_well_framed_request_keeps_the_connection(self, harness):
        request = (
            b"POST /v3/auth/tokens HTTP/1.1\r\nHost: gw\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(self.LOGIN), self.LOGIN)
        )
        reply = _raw_exchange(
            harness.port, request + request.replace(b"HTTP/1.1", b"HTTP/1.0", 1)
        )
        assert reply.count(b"HTTP/1.1 201 ") == 2


def _raw_session(port: int, request: bytes) -> bytes:
    """Send raw bytes, half-close the connection and read until the gateway
    closes it: every response the bytes produced."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(request)
        sock.shutdown(socket.SHUT_WR)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    return reply


class TestStrictHeaderBlock:
    """The edge reads its own request line and header block.  Anything it
    cannot frame is refused with one response and a closed connection, and
    nothing reaches the upstream."""

    def _refused(self, harness, request: bytes, status: int) -> bytes:
        before = len(harness.service.request_log)
        reply = _raw_exchange(harness.port, request)
        assert reply.startswith(b"HTTP/1.1 %d " % status)
        assert reply.count(b"HTTP/1.1 ") == 1
        assert json.loads(reply.partition(b"\r\n\r\n")[2])["error"]
        assert len(harness.service.request_log) == before
        return reply

    def test_line_without_colon_does_not_smuggle_the_body(self, harness):
        """Before, the stdlib parser stopped at the bad line, lost the
        Content-Length after it and read the body as a second request."""
        smuggled = b"GET /v3/roles HTTP/1.1\r\nHost: gw\r\n\r\n"
        self._refused(
            harness,
            b"POST /v3/auth/tokens HTTP/1.1\r\nHost: gw\r\nbogus line\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(smuggled), smuggled),
            400,
        )

    def test_bare_cr_in_a_value_does_not_drop_later_headers(self, harness):
        token = harness.authenticate("admin", "secret").encode()
        self._refused(
            harness,
            b"DELETE /v3/users/u-alice HTTP/1.1\r\nHost: gw\r\nX-Note: a\rb\r\n"
            b"X-Auth-Token: " + token + b"\r\n\r\n",
            400,
        )
        assert "u-alice" in harness.store.users

    @pytest.mark.parametrize(
        "line",
        [
            b"X-Folded: a\r\n  b\r\n",  # obs-fold
            b"X-Space : a\r\n",  # whitespace before the colon
            b": a\r\n",  # empty name
            b"X-Nul: a\x00b\r\n",
            b"X-Bare-Lf: a\nX-Next: b\r\n",
        ],
    )
    def test_malformed_field_is_400(self, harness, line):
        self._refused(
            harness,
            b"POST /v3/auth/tokens HTTP/1.1\r\nHost: gw\r\n" + line
            + b"Content-Length: 0\r\n\r\n",
            400,
        )

    def test_more_than_100_fields_is_431(self, harness):
        fields = b"".join(b"X-F%d: v\r\n" % i for i in range(100))
        reply = _raw_exchange(harness.port, b"GET /healthz HTTP/1.0\r\n" + fields + b"\r\n")
        assert reply.startswith(b"HTTP/1.1 200 ")
        self._refused(
            harness, b"GET /healthz HTTP/1.1\r\n" + fields + b"X-F100: v\r\n\r\n", 431
        )

    def test_line_over_65536_bytes_is_431(self, harness):
        line = b"X-Long: " + b"a" * (65537 - len(b"X-Long: "))
        self._refused(harness, b"GET /healthz HTTP/1.1\r\n" + line, 431)

    @pytest.mark.parametrize(
        "request_line, status",
        [
            (b"GET /healthz HTTP/2.0\r\n", 505),
            (b"PRI * HTTP/2.0\r\n", 505),
            (b"GET /healthz\r\n", 400),
            (b"GET  /healthz HTTP/1.1\r\n", 400),
            (b"GET /health z HTTP/1.1\r\n", 400),
            (b"GET /healthz HTTP/0.9\r\n", 400),
            (b"GET /healthz http/1.1\r\n", 400),
        ],
    )
    def test_bad_request_line(self, harness, request_line, status):
        self._refused(harness, request_line + b"Host: gw\r\n\r\n", status)

    def test_body_shorter_than_its_length_is_400(self, harness):
        login = json.dumps(password_body("admin", "secret")).encode()
        reply = _raw_session(
            harness.port,
            b"POST /v3/auth/tokens HTTP/1.1\r\nHost: gw\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(login) + 10, login),
        )
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert harness.service.side_effect_count() == 0

    def test_expect_100_continue(self, harness):
        login = json.dumps(password_body("admin", "secret")).encode()
        with socket.create_connection(("127.0.0.1", harness.port), timeout=5) as sock:
            sock.sendall(
                b"POST /v3/auth/tokens HTTP/1.1\r\nHost: gw\r\n"
                b"Expect: 100-continue\r\nConnection: close\r\n"
                b"Content-Length: %d\r\n\r\n" % len(login)
            )
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                interim += sock.recv(1)
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(login)
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 201 ")
        assert reply.count(b"HTTP/1.1 ") == 1

    def test_no_100_continue_for_a_body_that_is_refused(self, harness):
        reply = self._refused(
            harness,
            b"POST /v3/auth/tokens HTTP/1.1\r\nHost: gw\r\nExpect: 100-continue\r\n"
            b"Content-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1),
            413,
        )
        assert b" 100 " not in reply

    @pytest.mark.parametrize(
        "raw, status",
        [
            (b"OPTIONS /v3/users HTTP/1.1\r\nHost: gw\r\n\r\n", 501),
            (b"GET /" + b"a" * (65537 - len(b"GET /")), 414),  # a 65537-byte line
        ],
    )
    def test_stdlib_refusals_take_the_same_shape(self, harness, raw, status):
        self._refused(harness, raw, status)

    def test_http_1_0_closes(self, harness):
        reply = _raw_exchange(harness.port, b"GET /healthz HTTP/1.0\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 200 ")
        assert reply.count(b"HTTP/1.1 ") == 1

    def test_pipelined_requests_are_answered_in_order(self, harness):
        reply = _raw_exchange(
            harness.port,
            b"GET /healthz HTTP/1.1\r\nHost: gw\r\n\r\n"
            b"GET /contracts HTTP/1.1\r\nHost: gw\r\nConnection: close\r\n\r\n",
        )
        first, second = reply.split(b"HTTP/1.1 200 OK\r\n")[1:]
        assert b"model_sha256" in first
        assert b"contract DELETE /v3/users/{user_id}" in second

    def test_leading_slashes_collapse(self, harness):
        reply = _raw_exchange(
            harness.port, b"GET //healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        assert reply.startswith(b"HTTP/1.1 200 ")


class TestClientTimeout:
    """A client connection left idle, or stopped inside its header block,
    is closed once the handler's timeout passes, without a reply."""

    @pytest.fixture(autouse=True)
    def short_timeout(self, monkeypatch):
        assert _GatewayHandler.timeout == gateway.CLIENT_TIMEOUT_S
        monkeypatch.setattr(_GatewayHandler, "timeout", 0.3)

    def test_idle_kept_alive_connection_is_closed(self, harness):
        with socket.create_connection(("127.0.0.1", harness.port), timeout=5) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: gw\r\n\r\n")
            started = time.monotonic()
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
            idle = time.monotonic() - started
        assert reply.startswith(b"HTTP/1.1 200 ")
        assert reply.count(b"HTTP/1.1 ") == 1
        assert idle < 3

    def test_header_block_cut_off_is_dropped(self, harness):
        before = len(harness.service.request_log)
        with socket.create_connection(("127.0.0.1", harness.port), timeout=5) as sock:
            sock.sendall(b"DELETE /v3/users/u-alice HTTP/1.1\r\nHost: gw\r\nX-Auth-")
            assert sock.recv(65536) == b""
        assert len(harness.service.request_log) == before


class TestConcurrency:
    def test_parallel_gets_all_succeed(self, harness):
        import concurrent.futures

        token = harness.authenticate("admin", "secret")

        def fetch(_):
            status, _, _ = harness.call(
                "GET", "/v3/users", headers={"X-Auth-Token": token}
            )
            return status

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(fetch, range(24)))
        assert results == [200] * 24

    def test_concurrent_side_effects_on_one_resource_serialize(self, harness):
        """Simultaneous POSTs to one URI either succeed or are rejected with
        the in-flight (self.processing) pre-violation — never both run the
        upstream side effect concurrently under a passed pre-check."""
        import concurrent.futures

        def auth(_):
            status, headers, _ = harness.call(
                "POST", "/v3/auth/tokens", password_body("admin", "secret")
            )
            return status, dict(headers).get("X-Subject-Token")

        with concurrent.futures.ThreadPoolExecutor(max_workers=6) as pool:
            results = list(pool.map(auth, range(12)))
        assert {status for status, _ in results} <= {201, 412}
        winners = [token for status, token in results if status == 201]
        assert winners  # at least one got through
        assert len(set(winners)) == len(winners)  # all distinct tokens
