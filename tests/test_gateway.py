"""Gateway wiring tests: config, admin endpoints, violation log, and the
alternate operating modes."""

import builtins
import hashlib
import json
import random
import os
import socket
import subprocess
import sys
import threading
import time

import pytest

from contractgate import expr as E
from contractgate import gateway
from contractgate.cli import build_parser, run_config
from contractgate.gateway import (
    GatewayConfig,
    ViolationLog,
    _GatewayHandler,
    build_gateway,
    flip_clock_comparisons,
)
from contractgate.httpreply import MAX_BODY_BYTES
from contractgate.monitor import RequestContext, Verdict, ViolationRecord
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
        """With no flag given, the CONTRACTGATE_* variable named after it sets
        the setting; the parser is what reads them."""
        monkeypatch.setenv("CONTRACTGATE_PROBE_TIMEOUT_MS", "123")
        monkeypatch.setenv("CONTRACTGATE_PAPER_STATUS", "true")
        monkeypatch.setenv("CONTRACTGATE_UPSTREAM", "http://example:9999")
        cfg = run_config(build_parser().parse_args(["run", "--model", "m.model"]))
        assert cfg == GatewayConfig(
            upstream_base_url="http://example:9999", model_path="m.model",
            probe_timeout_ms=123, paper_status=True,
        )

    def test_keeps_its_arguments_over_the_environment(self, monkeypatch):
        monkeypatch.setenv("CONTRACTGATE_UPSTREAM", "http://10.9.9.9:1")
        monkeypatch.setenv("CONTRACTGATE_PROBE_TIMEOUT_MS", "123")
        cfg = GatewayConfig(upstream_base_url="http://127.0.0.1:5001")
        assert cfg.upstream_base_url == "http://127.0.0.1:5001"
        assert cfg.probe_timeout_ms == 2000

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

    def test_recurses_into_comparison_operands(self):
        # a formula operand of a comparison is evaluated, so it is flipped too
        e = E.parse_expression("(clockTime <= token.expires_at) = (not clockTime > a.t)")
        assert E.to_text(flip_clock_comparisons(e)) == (
            "(token.expires_at<=clockTime)=(not a.t>clockTime)"
        )

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


class TestFootprint:
    LEFT_OUT = {
        "http.server",
        "http.client",
        "ssl",
        "_ssl",
        "email",
        "email.parser",
        "email.utils",
        "_hashlib",
        "contractgate.mock_server",
        "contractgate.mock_keystone",
        "random",
        "importlib.resources",
        "tempfile",
        "shutil",
        "dataclasses",
        "inspect",
        "ast",
        "dis",
    }

    def test_gateway_process_loads_no_http_tls_or_email_stack(self):
        """What `contractgate run` imports and builds, in a fresh interpreter
        (-S: what site packages load is not the gateway's doing)."""
        script = (
            "import json, sys\n"
            "import contractgate.cli\n"
            "from contractgate import keystone_fixture_path\n"
            "from contractgate.gateway import GatewayConfig, build_gateway, make_server\n"
            "gw = build_gateway(GatewayConfig(listen_address='127.0.0.1:0',\n"
            "    upstream_base_url='http://127.0.0.1:9', model_path=keystone_fixture_path()))\n"
            "make_server(gw).server_close()\n"
            "gw.violation_log.close()\n"
            "print(json.dumps(sorted(sys.modules)))\n"
        )
        src = os.path.dirname(os.path.dirname(gateway.__file__))
        done = subprocess.run(
            [sys.executable, "-S", "-c", script],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            check=True,
            timeout=60,
        )
        loaded = set(json.loads(done.stdout))
        assert "contractgate.gateway" in loaded
        assert loaded & self.LEFT_OUT == set()
        assert not [name for name in loaded if name.startswith("email.")]


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


def _line(violation) -> str:
    return json.dumps(violation.to_json(), sort_keys=True)


def _numbered(n: int) -> ViolationRecord:
    record = _record()
    record.uri = f"/v3/users/u-{n}"
    return record


class _CountingFile:
    """A file whose write calls are counted; ``fail`` makes them raise."""

    def __init__(self, fh, fail=False):
        self._fh, self.fail, self.writes = fh, fail, 0

    def write(self, text):
        self.writes += 1
        if self.fail:
            raise OSError("no space left on device")
        return self._fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()


class _Opened(list):
    fail_next = False  # the next opened file's writes raise


@pytest.fixture
def opened(monkeypatch):
    """Every file the violation log opens, wrapped in a _CountingFile."""
    files = _Opened()

    def counting_open(*args, **kwargs):
        files.append(_CountingFile(builtins.open(*args, **kwargs), files.fail_next))
        files.fail_next = False
        return files[-1]

    monkeypatch.setattr(gateway, "open", counting_open, raising=False)
    return files


@pytest.fixture
def held_writer(monkeypatch):
    """The writer sleeps until close(): every record lands in one batch."""
    monkeypatch.setattr(gateway, "FLUSH_INTERVAL_S", 60.0)


class TestBatchedViolationWriter:
    def test_burst_reaches_the_file_in_order_in_few_writes(self, tmp_path, opened):
        path = tmp_path / "v.jsonl"
        log = ViolationLog(str(path))
        records = [_numbered(n) for n in range(200)]
        for r in records:
            log.record(r)
        log.close()
        assert path.read_text().splitlines() == [_line(r) for r in records]
        assert (log.written, log.dropped) == (200, 0)
        assert sum(f.writes for f in opened) <= 200 // 10

    def test_record_does_not_wake_the_writer(self, tmp_path, held_writer):
        path = tmp_path / "v.jsonl"
        log = ViolationLog(str(path))
        log.record(_record())
        time.sleep(0.2)
        assert (log.buffered, log.written, path.exists()) == (1, 0, False)
        log.close()  # wakes the writer at once
        assert (log.buffered, log.written) == (0, 1)
        assert path.read_text() == _line(_record()) + "\n"

    def test_overload_keeps_the_newest(self, tmp_path, held_writer):
        path = tmp_path / "v.jsonl"
        log = ViolationLog(str(path), max_queue=4)
        records = [_numbered(n) for n in range(10)]
        for r in records:
            log.record(r)
        assert (log.buffered, log.dropped) == (4, 6)
        log.close()
        assert path.read_text().splitlines() == [_line(r) for r in records[-4:]]
        assert (log.written, log.dropped) == (4, 6)

    def test_concurrent_records_are_all_counted(self, tmp_path):
        """Handler threads append while the writer swaps the buffer out:
        no record may be lost uncounted or counted twice."""
        path = tmp_path / "v.jsonl"
        log = ViolationLog(str(path), max_queue=64)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=lambda: [log.record(_record()) for _ in range(500)])
                for _ in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(old)
        log.close()
        assert not any(t.is_alive() for t in threads) and not log.writer_alive
        assert log.written + log.dropped == 2000
        assert len(path.read_text().splitlines()) == log.written

    def test_record_after_close_is_counted_as_dropped(self, tmp_path):
        log = ViolationLog(str(tmp_path / "v.jsonl"))
        log.record(_record())
        log.close()
        log.record(_record())  # a handler still running at shutdown
        assert (log.written, log.dropped, log.buffered) == (1, 1, 0)

    def test_unopenable_log_counts_records_as_dropped(self, tmp_path):
        log = ViolationLog(str(tmp_path))  # a directory: open() fails
        for _ in range(3):
            log.record(_record())
        log.close()
        assert (log.written, log.dropped) == (0, 3)

    def test_failed_write_drops_its_batch_and_the_next_reopens(self, tmp_path, opened):
        path = tmp_path / "v.jsonl"
        opened.fail_next = True
        log = ViolationLog(str(path))
        log.record(_numbered(1))
        assert _wait_for(lambda: log.dropped == 1)
        log.record(_numbered(2))
        log.close()
        assert (log.written, log.dropped) == (1, 1)
        assert [f.fail for f in opened] == [True, False]
        assert path.read_text() == _line(_numbered(2)) + "\n"

    @pytest.mark.parametrize("poison", [
        type("Raises", (), {"to_json": lambda self: 1 / 0})(),
        type("NotJson", (), {"to_json": lambda self: {"x": object()}})(),
    ])
    def test_unencodable_record_is_dropped_and_the_writer_lives(
        self, tmp_path, caplog, poison
    ):
        path = tmp_path / "v.jsonl"
        log = ViolationLog(str(path))
        log.record(_numbered(1))
        log.record(poison)
        log.record(_numbered(2))
        assert _wait_for(lambda: log.written + log.dropped == 3)
        assert log.writer_alive
        log.record(_numbered(3))
        log.close()
        assert path.read_text().splitlines() == [_line(_numbered(n)) for n in (1, 2, 3)]
        assert (log.written, log.dropped) == (3, 1)
        assert any("not encodable" in r.getMessage() for r in caplog.records)

    def test_record_from_handle_encodes_the_same_later(self, harness):
        """The writer encodes a record after the reply has gone, so nothing
        the monitor does later may change what the record says."""
        monitor = harness.gateway.monitor
        token = harness.authenticate("alice", "wonder")
        ctx = RequestContext.build(
            "DELETE", "/v3/users/u-admin", {"X-Auth-Token": token}, b""
        )
        raw = json.dumps(password_body("admin", "wrong")).encode()
        login = RequestContext.build("POST", "/v3/auth/tokens", {}, raw)
        pre = monitor.handle(ctx, b"").violation
        post = monitor.handle(login, raw).violation
        lines = [_line(pre), _line(post)]

        monitor.handle(ctx, b"")
        monitor.handle(login, raw)
        admin = harness.authenticate("admin", "secret")
        assert harness.call(
            "DELETE", "/v3/users/u-alice", headers={"X-Auth-Token": admin}
        )[0] == 204
        harness.call("DELETE", "/v3/users/u-admin", headers={"X-Auth-Token": token})
        assert [_line(pre), _line(post)] == lines


class TestHealthz:
    def test_reports_the_violation_writer(self, harness):
        status, _, body = harness.call("GET", "/healthz")
        doc = json.loads(body)
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["log_writer_alive"] is True
        assert (doc["log_buffered"], doc["log_dropped"]) == (0, 0)

    def test_dead_writer_is_503(self, harness):
        harness.gateway.violation_log.close()  # the writer thread exits
        status, _, body = harness.call("GET", "/healthz")
        doc = json.loads(body)
        assert status == 503
        assert doc["log_writer_alive"] is False
        assert "log_dropped" in doc


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
            # past the 4300 digits int() reads
            pytest.param(b"Content-Length: 1" + b"0" * 5000 + b"\r\n", 413, id="5001-digits-413"),
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


class TestUnparseableBody:
    def test_deeply_nested_body_is_refused_like_any_unparseable_one(self, harness):
        """json.loads raises RecursionError past about 1000 levels.  Such a
        body reads as unparseable: request.* is Absent and the request gets
        the same fail-closed 412 as a body that is no JSON at all."""
        replies = [
            _raw_exchange(
                harness.port,
                b"POST /v3/auth/tokens HTTP/1.1\r\nHost: gw\r\nConnection: close\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(body), body),
            )
            for body in (b"[" * 5000, b"not json")
        ]
        assert replies[0].startswith(b"HTTP/1.1 412 ")
        assert replies[0] == replies[1]
        assert harness.service.side_effect_count() == 0


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


class TestSocketClosedUnderTheHandler:
    def test_handler_on_a_closed_socket_ends_quietly(self):
        """The server can close a connection's socket under its handler, as
        a SIGINT inside ``process_request`` does; the handler then ends as
        for a client that went away, and prints no traceback."""
        sock = socket.socket()
        sock.close()
        _GatewayHandler(sock, ("127.0.0.1", 0), None)


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
