"""Acceptance suite: one test per criterion, each ending in a single
printed PASS/FAIL line.

Tolerances and bounds:
  1. logical equivalence is exact (exhaustive three-valued evaluation after
     atom abstraction, <= 12 atoms); wall-clock bound 10 s
  2. scenario outcomes are exact status/body checks; wall-clock bound 5 s
  3-4. exact record contents; no timing bound
  5. 100% agreement demanded, exhaustive over <= 4 atoms (3^4 assignments),
     sampled (seeded, 500 assignments) for the larger reference expressions
  6. byte-identical status/headers/body after removing hop-by-hop headers
  7. zero tolerance: no non-GET upstream call without a passed precondition
  8. exact structural equality on 1000 generated expressions + the fixture
"""

import itertools
import json
import random
import time
from contextlib import contextmanager
from datetime import datetime, timezone

from contractgate import expr as E
from contractgate import mock_keystone as mk
from contractgate import mock_server as ms
from contractgate.model import load_model

from conftest import GOLDEN, boot_harness, password_body, token_body
from oracle import (
    TRI_TO_TRIBOOL,
    T,
    F,
    U,
    abstract_atoms,
    environment_for,
    gen_boolean_expr,
    gen_expression_text,
    k3_equivalent,
    oracle_eval,
)

HOP_BY_HOP = {
    "connection", "keep-alive", "proxy-authenticate", "proxy-authorization",
    "te", "trailer", "transfer-encoding", "upgrade",
}


@contextmanager
def report(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


@contextmanager
def running_harness(*args, **kwargs):
    h = boot_harness(*args, **kwargs)
    try:
        yield h
    finally:
        h.close()


def test_1_contract_derivation_golden(fixture_contracts):
    with report(1, "contract-derivation-golden"):
        started = time.monotonic()
        for (method, uri, phase), transcription in GOLDEN.items():
            contract = fixture_contracts[(method, uri)]
            derived = contract.pre if phase == "pre" else contract.post
            assert k3_equivalent(derived, E.parse_expression(transcription)), (
                f"{method} {uri} {phase} not equivalent to transcription"
            )
        post_text = E.to_text(fixture_contracts[("POST", "/v3/auth/tokens")].post)
        assert "token.catalog->size()=1" in post_text  # scoped branch
        assert "token.catalog->size()=0" in post_text  # unscoped branch
        delete = fixture_contracts[("DELETE", "/v3/users/{user_id}")]
        assert "user.role='admin'" in E.to_text(delete.pre)
        assert "user.role='admin'" in E.to_text(delete.post)
        assert time.monotonic() - started < 10.0


def test_2_authentication_scenarios():
    with report(2, "authentication-scenarios-table"):
        with running_harness() as h:
            started = time.monotonic()

            def expect_token(body_doc, scoped):
                status, headers, body = h.call("POST", "/v3/auth/tokens", body_doc)
                assert status == 201, f"expected 201, got {status}: {body!r}"
                doc = json.loads(body)
                assert ("catalog" in doc["token"]) is scoped
                return dict(headers)["X-Subject-Token"]

            # 1.1 password authentication, no scope -> unscoped token
            seed_token = expect_token(password_body("admin", "secret"), scoped=False)
            # 1.2 password authentication, explicit unscope -> unscoped token
            expect_token(password_body("admin", "secret", "unscope"), scoped=False)
            # 1.3 token authentication, no scope -> unscoped token
            expect_token(token_body(seed_token), scoped=False)
            # 1.4 token authentication, explicit unscope -> unscoped token
            expect_token(token_body(seed_token, "unscope"), scoped=False)
            # 2.1 password authentication with project scope -> scoped token
            expect_token(
                password_body("admin", "secret", {"project": {"name": "demo"}}),
                scoped=True,
            )
            # 2.2 token authentication with project scope -> scoped token
            expect_token(
                token_body(seed_token, {"project": {"name": "demo"}}), scoped=True
            )

            # invalid credentials: pre-violation, zero upstream side effects
            before = h.service.side_effect_count()
            status, _, body = h.call(
                "POST",
                "/v3/auth/tokens",
                {"auth": {"identity": {"methods": ["password"],
                                       "password": {"user": {}}}}},
            )
            assert status == 412
            assert json.loads(body)["phase"] == "pre"
            assert h.service.side_effect_count() == before

            assert time.monotonic() - started < 5.0


def test_3_authorization_double_check():
    with report(3, "authorization-double-check"):
        # (a) non-admin DELETE blocked pre-flight
        with running_harness() as h:
            alice = h.authenticate("alice", "wonder")
            before = h.service.side_effect_count()
            status, _, body = h.call(
                "DELETE", "/v3/users/u-admin", headers={"X-Auth-Token": alice}
            )
            assert status == 412
            assert json.loads(body)["failed"] == [
                {"expr": "user.role='admin'", "value": "false"}
            ]
            assert h.service.side_effect_count() == before

        # (b) seeded authorization regression + forged pre-phase environment:
        # the post check still reports the role violation
        from datetime import timedelta
        from contractgate.monitor import RequestContext, Snapshot

        with running_harness(mk.FaultProfile(allow_nonadmin_delete=True)) as h:
            alice = h.authenticate("alice", "wonder")
            monitor = h.gateway.monitor
            contract = monitor.contracts[("DELETE", "/v3/users/{user_id}")]
            ctx = RequestContext.build(
                "DELETE", "/v3/users/u-admin", {"X-Auth-Token": alice}, b""
            )
            forged = {
                "self.processing": E.boolean(False),
                "token.token": E.text(alice),
                "token.expires_at": E.timestamp(
                    ctx.arrival_time + timedelta(hours=1)
                ),
                "user.id": E.text("u-admin"),
                "user.role": E.text("admin"),  # the forged claim
            }
            snapshot = Snapshot(
                {p: forged[str(p)] for p in contract.snapshot_paths},
                ctx.arrival_time,
            )
            response = monitor.upstream.request(
                "DELETE", "/v3/users/u-admin", [("X-Auth-Token", alice)]
            )
            assert response.status == 204  # regression let the delete through
            env = monitor.resolve_post_env(ctx, contract, response, snapshot)
            failed = monitor.check_postcondition(contract, env)
            assert ("user.role='admin'", E.FALSE) in failed


def test_4_fault_detection(tmp_path):
    with report(4, "fault-detection"):
        # omit-catalog: exactly one post_violation naming the catalog conjunct
        log_path = tmp_path / "omit.jsonl"
        with running_harness(
            mk.FaultProfile(omit_catalog=True), log_path=str(log_path)
        ) as h:
            status, _, body = h.call(
                "POST",
                "/v3/auth/tokens",
                password_body("admin", "secret", {"project": {"name": "demo"}}),
            )
            assert status == 502
            deadline = time.monotonic() + 5.0
            while h.gateway.violation_log.written < 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)
        records = [json.loads(l) for l in log_path.read_text().splitlines()]
        assert len(records) == 1
        assert records[0]["phase"] == "post"
        assert records[0]["failed"] == [
            {"expr": "token.catalog->size()=1", "value": "false"}
        ]

        # issue-expired: the freshness conjunct fails under the corrected
        # reading (clockTime <= token.expires_at)
        with running_harness(mk.FaultProfile(issue_expired=True)) as h:
            status, _, body = h.call(
                "POST", "/v3/auth/tokens", password_body("admin", "secret")
            )
            assert status == 502
            failed = {atom["expr"] for atom in json.loads(body)["failed"]}
            assert "clockTime<=token.expires_at" in failed


def test_5_evaluator_oracle(fixture_contracts):
    with report(5, "evaluator-vs-bruteforce-oracle"):
        rng = random.Random(20260824)
        atoms = [E.make_path(["self", f"a{i}"]) for i in range(4)]

        # generated expressions: exhaustive over all 3^4 assignments
        for _ in range(100):
            e = gen_boolean_expr(rng, atoms)
            for combo in itertools.product((T, F, U), repeat=len(atoms)):
                assignment = dict(zip(atoms, combo))
                got = E.evaluate(e, environment_for(assignment))
                assert got is TRI_TO_TRIBOOL[oracle_eval(e, assignment)]

        # reference expressions with atoms abstracted: seeded sampling
        for (method, uri, phase), transcription in GOLDEN.items():
            atom_map: dict[str, E.Path] = {}
            abstracted = abstract_atoms(
                E.parse_expression(transcription), atom_map
            )
            paths = list(atom_map.values())
            for _ in range(500):
                assignment = {p: rng.choice((T, F, U)) for p in paths}
                got = E.evaluate(abstracted, environment_for(assignment))
                assert got is TRI_TO_TRIBOOL[oracle_eval(abstracted, assignment)]


def test_6_non_interference():
    with report(6, "non-interference"):
        fixed_now = datetime.now(timezone.utc)
        clock = lambda: fixed_now  # noqa: E731
        direct = mk.MockKeystone(mk.IdentityStore(clock=clock))
        direct_server = ms.make_server(direct)
        import threading

        threading.Thread(target=direct_server.serve_forever,
                         kwargs={"poll_interval": 0.02}, daemon=True).start()
        direct_port = direct_server.server_address[1]

        from conftest import http_call

        with running_harness(clock=clock) as h:
            rng = random.Random(6)
            tokens: list[str] = []

            def both(method, path, body=None, headers=None):
                via_gateway = h.call(method, path, body=body, headers=headers)
                mock_direct = http_call(direct_port, method, path,
                                        body=body, headers=headers)
                return via_gateway, mock_direct

            def compare(a, b):
                assert a[0] == b[0], f"status {a[0]} != {b[0]}"
                assert a[2] == b[2], "body differs"
                fa = [(k, v) for k, v in a[1] if k.lower() not in HOP_BY_HOP]
                fb = [(k, v) for k, v in b[1] if k.lower() not in HOP_BY_HOP]
                assert fa == fb, f"headers differ: {fa} != {fb}"

            def do_auth(body_doc):
                a, b = both("POST", "/v3/auth/tokens", body=body_doc)
                compare(a, b)
                ga = dict(a[1]).get("X-Subject-Token")
                if ga:
                    tokens.append(ga)

            # prime both stores with one known-good token
            do_auth(password_body("admin", "secret"))

            scenarios = ["auth-admin", "auth-alice", "auth-scoped",
                         "auth-unscope", "auth-token", "get-users",
                         "get-user", "get-roles", "get-projects",
                         "validate-token"]
            for _ in range(99):
                kind = rng.choice(scenarios)
                token = rng.choice(tokens)
                if kind == "auth-admin":
                    do_auth(password_body("admin", "secret"))
                elif kind == "auth-alice":
                    do_auth(password_body("alice", "wonder"))
                elif kind == "auth-scoped":
                    do_auth(password_body("admin", "secret",
                                          {"project": {"name": "demo"}}))
                elif kind == "auth-unscope":
                    do_auth(password_body("admin", "secret", "unscope"))
                elif kind == "auth-token":
                    do_auth(token_body(token))
                elif kind == "get-users":
                    compare(*both("GET", "/v3/users",
                                  headers={"X-Auth-Token": token}))
                elif kind == "get-user":
                    compare(*both("GET", "/v3/users/u-alice",
                                  headers={"X-Auth-Token": token}))
                elif kind == "get-roles":
                    compare(*both("GET", "/v3/roles",
                                  headers={"X-Auth-Token": token}))
                elif kind == "get-projects":
                    compare(*both("GET", "/v3/projects",
                                  headers={"X-Auth-Token": token}))
                elif kind == "validate-token":
                    compare(*both("GET", "/v3/auth/tokens",
                                  headers={"X-Auth-Token": token}))

        direct_server.shutdown()
        direct_server.server_close()


def test_7_fail_closed_probe_safety():
    with report(7, "fail-closed-and-probe-safety"):
        with running_harness() as h:
            # a batch of requests whose preconditions cannot pass
            violating = [
                ("POST", "/v3/auth/tokens",
                 {"auth": {"identity": {"methods": ["password"],
                                        "password": {"user": {}}}}}, None),
                ("POST", "/v3/auth/tokens", None, None),  # empty body
                ("DELETE", "/v3/users/u-alice", None, None),  # no token
                ("DELETE", "/v3/users/u-alice", None,
                 {"X-Auth-Token": "forged-token-id"}),
            ]
            for method, path, body, headers in violating:
                status, _, _ = h.call(method, path, body=body, headers=headers)
                assert status == 412
            # non-admin delete: role conjunct fails pre-flight
            alice = h.authenticate("alice", "wonder")  # one allowed POST
            status, _, _ = h.call(
                "DELETE", "/v3/users/u-admin", headers={"X-Auth-Token": alice}
            )
            assert status == 412

            # the only upstream non-GET is the single passing authentication
            non_gets = [
                (m, p) for m, p in h.service.request_log if m != "GET"
            ]
            assert non_gets == [("POST", "/v3/auth/tokens")]
            assert h.service.side_effect_count() == 1

            # probes are GET-only: everything else in the log is a GET
            assert all(
                m == "GET" for m, _ in h.service.request_log
                if (m, _) not in non_gets
            )


def test_8_parser_round_trip(fixture_document):
    with report(8, "parser-round-trip"):
        rng = random.Random(1000003)
        for _ in range(1000):
            ast = E.parse_expression(gen_expression_text(rng))
            assert E.parse_expression(E.to_text(ast)) == ast

        _, bm, rules = load_model(fixture_document)
        fixture_exprs = [s.invariant for s in bm.states]
        for t in bm.transitions:
            fixture_exprs += [e for e in (t.guard, t.effect) if e is not None]
        for r in rules:
            fixture_exprs += [
                e for e in (r.if_expr, r.then_expr, r.rule_expr) if e is not None
            ]
        assert fixture_exprs
        for e in fixture_exprs:
            assert E.parse_expression(E.to_text(e)) == e
