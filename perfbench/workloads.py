"""The three traffic mixes.

Everything a workload sends is derived from the workload seed: the mock's
seed fixture, the logins made at set-up, and one endless request stream per
client connection.  Each request carries the outcome its contract predicts,
so every response can be checked.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

# Failing-conjunct texts, as the gateway prints them in 412/502 bodies.
PROCESSING = "self.processing=False"
CREDENTIAL = (
    "user.credential->size()=1 or token.token->size()=1 "
    "and clockTime<=token.expires_at"
)
TOKEN_ISSUED = "token.token->size()=1"
UNEXPIRED = "clockTime<=token.expires_at"
CATALOG = "token.catalog->size()=1"
ADMIN_ROLE = "user.role='admin'"
USER_EXISTS = "user.id->size()=1"

NAMES = ("relay_get", "auth_tokens", "guarded_delete")
CONNECTIONS = 2
FINAL_USER = "u-final"  # deleted once, by the end-of-run check


@dataclass(frozen=True)
class Expect:
    """Outcome predicted by the contract for one request."""

    status: int
    phase: Optional[str] = None  # "pre" or "post" for a violation reply
    failed: tuple = ()  # the failing conjuncts a violation reply names, in order
    # Another connection may hold this URI's self.processing flag, so a
    # reply may also name self.processing=False.
    contended: bool = False


@dataclass(frozen=True)
class Request:
    kind: str
    method: str
    path: str
    headers: dict
    body: Optional[bytes]
    expect: Expect


@dataclass
class Workload:
    name: str
    keepalive: bool  # False: a fresh TCP connection per request
    fixture: dict  # seed document for `contractgate mock --seed`
    logins: list[str]  # user names logged in at set-up, for their tokens
    stream: Callable[[dict, int], Iterator[Request]]  # (tokens, connection)
    # (tokens, the window's samples) -> requests checked after the window:
    # one admin DELETE that must pass, plus requests on every URI whose
    # self.processing flag the window took, which a held flag would refuse.
    after: Callable[[dict, list], list[Request]]

    def passwords(self) -> dict:
        return {u["name"]: u["password"] for u in self.fixture["users"]}


def _hex(rng: random.Random, bits: int = 32) -> str:
    return f"{rng.getrandbits(bits):0{bits // 4}x}"


def _user(uid: str, name: str, password: str, role: str, projects: list) -> dict:
    return {"id": uid, "name": name, "password": password,
            "roles": [role], "projects": projects}


def _fixture(rng: random.Random, users: int, roles: int, projects: int) -> dict:
    """Admin, alice, the final-check user and `users` pool members."""
    project_names = ["demo"] + [f"proj-{_hex(rng)}" for _ in range(projects)]
    doc = {
        "rng_seed": rng.getrandbits(32),
        "roles": [{"id": "r-admin", "name": "admin"},
                  {"id": "r-member", "name": "member"}]
        + [{"id": f"r-{_hex(rng)}", "name": f"role-{_hex(rng)}"}
           for _ in range(roles)],
        "projects": [{"id": f"p-{n}", "name": n} for n in project_names],
        "users": [
            _user("u-admin", "admin", "secret", "admin", ["demo"]),
            _user("u-alice", "alice", "wonder", "member", ["demo"]),
            _user(FINAL_USER, "final", _hex(rng), "member", ["demo"]),
        ],
    }
    for _ in range(users):
        tag = _hex(rng)
        doc["users"].append(_user(
            f"u-{tag}", f"user-{tag}", _hex(rng, 48), "member",
            rng.sample(project_names, rng.randint(1, min(3, len(project_names)))),
        ))
    return doc


def _final_delete(tokens: dict) -> Request:
    return Request("final_delete", "DELETE", f"/v3/users/{FINAL_USER}",
                   {"X-Auth-Token": tokens["admin"]}, None, Expect(204))


def _rng(seed: int, name: str, conn: int) -> random.Random:
    return random.Random(f"{seed}/{name}/{conn}")


# ---------------------------------------------------------------------------
# relay_get: passing GETs, small items and listings of tens of KB


def _relay_get(seed: int) -> Workload:
    # 300 users and 400 roles/projects keep each listing at 15-25 KB.
    fx = _fixture(random.Random(f"{seed}/relay_get"), users=300, roles=400,
                  projects=400)
    pool = [u["name"] for u in fx["users"][3:9]]

    def stream(tokens: dict, conn: int) -> Iterator[Request]:
        rng = _rng(seed, "relay_get", conn)
        users = [u["id"] for u in fx["users"]]
        roles = [r["id"] for r in fx["roles"]]
        projects = [p["id"] for p in fx["projects"]]
        subjects = [tokens[n] for n in pool]
        callers = [tokens["admin"], tokens["alice"]]
        ok = Expect(200)
        while True:
            auth = {"X-Auth-Token": rng.choice(callers)}
            r = rng.random()
            if r < 0.15:
                yield Request("validate_token", "GET", "/v3/auth/tokens",
                              {"X-Auth-Token": tokens["admin"],
                               "X-Subject-Token": rng.choice(subjects)}, None, ok)
            elif r < 0.30:
                yield Request("get_user", "GET", f"/v3/users/{rng.choice(users)}",
                              auth, None, ok)
            elif r < 0.45:
                yield Request("get_role", "GET", f"/v3/roles/{rng.choice(roles)}",
                              auth, None, ok)
            elif r < 0.60:
                yield Request("get_project", "GET",
                              f"/v3/projects/{rng.choice(projects)}", auth, None, ok)
            else:
                listing = rng.choice(("users", "roles", "projects"))
                yield Request(f"list_{listing}", "GET", f"/v3/{listing}", auth,
                              None, ok)

    def after(tokens: dict, samples: list) -> list:
        return [_final_delete(tokens)]  # GETs take no flag

    return Workload("relay_get", True, fx, ["admin", "alice"] + pool, stream, after)


# ---------------------------------------------------------------------------
# auth_tokens: one-shot logins on fresh connections


def _auth_body(identity: dict, scope) -> bytes:
    auth = {"identity": identity}
    if scope is not None:
        auth["scope"] = scope
    return json.dumps({"auth": auth}).encode()


def _auth_tokens(seed: int) -> Workload:
    fx = _fixture(random.Random(f"{seed}/auth_tokens"), users=60, roles=0,
                  projects=20)
    by_name = {u["name"]: u for u in fx["users"]}
    token_users = [u["name"] for u in fx["users"][3:15]]

    def stream(tokens: dict, conn: int) -> Iterator[Request]:
        rng = _rng(seed, "auth_tokens", conn)
        names = [u["name"] for u in fx["users"] if u["id"] != FINAL_USER]
        while True:
            user = by_name[rng.choice(names)]
            pick = rng.randrange(3)
            if pick == 0:
                scope = None
            elif pick == 1:
                scope = "unscope"
            else:
                project = rng.choice(user["projects"])
                ref = {"name": project} if rng.random() < 0.5 else {"id": f"p-{project}"}
                scope = {"project": ref}
            r = rng.random()
            if r < 0.05:
                # no user name and no token: the precondition cannot hold
                identity = rng.choice((
                    {"methods": ["password"],
                     "password": {"user": {"password": user["password"]}}},
                    {"methods": ["token"], "token": {}},
                ))
                yield Request("malformed", "POST", "/v3/auth/tokens", {},
                              _auth_body(identity, scope),
                              Expect(412, "pre", (CREDENTIAL,), contended=True))
            elif r < 0.15:
                identity = {"methods": ["password"], "password": {"user": {
                    "name": user["name"], "password": "wrong-" + _hex(rng)}}}
                # no token: Token_Issued and the scope rule's consequent fail
                failed = (TOKEN_ISSUED, UNEXPIRED, TOKEN_ISSUED)
                if isinstance(scope, dict):
                    failed += (CATALOG,)
                yield Request("wrong_password", "POST", "/v3/auth/tokens", {},
                              _auth_body(identity, scope),
                              Expect(502, "post", failed, contended=True))
            elif rng.random() < 0.5:
                identity = {"methods": ["password"], "password": {"user": {
                    "name": user["name"], "password": user["password"]}}}
                yield Request("password", "POST", "/v3/auth/tokens", {},
                              _auth_body(identity, scope),
                              Expect(201, contended=True))
            else:
                holder = by_name[rng.choice(token_users)]
                if isinstance(scope, dict):
                    project = rng.choice(holder["projects"])
                    scope = {"project": {"name": project}}
                identity = {"methods": ["token"], "token": {"id": tokens[holder["name"]]}}
                yield Request("token", "POST", "/v3/auth/tokens", {},
                              _auth_body(identity, scope),
                              Expect(201, contended=True))

    def after(tokens: dict, samples: list) -> list:
        # Every login took the flag of /v3/auth/tokens; one more must pass.
        identity = {"methods": ["password"], "password": {"user": {
            "name": "admin", "password": by_name["admin"]["password"]}}}
        return [_final_delete(tokens),
                Request("final_login", "POST", "/v3/auth/tokens", {},
                        _auth_body(identity, None), Expect(201))]

    return Workload("auth_tokens", False, fx, ["admin"] + token_users, stream, after)


# ---------------------------------------------------------------------------
# guarded_delete: mostly blocked DELETEs, some forwarded ones


# Live users each connection may delete; far more than the admin deletes a
# run of 60 s makes even at several hundred requests per second.
DELETE_POOL_PER_CONNECTION = 4000


def _guarded_delete(seed: int) -> Workload:
    rng = random.Random(f"{seed}/guarded_delete")
    fx = _fixture(rng, users=CONNECTIONS * DELETE_POOL_PER_CONNECTION + 8,
                  roles=0, projects=0)
    staff = [u["name"] for u in fx["users"][3:11]]  # members nobody deletes
    protected = ["u-admin", "u-alice"] + [u["id"] for u in fx["users"][3:11]]
    live = [u["id"] for u in fx["users"][11:]]

    def stream(tokens: dict, conn: int) -> Iterator[Request]:
        rng = _rng(seed, "guarded_delete", conn)
        mine = iter(live[conn::CONNECTIONS])
        members = [tokens[n] for n in ["alice"] + staff]
        admin = {"X-Auth-Token": tokens["admin"]}
        while True:
            r = rng.random()
            if r < 0.70:
                yield Request("non_admin", "DELETE",
                              f"/v3/users/{rng.choice(protected)}",
                              {"X-Auth-Token": rng.choice(members)}, None,
                              Expect(412, "pre", (ADMIN_ROLE,)))
            elif r < 0.90:
                target = next(mine, None)
                if target is None:
                    raise RuntimeError("guarded_delete: live user pool exhausted")
                yield Request("admin_live", "DELETE", f"/v3/users/{target}", admin,
                              None, Expect(204))
            else:
                yield Request("admin_absent", "DELETE", f"/v3/users/u-gone-{_hex(rng, 40)}",
                              admin, None, Expect(412, "pre", (USER_EXISTS,)))

    def after(tokens: dict, samples: list) -> list:
        # Each forwarded delete took its user's flag.  Deleting the user
        # again must fail on the user's absence alone: a flag left held
        # would add self.processing=False to the failed conjuncts.
        admin = {"X-Auth-Token": tokens["admin"]}
        return [_final_delete(tokens)] + [
            Request("redelete", "DELETE", s.request.path, admin, None,
                    Expect(412, "pre", (USER_EXISTS,)))
            for s in samples if s.request.kind == "admin_live" and s.status == 204]

    return Workload("guarded_delete", True, fx, ["admin", "alice"] + staff, stream,
                    after)


def build(name: str, seed: int) -> Workload:
    return {"relay_get": _relay_get, "auth_tokens": _auth_tokens,
            "guarded_delete": _guarded_delete}[name](seed)


def classify(expect: Expect, status: int, headers, body: bytes) -> str:
    """'ok', 'refused' (412 naming only the processing flag) or 'wrong'.
    A violation reply must name exactly the expected failing conjuncts,
    plus self.processing=False in a precondition 412 only where the flag is
    contended."""
    if status in (412, 502):
        try:
            doc = json.loads(body)
            failed = [f["expr"] for f in doc["failed"]]
            phase = doc["phase"]
        except (ValueError, KeyError, TypeError):
            return "wrong"
        if expect.contended and status == 412 and phase == "pre" and PROCESSING in failed:
            failed = [f for f in failed if f != PROCESSING]
            if not failed:
                return "refused"
        if status != expect.status or phase != expect.phase:
            return "wrong"
        return "ok" if tuple(failed) == expect.failed else "wrong"
    if status != expect.status:
        return "wrong"
    if status == 201 and not headers.get("X-Subject-Token"):
        return "wrong"
    return "ok"
