"""In-memory identity upstream used as the reference service behind the
gateway.

Implements password/token authentication with scoped and unscoped tokens,
token validation via GET, listing and deletion of users, and a set of
fault-injection switches that seed deliberate misbehaviour so the monitor's
violation detection can be exercised end to end.  The HTTP server around it
is in ``mock_server``.
"""

from __future__ import annotations

import json
import random
import threading
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta, timezone
from typing import Callable, Optional

DEFAULT_TTL_SECONDS = 3600

FAULT_NAMES = ("omit-catalog", "allow-nonadmin-delete", "issue-expired", "wrong-status")


@dataclass(frozen=True)
class FaultProfile:
    omit_catalog: bool = False
    allow_nonadmin_delete: bool = False
    issue_expired: bool = False
    wrong_status: bool = False

    @classmethod
    def from_names(cls, names: list[str]) -> "FaultProfile":
        profile = cls()
        for name in names:
            attr = name.replace("-", "_")
            if attr not in profile.__dataclass_fields__:
                raise ValueError(
                    f"unknown fault {name!r} (expected one of {', '.join(FAULT_NAMES)})"
                )
            profile = replace(profile, **{attr: True})
        return profile


@dataclass
class UserRecord:
    id: str
    name: str
    password: str
    roles: list[str]
    projects: list[str]


@dataclass
class TokenRecord:
    id: str
    user_id: str
    issued_at: datetime
    expires_at: datetime
    scope: Optional[str] = None  # project id for scoped tokens


DEFAULT_SEED = {
    "rng_seed": 20260801,
    "roles": [
        {"id": "r-admin", "name": "admin"},
        {"id": "r-member", "name": "member"},
    ],
    "projects": [{"id": "p-demo", "name": "demo"}],
    "users": [
        {
            "id": "u-admin",
            "name": "admin",
            "password": "secret",
            "roles": ["admin"],
            "projects": ["demo"],
        },
        {
            "id": "u-alice",
            "name": "alice",
            "password": "wonder",
            "roles": ["member"],
            "projects": ["demo"],
        },
    ],
}


def _iso(dt: datetime) -> str:
    return dt.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%S.%fZ")


class IdentityStore:
    """Seeded in-memory identity database; all operations take the lock so
    each request observes a consistent state."""

    def __init__(
        self,
        seed: Optional[dict] = None,
        clock: Optional[Callable[[], datetime]] = None,
        ttl_seconds: int = DEFAULT_TTL_SECONDS,
        faults: FaultProfile = FaultProfile(),
    ):
        seed = seed or DEFAULT_SEED
        self.clock = clock or (lambda: datetime.now(timezone.utc))
        self.ttl = timedelta(seconds=ttl_seconds)
        self.faults = faults
        self._rng = random.Random(seed.get("rng_seed", 0))
        self._lock = threading.Lock()
        self.users: dict[str, UserRecord] = {}
        self.tokens: dict[str, TokenRecord] = {}
        self.roles: dict[str, str] = {r["id"]: r["name"] for r in seed.get("roles", [])}
        self.projects: dict[str, str] = {
            p["id"]: p["name"] for p in seed.get("projects", [])
        }
        for u in seed.get("users", []):
            self.users[u["id"]] = UserRecord(
                id=u["id"],
                name=u["name"],
                password=u["password"],
                roles=list(u.get("roles", [])),
                projects=list(u.get("projects", [])),
            )

    def _new_token_id(self) -> str:
        return "".join(self._rng.choice("0123456789abcdef") for _ in range(32))

    def find_user_by_name(self, name: str) -> Optional[UserRecord]:
        for u in self.users.values():
            if u.name == name:
                return u
        return None

    def find_project(self, ref: str) -> Optional[str]:
        if ref in self.projects:
            return ref
        for pid, name in self.projects.items():
            if name == ref:
                return pid
        return None

    def lookup_token(self, token_id: str) -> Optional[TokenRecord]:
        return self.tokens.get(token_id)

    def token_expired(self, token: TokenRecord) -> bool:
        return token.expires_at <= self.clock()

    def issue_token(self, user: UserRecord, scope_project: Optional[str]) -> TokenRecord:
        now = self.clock()
        expires = now + self.ttl
        if self.faults.issue_expired:
            expires = now - self.ttl
        token = TokenRecord(
            id=self._new_token_id(),
            user_id=user.id,
            issued_at=now,
            expires_at=expires,
            scope=scope_project,
        )
        self.tokens[token.id] = token
        return token

    def token_body(self, token: TokenRecord) -> dict:
        user = self.users.get(token.user_id)
        body = {
            "token": {
                "user": {"id": user.id if user else token.user_id,
                         "name": user.name if user else ""},
                "roles": [{"name": r} for r in (user.roles if user else [])],
                "issued_at": _iso(token.issued_at),
                "expires_at": _iso(token.expires_at),
                "methods": ["password"],
            }
        }
        if token.scope is not None:
            body["token"]["project"] = {
                "id": token.scope,
                "name": self.projects.get(token.scope, ""),
            }
            if not self.faults.omit_catalog:
                body["token"]["catalog"] = [
                    {
                        "type": "identity",
                        "name": "keystone",
                        "endpoints": [
                            {"interface": "public", "url": "/v3"}
                        ],
                    }
                ]
        return body

    def user_body(self, user: UserRecord) -> dict:
        return {
            "user": {
                "id": user.id,
                "name": user.name,
                "role": user.roles[0] if user.roles else None,
                "enabled": True,
            }
        }


@dataclass
class Response:
    status: int
    body: Optional[dict] = None
    headers: list[tuple[str, str]] = field(default_factory=list)


class MockKeystone:
    """Request-level behaviour, independent of the HTTP transport so it can
    be unit-tested directly."""

    def __init__(self, store: IdentityStore):
        self.store = store
        self.request_log: list[tuple[str, str]] = []
        self._log_lock = threading.Lock()

    # -- bookkeeping

    def record(self, method: str, path: str) -> None:
        with self._log_lock:
            self.request_log.append((method, path))

    def side_effect_count(self) -> int:
        with self._log_lock:
            return sum(1 for m, _ in self.request_log if m != "GET")

    def reset_log(self) -> None:
        with self._log_lock:
            self.request_log.clear()

    # -- dispatch

    def handle(
        self, method: str, path: str, headers: dict[str, str], body: bytes
    ) -> Response:
        self.record(method, path)
        segments = [s for s in path.split("?")[0].split("/") if s]
        with self.store._lock:
            if segments == ["v3", "auth", "tokens"]:
                if method == "POST":
                    return self.post_tokens(body)
                if method == "GET":
                    return self.validate_token(headers)
                return Response(405, {"error": "method not allowed"},
                                [("Allow", "GET, POST")])
            if segments[:2] == ["v3", "users"]:
                return self._users(method, segments, headers)
            if segments[:2] == ["v3", "roles"]:
                return self._listing(method, segments, headers, self.store.roles)
            if segments[:2] == ["v3", "projects"]:
                return self._listing(method, segments, headers, self.store.projects)
            return Response(404, {"error": "not found"})

    # -- authentication

    def post_tokens(self, raw: bytes) -> Response:
        try:
            payload = json.loads(raw.decode("utf-8"))
            identity = payload["auth"]["identity"]
            methods = identity["methods"]
        except (ValueError, KeyError, TypeError):
            return Response(400, {"error": "malformed authentication request"})

        user: Optional[UserRecord] = None
        if "password" in methods:
            try:
                name = identity["password"]["user"]["name"]
                password = identity["password"]["user"]["password"]
            except (KeyError, TypeError):
                return Response(400, {"error": "malformed password payload"})
            candidate = self.store.find_user_by_name(name)
            if candidate is None or candidate.password != password:
                return Response(401, {"error": "invalid credentials"})
            user = candidate
        elif "token" in methods:
            try:
                token_id = identity["token"]["id"]
            except (KeyError, TypeError):
                return Response(400, {"error": "malformed token payload"})
            token = self.store.lookup_token(token_id)
            if token is None or self.store.token_expired(token):
                return Response(401, {"error": "invalid token"})
            user = self.store.users.get(token.user_id)
            if user is None:
                return Response(401, {"error": "invalid token"})
        else:
            return Response(400, {"error": "unsupported authentication method"})

        scope = payload["auth"].get("scope")
        scope_project: Optional[str] = None
        if scope is not None and scope not in ("unscope", "unscoped"):
            if not isinstance(scope, dict) or "project" not in scope:
                return Response(401, {"error": "invalid scope"})
            ref = scope["project"].get("id") or scope["project"].get("name")
            project = self.store.find_project(ref) if ref else None
            if project is None or project not in [
                self.store.find_project(p) for p in user.projects
            ]:
                return Response(401, {"error": "invalid scope"})
            scope_project = project

        token = self.store.issue_token(user, scope_project)
        status = 500 if self.store.faults.wrong_status else 201
        return Response(
            status,
            self.store.token_body(token),
            [("X-Subject-Token", token.id)],
        )

    def validate_token(self, headers: dict[str, str]) -> Response:
        subject = headers.get("x-subject-token") or headers.get("x-auth-token")
        if not subject:
            return Response(401, {"error": "authentication required"})
        token = self.store.lookup_token(subject)
        if token is None:
            return Response(404, {"error": "token not found"})
        if self.store.token_expired(token):
            return Response(401, {"error": "token expired"})
        return Response(200, self.store.token_body(token),
                        [("X-Subject-Token", token.id)])

    def _authenticate(self, headers: dict[str, str]) -> Optional[UserRecord]:
        raw = headers.get("x-auth-token")
        if not raw:
            return None
        token = self.store.lookup_token(raw)
        if token is None or self.store.token_expired(token):
            return None
        return self.store.users.get(token.user_id)

    # -- users

    def _users(
        self, method: str, segments: list[str], headers: dict[str, str]
    ) -> Response:
        requester = self._authenticate(headers)
        if requester is None:
            return Response(401, {"error": "authentication required"})
        if len(segments) == 2:
            if method != "GET":
                return Response(405, {"error": "method not allowed"}, [("Allow", "GET")])
            return Response(
                200,
                {"users": [self.store.user_body(u)["user"]
                           for u in self.store.users.values()]},
            )
        ref = segments[2]
        target = self.store.users.get(ref) or self.store.find_user_by_name(ref)
        if method == "GET":
            if target is None:
                return Response(404, {"error": "user not found"})
            return Response(200, self.store.user_body(target))
        if method == "DELETE":
            if "admin" not in requester.roles and not self.store.faults.allow_nonadmin_delete:
                return Response(403, {"error": "admin role required"})
            if target is None:
                return Response(404, {"error": "user not found"})
            del self.store.users[target.id]
            return Response(204)
        return Response(405, {"error": "method not allowed"}, [("Allow", "GET, DELETE")])

    # -- roles / projects

    def _listing(
        self,
        method: str,
        segments: list[str],
        headers: dict[str, str],
        table: dict[str, str],
    ) -> Response:
        if self._authenticate(headers) is None:
            return Response(401, {"error": "authentication required"})
        if method != "GET":
            return Response(405, {"error": "method not allowed"}, [("Allow", "GET")])
        kind = segments[1]
        if len(segments) == 2:
            items = [{"id": i, "name": n} for i, n in table.items()]
            return Response(200, {kind: items})
        ref = segments[2]
        if ref in table:
            return Response(200, {kind.rstrip("s"): {"id": ref, "name": table[ref]}})
        for i, n in table.items():
            if n == ref:
                return Response(200, {kind.rstrip("s"): {"id": i, "name": n}})
        return Response(404, {"error": "not found"})
