"""Command line entry point: validate / contracts / run / mock."""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from datetime import datetime, timezone
from pathlib import Path

from .contracts import derive_contracts, render_contracts
from .gateway import GatewayConfig, build_gateway, make_server
from .model import ModelError, load_model, validate_model

EXIT_OK = 0
EXIT_DOMAIN_ERROR = 1


def _load(path: str):
    try:
        document = Path(path).read_bytes()
    except OSError as exc:
        raise ModelError(f"cannot read model {path!r}: {exc}") from exc
    return load_model(document)


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        rm, bm, rules = _load(args.model)
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_ERROR
    diagnostics = validate_model(rm, bm, rules)
    for d in diagnostics:
        print(d)
    return EXIT_OK if not diagnostics else EXIT_DOMAIN_ERROR


def cmd_contracts(args: argparse.Namespace) -> int:
    try:
        rm, bm, rules = _load(args.model)
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_ERROR
    diagnostics = validate_model(rm, bm, rules)
    if diagnostics:
        for d in diagnostics:
            print(d, file=sys.stderr)
        return EXIT_DOMAIN_ERROR
    sys.stdout.write(render_contracts(derive_contracts(bm, rules)))
    return EXIT_OK


def run_config(args: argparse.Namespace) -> GatewayConfig:
    """`run`'s settings; one that no flag or variable gave keeps the field's default.
    Timeouts are read here, not by argparse: an unreadable variable is exit 1."""
    given = {field: getattr(args, field) for _, field, _, _ in _RUN_SETTINGS
             if getattr(args, field) is not None}
    for name in ("probe_timeout_ms", "upstream_timeout_ms"):
        if name in given:
            given[name] = int(given[name])
    return GatewayConfig(**given)


def cmd_run(args: argparse.Namespace) -> int:
    gateway = None
    try:
        gateway = build_gateway(run_config(args))
        server = make_server(gateway)
    except (OSError, ValueError, ModelError) as exc:
        if gateway is not None:  # built, but it cannot listen there
            gateway.monitor.upstream.close()
            gateway.violation_log.close()
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_ERROR
    try:
        signal.signal(signal.SIGTERM, signal.default_int_handler)  # stop as on SIGINT
        print(f"gateway listening on {server.server_address[0]}:{server.server_address[1]}")
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        gateway.monitor.upstream.close()
        gateway.violation_log.close()
    return EXIT_OK


def cmd_mock(args: argparse.Namespace) -> int:
    # imported here, so that `contractgate run` loads none of the mock
    from . import mock_keystone, mock_server

    try:
        faults = mock_keystone.FaultProfile.from_names(args.fault or [])
        seed = None
        if args.seed:
            seed = json.loads(Path(args.seed).read_text(encoding="utf-8"))
        clock = None
        if args.clock:
            fixed = datetime.fromisoformat(args.clock.replace("Z", "+00:00"))
            if fixed.tzinfo is None:
                fixed = fixed.replace(tzinfo=timezone.utc)
            clock = lambda: fixed  # noqa: E731
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_ERROR
    host, _, port = args.listen.partition(":")
    print(f"mock identity service listening on {args.listen}")
    try:
        mock_server.serve_forever(
            host or "127.0.0.1",
            int(port or 0),
            seed=seed,
            faults=faults,
            ttl_seconds=mock_keystone.DEFAULT_TTL_SECONDS if args.ttl is None else args.ttl,
            clock=clock,
        )
    except KeyboardInterrupt:
        pass
    return EXIT_OK


def _fault_name(name: str) -> str:
    from .mock_keystone import FaultProfile  # here, so that `run` loads none of the mock
    try:
        FaultProfile.from_names([name])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return name


# `run`'s settings: flag, GatewayConfig field, help and further argparse options
_RUN_SETTINGS = (
    ("--listen", "listen_address", "HOST:PORT to listen on", {}),
    ("--upstream", "upstream_base_url", "upstream base URL", {"required": True}),
    ("--model", "model_path", "path to the model document", {"required": True}),
    ("--log", "log_path", "violation log path (JSONL)", {}),
    ("--probe-timeout-ms", "probe_timeout_ms", "one probe's time limit", {}),
    ("--upstream-timeout-ms", "upstream_timeout_ms", "one request's deadline", {}),
    ("--paper-status", "paper_status", "report every violation as 404",
     {"action": "store_true"}),
    ("--audit-get", "audit_get", "audit state invariants on GET requests",
     {"action": "store_true"}),
    ("--expires-reading", "expires_reading", "", {"choices": ["paper", "corrected"]}),
)


def _add_setting(parser, flag: str, field: str, help: str = "", **kwargs) -> None:
    """A `run` flag for GatewayConfig's ``field``, defaulting to the CONTRACTGATE_*
    variable named after it; a required flag is required only while that is unset."""
    variable = "CONTRACTGATE_" + flag[2:].upper().replace("-", "_")
    default = os.environ.get(variable)
    if default is not None and kwargs.get("action") == "store_true":
        default = default.lower() in ("1", "true", "yes", "on")
    if kwargs.get("required"):
        kwargs["required"] = default is None
    parser.add_argument(flag, dest=field, default=default,
                        help=f"{help} [env: {variable}]".lstrip(), **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contractgate",
        description="Contract-enforcing reverse proxy for stateful REST APIs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model document")
    p.add_argument("model", help="path to the model document")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("contracts", help="print derived contracts")
    p.add_argument("model", help="path to the model document")
    p.set_defaults(func=cmd_contracts)

    p = sub.add_parser("run", help="run the gateway")
    for flag, field, help, kwargs in _RUN_SETTINGS:
        _add_setting(p, flag, field, help, **kwargs)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("mock", help="run the mock identity upstream")
    p.add_argument("--listen", default="127.0.0.1:5001")
    p.add_argument("--seed", default=None, help="seed fixture (JSON)")
    p.add_argument("--fault", action="append", default=[], type=_fault_name,
                   help="inject a named fault (repeatable)")
    p.add_argument("--ttl", type=int, default=None, help="token lifetime in seconds")
    p.add_argument("--clock", default=None, help="fixed ISO time for determinism")
    p.set_defaults(func=cmd_mock)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
