"""Command line entry point: validate / contracts / run / mock."""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import mock_keystone
from .contracts import derive_contracts, render_contracts
from .gateway import GatewayConfig, build_gateway, make_server
from .model import ModelError, load_model, validate_model

EXIT_OK = 0
EXIT_DOMAIN_ERROR = 1
EXIT_USAGE = 2


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


def cmd_run(args: argparse.Namespace) -> int:
    try:
        cfg = GatewayConfig(
            listen_address=args.listen,
            upstream_base_url=args.upstream,
            model_path=args.model,
            log_path=args.log,
            paper_status=args.paper_status,
            audit_get=args.audit_get,
            expires_reading=args.expires_reading,
        )
        gateway = build_gateway(cfg)
    except (OSError, ValueError, ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_ERROR
    server = make_server(gateway)
    print(f"gateway listening on {server.server_address[0]}:{server.server_address[1]}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        gateway.monitor.upstream.close()
        gateway.violation_log.close()
    return EXIT_OK


def cmd_mock(args: argparse.Namespace) -> int:
    # imported here, so that `contractgate run` loads no http.server
    from . import mock_server

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
            ttl_seconds=args.ttl,
            clock=clock,
        )
    except KeyboardInterrupt:
        pass
    return EXIT_OK


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
    p.add_argument("--listen", default="127.0.0.1:8080")
    p.add_argument("--upstream", required=True, help="upstream base URL")
    p.add_argument("--model", required=True)
    p.add_argument("--log", default=None, help="violation log path (JSONL)")
    p.add_argument("--paper-status", action="store_true",
                   help="report every violation as 404")
    p.add_argument("--audit-get", action="store_true",
                   help="audit state invariants on GET requests")
    p.add_argument("--expires-reading", choices=["paper", "corrected"],
                   default="corrected")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("mock", help="run the mock identity upstream")
    p.add_argument("--listen", default="127.0.0.1:5001")
    p.add_argument("--seed", default=None, help="seed fixture (JSON)")
    p.add_argument("--fault", action="append", default=[],
                   choices=list(mock_keystone.FAULT_NAMES))
    p.add_argument("--ttl", type=int, default=mock_keystone.DEFAULT_TTL_SECONDS)
    p.add_argument("--clock", default=None, help="fixed ISO time for determinism")
    p.set_defaults(func=cmd_mock)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
