"""Gateway benchmark: boots `contractgate mock` and `contractgate run` as
their own processes and drives them closed loop from 2 client connections.

    python3 perfbench/run.py --workload relay_get --seed 1 --seconds 30 --trace 0

--workload is relay_get, auth_tokens, guarded_delete or all.  With
--trace 0 the run measures the shipped gateway and reports the end-to-end
metrics; with --trace 1 it splits --seconds between an untraced gateway, a
traced one (perfbench/traced_gateway.py) and the same requests sent
straight to a fresh mock, then runs the microbenchmarks and reports the
per-layer metrics.  Every response is checked against the outcome its
contract predicts, and end-of-run invariants are checked; a failed check
prints the problem and exits 1.  The last line of output is one JSON object.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import signal
import statistics
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import harness
import layers
import workloads
from harness import BenchError, Services, call, login, mock_log
from workloads import CONNECTIONS, NAMES, classify

SETUP_BOOTS = 21  # gateway boots per run; setup_s is their median
KEEP_EVERY = 25  # every 25th relay_get body is compared with a direct GET


@dataclass
class Phase:
    """One fresh mock + gateway, driven for the timed window."""

    drive: harness.Drive
    setup_s: list
    gateway_cpu_ms: float = 0.0
    gateway_rss_mb: float = 0.0
    upstream_served: int = 0
    mock_cpu_ms: float = 0.0
    log: dict = field(default_factory=dict)  # traced runs: spans and log counters
    problems: list = field(default_factory=list)


def percentile(values: list, q: float) -> tuple[float, int]:
    """Nearest-rank percentile and how many samples lie above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def start_mock(services: Services, wl, work: Path):
    fixture = work / "fixture.json"
    if not fixture.exists():
        fixture.write_text(json.dumps(wl.fixture))
    mock = services.mock(fixture)
    passwords = wl.passwords()
    tokens = {name: login(mock.port, name, passwords[name]) for name in wl.logins}
    return mock, tokens


def gateway_phase(services: Services, wl, work: Path, seconds: float,
                  boots: int = 1, launcher=None) -> Phase:
    mock, tokens = start_mock(services, wl, work)
    log_path = work / "violations.jsonl"
    log_path.unlink(missing_ok=True)
    setup = []
    for boot in range(boots):
        gw, boot_s = services.gateway(mock, log_path, launcher)
        setup.append(boot_s)
        if boot < boots - 1:
            services.stop(gw)

    served0, side0 = mock_log(mock)
    cpu0, mock_cpu0 = gw.cpu_ms(), mock.cpu_ms()
    streams = [wl.stream(tokens, c) for c in range(CONNECTIONS)]
    keep = KEEP_EVERY if wl.name == "relay_get" else 0
    d = harness.drive(gw.port, streams, wl.keepalive, seconds, keep_every=keep)
    served1, side1 = mock_log(mock)
    phase = Phase(d, setup, gateway_cpu_ms=gw.cpu_ms() - cpu0,
                  gateway_rss_mb=gw.peak_rss_mb(), upstream_served=served1 - served0,
                  mock_cpu_ms=mock.cpu_ms() - mock_cpu0)

    # Acceptance 7 under load: the upstream saw exactly the side effects
    # whose precondition passed.
    forwarded = sum(1 for s in d.samples if s.outcome == "ok"
                    and s.request.method != "GET" and s.status in (201, 204, 502))
    if side1 - side0 != forwarded:
        phase.problems.append(f"mock served {side1 - side0} side effects, "
                              f"{forwarded} passed their precondition")
    # Acceptance 6 under load: relayed bodies equal the upstream's bytes.
    for s in d.samples:
        if s.body is not None and s.outcome == "ok":
            _, _, direct = call(mock.port, s.request.method, s.request.path,
                                s.request.headers)
            if direct != s.body:
                phase.problems.append(f"{s.rid} {s.request.path}: relayed body differs")
    # One admin DELETE passes, and no self.processing flag is left held.
    violations = sum(1 for s in d.samples if s.status in (412, 502))
    for req in wl.after(tokens, d.samples):
        status, headers, body = call(gw.port, req.method, req.path, req.headers,
                                     req.body)
        violations += status in (412, 502)
        if classify(req.expect, status, headers, body) != "ok":
            phase.problems.append(f"after the window: {req.kind} {req.method} "
                                  f"{req.path} answered {status} {body[:300]!r}")
    _, _, health = call(gw.port, "GET", "/healthz")
    dropped = json.loads(health)["log_dropped"]

    services.stop(gw)  # flushes the violation log
    if launcher is not None:
        phase.log = json.loads((work / "spans.json").read_text())
    # Every violation is countable: one log line each, unless dropped.
    written = len(log_path.read_text().splitlines()) if log_path.exists() else 0
    if written + dropped != violations:
        phase.problems.append(f"violation log holds {written} lines + {dropped} dropped, "
                              f"{violations} violations were answered")
    services.stop(mock)
    return phase


def direct_phase(services: Services, wl, work: Path, counts: list) -> tuple:
    """The same request sequence sent straight to a fresh mock."""
    mock, tokens = start_mock(services, wl, work)
    streams = [wl.stream(tokens, c) for c in range(CONNECTIONS)]
    d = harness.drive(mock.port, streams, wl.keepalive, 0, limits=counts, check=False)
    services.stop(mock)
    return d, [f"{s.rid}: transport error (direct)" for s in d.samples if s.status == 0]


def end_to_end(p: Phase) -> dict:
    """name -> (value, unit, sample count)."""
    samples = p.drive.samples
    n = len(samples)
    latencies = [s.latency_ms for s in samples]
    ok = sum(1 for s in samples if s.outcome == "ok")
    refused = sum(1 for s in samples if s.outcome == "refused")
    p99, above = percentile(latencies, 0.99)
    if above < 10:
        print(f"warning: only {above} samples above p99; run longer", file=sys.stderr)
    return {
        "throughput_rps": (ok / p.drive.wall_s, "1/s", ok),
        "latency_p50_ms": (statistics.median(latencies), "ms", n),
        "latency_p99_ms": (p99, "ms", n),
        "error_rate": ((n - ok - refused) / n, "ratio", n),
        "refused_rate": (refused / n, "ratio", n),
        "gateway_cpu_ms_per_req": (p.gateway_cpu_ms / n, "ms/req", n),
        "upstream_requests_per_req": (p.upstream_served / n, "1/req", n),
        "gateway_rss_mb": (p.gateway_rss_mb, "MB", 1),
        "setup_s": (statistics.median(p.setup_s), "s", len(p.setup_s)),
    }


def tally(p: Phase) -> str:
    """Replies per request kind, e.g. 'password 201x2208 412x2080'."""
    counts: dict = {}
    for s in p.drive.samples:
        by_status = counts.setdefault(s.request.kind, {})
        by_status[s.status] = by_status.get(s.status, 0) + 1
    return "; ".join(f"{kind} " + " ".join(f"{st}x{n}" for st, n in sorted(by.items()))
                     for kind, by in sorted(counts.items()))


def wrong_outcomes(p: Phase) -> list:
    return [f"{s.rid} {s.request.kind} {s.request.method} {s.request.path}: "
            f"got {s.status or 'transport error'} {(s.body or b'')[:300]!r}, "
            f"expected {s.request.expect.status} {list(s.request.expect.failed)}"
            for s in p.drive.samples if s.outcome in ("wrong", "transport")]


def run_untraced(root: Path, wl, work: Path, seconds: float):
    services = Services(root)
    try:
        p = gateway_phase(services, wl, work, seconds, boots=SETUP_BOOTS)
    finally:
        services.stop_all()
    metrics = end_to_end(p)
    problems = wrong_outcomes(p) + p.problems
    return metrics, len(p.drive.samples), len(wrong_outcomes(p)), problems, tally(p)


def run_traced(root: Path, wl, work: Path, seconds: float):
    launcher = [sys.executable, str(root / "perfbench" / "traced_gateway.py"),
                str(work / "spans.json")]
    services = Services(root)
    try:
        plain = gateway_phase(services, wl, work, seconds / 3)
        traced = gateway_phase(services, wl, work, seconds / 3, launcher=launcher)
        counts = [sum(1 for s in traced.drive.samples if s.rid.startswith(f"c{c}-"))
                  for c in range(CONNECTIONS)]
        direct, direct_problems = direct_phase(services, wl, work, counts)
    finally:
        services.stop_all()

    samples = traced.drive.samples
    n = len(samples)
    latencies = {s.rid: s.latency_ms for s in samples}
    metrics = layers.split(traced.log["spans"], latencies, traced.upstream_served)
    untraced_p50 = statistics.median(s.latency_ms for s in plain.drive.samples)
    traced_p50 = statistics.median(latencies.values())
    metrics.update({
        "gateway.log_written": (traced.log["log_written"], "count", 1),
        "gateway.log_dropped": (traced.log["log_dropped"], "count", 1),
        "gateway.latency_p50_ms": (untraced_p50, "ms", len(plain.drive.samples)),
        "gateway.cpu_ms_per_req": (plain.gateway_cpu_ms / len(plain.drive.samples),
                                   "ms/req", len(plain.drive.samples)),
        "mock_keystone.direct_latency_p50_ms": (
            statistics.median(s.latency_ms for s in direct.samples), "ms",
            len(direct.samples)),
        "mock_keystone.cpu_ms_per_req": (
            traced.mock_cpu_ms / max(traced.upstream_served, 1), "ms/req",
            traced.upstream_served),
        "bench.client_cpu_ms_per_req": (traced.drive.client_cpu_ms / n, "ms/req", n),
        "bench.tracing_overhead_pct": (100.0 * (traced_p50 / untraced_p50 - 1.0), "%", n),
    })
    metrics.update(layers.microbenchmarks(root))
    phases = (plain, traced)
    problems = [x for p in phases for x in wrong_outcomes(p) + p.problems] + direct_problems
    return (metrics, sum(len(p.drive.samples) for p in phases),
            sum(len(wrong_outcomes(p)) for p in phases), problems, tally(traced))


def report(wl, args, metrics: dict, keys: list, attempted: int, failed: int,
           problems: list, replies: str) -> dict:
    wl_mode = "keep-alive" if wl.keepalive else "fresh TCP per request"
    print(f"workload {wl.name}: seed {args.seed}, {args.seconds} s, trace {args.trace}, "
          f"{CONNECTIONS} closed-loop connections ({wl_mode})")
    print(f"  {'metric':38} {'value':>14} {'unit':>8} {'samples':>8}")
    for metric, (value, unit, n) in metrics.items():
        print(f"  {metric:38} {value:14.6g} {unit:>8} {n:8d}")
    print(f"  replies: {replies}")
    for problem in problems[:20]:
        print(f"  FAILED CHECK: {problem}")
    if len(problems) > 20:
        print(f"  ... {len(problems) - 20} more failed checks")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in keys},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A shell starts background jobs with SIGINT ignored, and children would
    # inherit that; with a handler installed here they get the default
    # disposition, so SIGINT shuts the gateway down cleanly.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "contractgate" / "cli.py").is_file():
        print(f"error: contractgate sources not found under {root / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    keys = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    scratch = root / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    names = NAMES if args.workload == "all" else (args.workload,)
    code = 0
    for name in names:
        wl = workloads.build(name, args.seed)
        work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
        try:
            run = run_traced if args.trace else run_untraced
            metrics, attempted, failed, problems, replies = run(root, wl, work, args.seconds)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(work, ignore_errors=True)
        result = report(wl, args, metrics, keys, attempted, failed, problems, replies)
        if problems:
            code = 1
        print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
