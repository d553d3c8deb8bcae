"""Processes and client: boots the mock and the gateway as their own
processes, reads their CPU and memory from /proc, and drives them from a
closed loop of client connections."""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

from workloads import Request, classify

CLOCK_TICK_MS = 1000.0 / os.sysconf("SC_CLK_TCK")
BOOT_TIMEOUT_S = 20.0


class BenchError(RuntimeError):
    """The system under test misbehaved or could not be started."""


# ---------------------------------------------------------------------------
# Processes


class Service:
    """One spawned process listening on 127.0.0.1:port.  Without a port it
    picks its own and prints it, and read_port() takes it from stdout."""

    def __init__(self, argv: list, env: dict, port: Optional[int] = None):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE if port is None else subprocess.DEVNULL,
        )
        self.port = port

    def read_port(self) -> int:
        """Port from the gateway's 'listening on host:port' line."""
        ready, _, _ = select.select([self.proc.stdout], [], [], BOOT_TIMEOUT_S)
        line = self.proc.stdout.readline().decode() if ready else ""
        if "listening on" not in line:
            raise BenchError(f"no listening line from {self.proc.args[:4]}: {line!r}")
        self.port = int(line.strip().rsplit(":", 1)[1])
        return self.port

    def wait_ready(self, path: str) -> float:
        """Seconds from spawn until `GET path` first answers 200."""
        deadline = self.started + BOOT_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"{self.proc.args[:4]} exited with {self.proc.returncode}")
            try:
                status, _, _ = call(self.port, "GET", path, timeout=2.0)
                if status == 200:
                    return time.perf_counter() - self.started
            except OSError:
                pass
            time.sleep(0.002)
        raise BenchError(f"{self.proc.args[:4]} did not answer {path}")

    def cpu_ms(self) -> float:
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) * CLOCK_TICK_MS  # utime + stime

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGINT (a clean shutdown for the CLI), then SIGKILL; always reaps."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout:
            self.proc.stdout.close()


class Services:
    """Everything one run started, stopped together."""

    def __init__(self, root: Path):
        # A fixed hash seed removes one source of run-to-run variation.
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        PYTHONUNBUFFERED="1", PYTHONHASHSEED="0")
        self.model = str(root / "src" / "contractgate" / "fixtures" / "keystone.model")
        self.started: list[Service] = []

    def mock(self, fixture_path: Path) -> Service:
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
        svc = Service([sys.executable, "-m", "contractgate.cli", "mock",
                       "--listen", f"127.0.0.1:{port}", "--seed", str(fixture_path)],
                      self.env, port)
        self.started.append(svc)
        svc.wait_ready("/__log")
        return svc

    def gateway(self, upstream: Service, log_path: Path,
                launcher: Optional[list] = None) -> tuple[Service, float]:
        """Boot `contractgate run` (or `launcher` given the same arguments);
        returns it with the seconds from spawn to the first /healthz 200."""
        prefix = launcher or [sys.executable, "-m", "contractgate.cli"]
        svc = Service(prefix + [
            "run", "--listen", "127.0.0.1:0",
            "--upstream", f"http://127.0.0.1:{upstream.port}",
            "--model", self.model, "--log", str(log_path)], self.env)
        self.started.append(svc)
        svc.read_port()
        return svc, svc.wait_ready("/healthz")

    def stop(self, svc: Service) -> None:
        svc.stop()
        self.started.remove(svc)

    def stop_all(self) -> None:
        while self.started:
            self.stop(self.started[-1])


def call(port: int, method: str, path: str, headers: Optional[dict] = None,
         body: Optional[bytes] = None, timeout: float = 10.0):
    """One request on a fresh connection: (status, headers, body)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        resp = conn.getresponse()
        return resp.status, resp.headers, resp.read()
    finally:
        conn.close()


def mock_log(mock: Service) -> tuple[int, int]:
    """(requests served, side effects served) so far, from the mock's /__log."""
    status, _, body = call(mock.port, "GET", "/__log")
    if status != 200:
        raise BenchError(f"mock /__log answered {status}")
    doc = json.loads(body)
    return len(doc["requests"]), doc["side_effect_count"]


def login(port: int, name: str, password: str) -> str:
    body = json.dumps({"auth": {"identity": {
        "methods": ["password"],
        "password": {"user": {"name": name, "password": password}}}}}).encode()
    status, headers, _ = call(port, "POST", "/v3/auth/tokens", body=body)
    if status != 201:
        raise BenchError(f"set-up login of {name!r} answered {status}")
    return headers["X-Subject-Token"]


# ---------------------------------------------------------------------------
# Closed-loop client


@dataclass
class Sample:
    rid: str
    request: Request
    latency_ms: float
    status: int  # 0 on a transport error
    outcome: str  # ok | refused | wrong | transport
    body: Optional[bytes] = None  # kept for relay comparisons and wrong outcomes


@dataclass
class Drive:
    samples: list = field(default_factory=list)
    wall_s: float = 0.0
    client_cpu_ms: float = 0.0


def drive(port: int, streams: list, keepalive: bool, seconds: float,
          limits: Optional[list] = None, check: bool = True,
          keep_every: int = 0) -> Drive:
    """Run one client thread per stream until `seconds` pass (or until each
    has sent limits[i] requests).  Each waits for its reply before sending
    the next request."""
    results: list = [[] for _ in streams]
    errors: list = []
    start = time.perf_counter()
    deadline = start + seconds

    def client(i: int, stream: Iterator[Request]) -> None:
        out = results[i]
        conn = None
        try:
            for n, req in enumerate(stream):
                if limits is not None and n >= limits[i]:
                    break
                if limits is None and time.perf_counter() >= deadline:
                    break
                rid = f"c{i}-{n}"
                headers = dict(req.headers, **{"X-Request-Id": rid})
                t0 = time.perf_counter()
                try:
                    if conn is None:
                        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
                    conn.request(req.method, req.path, body=req.body, headers=headers)
                    resp = conn.getresponse()
                    body = resp.read()
                    latency = (time.perf_counter() - t0) * 1000.0
                    if not keepalive or resp.will_close:
                        conn.close()
                        conn = None
                except (OSError, http.client.HTTPException):
                    latency = (time.perf_counter() - t0) * 1000.0
                    out.append(Sample(rid, req, latency, 0, "transport"))
                    if conn is not None:
                        conn.close()
                    conn = None
                    continue
                outcome = classify(req.expect, resp.status, resp.headers, body) \
                    if check else "ok"
                keep = keep_every and n % keep_every == 0
                out.append(Sample(rid, req, latency, resp.status, outcome,
                                  body if keep or outcome == "wrong" else None))
        except Exception as exc:  # reported by the caller, run fails
            errors.append(exc)
        finally:
            if conn is not None:
                conn.close()

    cpu0 = time.process_time()
    threads = [threading.Thread(target=client, args=(i, s)) for i, s in enumerate(streams)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    result = Drive(wall_s=time.perf_counter() - start,
                   client_cpu_ms=(time.process_time() - cpu0) * 1000.0)
    if errors:
        raise BenchError(f"client failed: {errors[0]!r}")
    for out in results:
        result.samples.extend(out)
    return result
