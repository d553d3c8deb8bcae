"""Smoke test: a short untraced and a short traced run of each workload.

    python3 perfbench/smoke.py

Checks that each run exits 0 with every outcome and invariant check passed,
that its last line reports every metric BENCHMARK.json names with that
metric's unit, that the report table lists all nine end-to-end metrics, and
that error_rate is 0.  Exits 1 at the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from workloads import NAMES

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 3  # timed window of each run
NINE = ("throughput_rps", "latency_p50_ms", "latency_p99_ms", "error_rate",
        "refused_rate", "gateway_cpu_ms_per_req", "upstream_requests_per_req",
        "gateway_rss_mb", "setup_s")


def check(workload: str, trace: int, spec: dict) -> list:
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return [f"exit {out.returncode}: {out.stdout[-2000:]}{out.stderr[-2000:]}"]
    result = json.loads(lines[-1])
    problems = []
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"checks failed: {result}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"metrics {got} differ from BENCHMARK.json {expected}")
    if trace == 0:
        table = {line.split()[0]: line.split()[1:] for line in lines[2:-1] if line.strip()}
        problems += [f"{name} missing from the report" for name in NINE if name not in table]
        if "error_rate" in table and float(table["error_rate"][0]) != 0.0:
            problems.append(f"error_rate is {table['error_rate'][0]}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in NAMES:
        for trace in (0, 1):
            problems = check(workload, trace, spec)
            print(f"{workload} trace {trace}: {'FAIL' if problems else 'PASS'}")
            for problem in problems:
                print(f"  {problem}")
            if problems:
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
