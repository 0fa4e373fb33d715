"""Self-test of the benchmark on tiny inputs.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced with ``--size tiny`` and
checks that the result line holds exactly the metrics BENCHMARK.json names,
each with its unit, that nothing failed, and that the run reported
``failed_frac = 0.0``. Finally checks that the benchmark, given only
BENCHMARK.json and its own files, exits nonzero without a result.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    proc = _bench(ROOT, workload, trace)
    label = f"{workload} trace {trace}"
    if proc.returncode != 0:
        return [f"{label}: exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
        problems += [f"{label}:   {ln}" for ln in lines[:-1]]
    if "metric failed_frac = 0.0 ratio" not in lines:
        problems.append(f"{label}: failed_frac line missing or nonzero")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(wanted):
        problems.append(f"{label}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(wanted))}")
    for name, unit in wanted.items():
        entry = got.get(name, {})
        if entry.get("unit") != unit or not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{label}: metric {name} printed as {entry}")
    return problems


def check_without_program() -> list[str]:
    bare = ROOT / ".perfbench_work" / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench(bare, "catalog_short", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without the program: exit code {proc.returncode}, stdout {proc.stdout.strip()[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_run(spec, workload, trace)
            print(f"{workload} trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    found = check_without_program()
    print(f"without the program: {'ok' if not found else 'FAILED'}")
    problems += found
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
