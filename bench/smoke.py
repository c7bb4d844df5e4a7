#!/usr/bin/env python3
"""Smoke check of the benchmark itself (about two minutes).

    python3 bench/smoke.py

1. Every workload, untraced and traced, prints exactly the metrics that
   ``BENCHMARK.json`` names, each with its unit, and a correct verdict.
2. A deliberately corrupted state (two adjacent vertices sharing a color)
   injected into each workload is counted as a failure, and the run still
   finishes with every metric.
3. Without the library sources next to it, the benchmark exits non-zero
   and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))


def check(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        raise SystemExit(1)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for wl in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [*spec["command"], "--workload", wl, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            check(proc.returncode == 0, f"{wl} trace={trace} exits 0")
            res = last_json(proc.stdout)
            check(set(res) == {"correct", "attempted", "failed", "metrics"}, f"{wl} result keys")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == expected[trace], f"{wl} trace={trace} prints every named metric with its unit")
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{wl} trace={trace} correct, {res['attempted']} attempted")

    import workloads

    for wl in workloads.WORKLOADS:
        run = workloads.run_workload(wl, 1, 0.0, corrupt_at=2, max_events=4)
        check(run.failed == 1 and run.attempted == 4,
              f"{wl}: a corrupted state counts as 1 failure of {run.attempted}")

    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*spec["command"], "--workload", spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    check(proc.returncode != 0 and not proc.stdout.strip(), "no sources: non-zero exit, no result")
    shutil.rmtree(bare)


if __name__ == "__main__":
    main()
