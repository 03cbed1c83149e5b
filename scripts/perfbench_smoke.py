#!/usr/bin/env python
"""End-to-end correctness smoke of the precision-study benchmark.

Runs one short study of the benchmark declared in BENCHMARK.json::

    python3 perfbench/run.py --workload ladder-small --seed 3 --seconds 1 --trace 0

and exits 1 unless the JSON line it ends with reports
``"correct": true`` and ``"failed": 0``.  The benchmark's correctness
gate checks the FP32 rung against the committed references, every
other rung against its deviation envelope, and that repeated rounds
reproduce each rung's observables bit for bit.  Timings are printed
but not gated.  Run via ``make perfbench-smoke`` or directly:

    python3 scripts/perfbench_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
COMMAND = [
    sys.executable,
    "perfbench/run.py",
    "--workload",
    "ladder-small",
    "--seed",
    "3",
    "--seconds",
    "1",
    "--trace",
    "0",
]


def main() -> int:
    proc = subprocess.run(COMMAND, cwd=REPO_ROOT, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"perfbench-smoke: no result line (exit code {proc.returncode})")
        return 1
    ok = result.get("correct") is True and result.get("failed") == 0
    if proc.returncode != 0 or not ok:
        print(
            "perfbench-smoke: FAILED "
            f"(exit code {proc.returncode}, correct={result.get('correct')}, "
            f"failed={result.get('failed')})"
        )
        return 1
    print(f"perfbench-smoke: ok ({result['attempted']} runs, all correct)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
