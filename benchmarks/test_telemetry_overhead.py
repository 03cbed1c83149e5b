"""Bench: cost of the telemetry/drift guards on the disabled hot path.

Every GEMM on the LFD hot path evaluates the disabled-path guards —
``telemetry.registry.active()`` (plus the ``observing()`` wrapper that
adds the MKL_VERBOSE env probe) and, per QD step, the drift monitor's
``active_drift_monitor()`` — even when all instrumentation is off.
The observability contract is that this costs **one global read with
zero allocations** per guard, i.e. well under 1 % of the cheapest real
BLAS call it protects.

This bench proves the contract with numbers instead of prose:

* time the guard combination a single disabled-path GEMM executes,
  isolated in a tight loop;
* time the prepared split-GEMM call from
  ``benchmarks/test_split_gemm_perf.py`` (the fastest hot-path call
  the guards ever amortise against), telemetry disabled;
* assert guard-time / call-time < 1 %.

An enabled-path measurement is recorded for context (it is *expected*
to cost more — that path does real work) but not asserted on.

Results land in ``BENCH_telemetry_overhead.json`` at the repo root;
CI uploads it as a non-blocking artifact (``make bench-telemetry``).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.blas.gemm import gemm
from repro.blas.plan import prepare, release
from repro.blas.verbose import observing
from repro.blas.workspace import clear_workspace
from repro.telemetry.drift import active_drift_monitor
from repro.telemetry.registry import active, disable, enable

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULT_PATH = REPO_ROOT / "BENCH_telemetry_overhead.json"

#: Same split-dominated shape as the split-GEMM bench: the guards must
#: be invisible against exactly this call.
M, N, K = 16, 16, 65536
MODE = "FLOAT_TO_BF16X3"
GUARD_LOOPS = 200_000
REPEATS = 7

#: Acceptance: guards < 1 % of one prepared split-GEMM call.
MAX_OVERHEAD_FRACTION = 0.01


def _best_of(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _guard_seconds_per_call() -> float:
    """Per-iteration cost of the guards one disabled GEMM evaluates."""
    assert active() is None, "telemetry must be off for the guard measurement"
    # Warm thread-locals / env caches out of the measured region.
    observing()
    active_drift_monitor()
    loops = range(GUARD_LOOPS)

    def run():
        for _ in loops:
            active()
            observing()
            active_drift_monitor()

    return _best_of(run) / GUARD_LOOPS


@pytest.fixture(scope="module")
def results():
    prev = disable()
    rng = np.random.default_rng(42)
    a = (rng.standard_normal((M, K)) + 1j * rng.standard_normal((M, K))).astype(
        np.complex64
    )
    b = (rng.standard_normal((K, N)) + 1j * rng.standard_normal((K, N))).astype(
        np.complex64
    )
    try:
        guard = _guard_seconds_per_call()
        a_plan, b_plan = prepare(a), prepare(b)
        gemm(a_plan, b_plan, mode=MODE)  # build cached forms once
        disabled = _best_of(lambda: gemm(a_plan, b_plan, mode=MODE))
        enable()
        try:
            enabled = _best_of(lambda: gemm(a_plan, b_plan, mode=MODE))
        finally:
            disable()
    finally:
        release(a)
        release(b)
        clear_workspace()
        if prev is not None:
            enable(prev)
    row = {
        "benchmark": "telemetry_guard_overhead",
        "shape": {"m": M, "n": N, "k": K},
        "mode": MODE,
        "guard_loops": GUARD_LOOPS,
        "repeats": REPEATS,
        "guard_seconds_per_call": guard,
        "disabled_gemm_seconds": disabled,
        "enabled_gemm_seconds": enabled,
        "overhead_fraction": guard / disabled,
        "max_overhead_fraction": MAX_OVERHEAD_FRACTION,
    }
    RESULT_PATH.write_text(json.dumps(row, indent=2) + "\n")
    return row


def test_guard_overhead_below_one_percent(results):
    assert results["overhead_fraction"] < MAX_OVERHEAD_FRACTION, results


def test_guards_are_microseconds_not_milliseconds(results):
    # Belt and braces: two global reads plus one os.environ probe (the
    # MKL_VERBOSE check dominates) — single-digit microseconds on any
    # plausible runner, never enough to register against a GEMM.
    assert results["guard_seconds_per_call"] < 1e-5, results


def test_json_artifact_written(results):
    data = json.loads(RESULT_PATH.read_text())
    assert data["benchmark"] == "telemetry_guard_overhead"
    assert 0 < data["overhead_fraction"] < 1
