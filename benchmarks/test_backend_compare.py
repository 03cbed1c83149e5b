"""Bench: the same prepared split-GEMM workload on every available backend.

One row per (backend, mode): repeated real ``sgemm`` with prepared
frozen operands — the LFD hot-path scenario — timed on the NumPy
reference backend and on every torch backend that imports here
(CPU everywhere; CUDA when a device is present).  Per-row we record
wall seconds, the speedup relative to the NumPy row, and the maximum
elementwise deviation from the NumPy result, so the JSON doubles as a
tolerance-contract audit trail (docs/BACKENDS.md).

Backends that are unavailable are *reported* in the JSON (name ->
reason) rather than silently dropped, so a CI artifact from a
torch-less runner still says why it only has one backend column.

Results land in ``BENCH_backends.json`` at the repo root; run via
``make bench-backends``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.blas.backend import available_backends, get_backend, use_backend
from repro.blas.gemm import gemm
from repro.blas.plan import prepare, release
from repro.blas.workspace import clear_workspace

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULT_PATH = REPO_ROOT / "BENCH_backends.json"

#: Compute-dominated shape: big enough that the O(n^3) products (the
#: part a backend actually executes) dwarf the per-call dispatch.
M, N, K = 256, 256, 4096
REPEATS = 5

MODES = [
    "STANDARD",
    "FLOAT_TO_BF16",
    "FLOAT_TO_BF16X2",
    "FLOAT_TO_BF16X3",
    "FLOAT_TO_TF32",
]


def _best_of(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _usable_backends():
    """Backend names to bench: numpy always, torch legs when importable."""
    probe = available_backends()
    names = ["numpy"]
    # "torch" resolves to the best available device; the explicit legs
    # would duplicate it, so bench the resolved one only.
    if probe.get("torch") == "ok":
        names.append(get_backend("torch").cache_key)
    return names, probe


@pytest.fixture(scope="module")
def results():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((M, K)).astype(np.float32)
    b = rng.standard_normal((K, N)).astype(np.float32)
    names, probe = _usable_backends()

    rows = []
    reference = {}
    for name in names:
        be = get_backend(name)
        a_plan, b_plan = prepare(a), prepare(b)
        try:
            with use_backend(be):
                for mode in MODES:
                    gemm(a_plan, b_plan, mode=mode)  # warm: stage + cache
                    seconds = _best_of(
                        lambda m=mode: gemm(a_plan, b_plan, mode=m)
                    )
                    out = gemm(a_plan, b_plan, mode=mode)
                    if name == "numpy":
                        reference[mode] = out
                    ref = reference[mode]
                    rows.append(
                        {
                            "backend": be.cache_key,
                            "mode": mode,
                            "seconds": seconds,
                            "max_abs_dev_vs_numpy": float(
                                np.max(np.abs(out - ref))
                            ),
                            "bitwise_vs_numpy": bool(np.array_equal(out, ref)),
                        }
                    )
        finally:
            release(a_plan)
            release(b_plan)
            clear_workspace()

    numpy_seconds = {
        row["mode"]: row["seconds"] for row in rows if row["backend"] == "numpy"
    }
    for row in rows:
        row["speedup_vs_numpy"] = numpy_seconds[row["mode"]] / row["seconds"]

    RESULT_PATH.write_text(
        json.dumps(
            {
                "benchmark": "backend_compare",
                "shape": {"m": M, "n": N, "k": K},
                "repeats": REPEATS,
                "backends_probed": probe,
                "results": rows,
            },
            indent=2,
        )
        + "\n"
    )
    return rows


def test_numpy_rows_present_and_exact(results):
    numpy_rows = [r for r in results if r["backend"] == "numpy"]
    assert {r["mode"] for r in numpy_rows} == set(MODES)
    for row in numpy_rows:
        assert row["bitwise_vs_numpy"]
        assert row["speedup_vs_numpy"] == 1.0


def test_offload_rows_meet_tolerance_contract(results):
    # ieee_fp32_accumulation backends may reassociate the FP32 sums;
    # the documented bound is a few ULPs of the accumulated magnitude.
    for row in results:
        if row["backend"] == "numpy":
            continue
        assert np.isfinite(row["max_abs_dev_vs_numpy"])
        assert row["max_abs_dev_vs_numpy"] <= 1e-3 * np.sqrt(K), row


def test_json_artifact_written(results):
    data = json.loads(RESULT_PATH.read_text())
    assert data["benchmark"] == "backend_compare"
    assert "numpy" in data["backends_probed"]
    assert len(data["results"]) == len(results)
