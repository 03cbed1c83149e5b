"""Bench: software-emulation cost of the post-paper split modes.

One row per (routine, mode): repeated prepared GEMMs timing
``OZAKI_INT8`` (at 2 and 3 slices) and ``EMULATED_FP64`` against
``STANDARD`` on the same operands.  On a CPU these modes *cost* their
component products rather than saving silicon — Ozaki at three slices
runs six INT8-slice products per real GEMM, emulated FP64 six FP32
pair products per double GEMM — so the recorded slowdowns audit that
the emulation actually does the work the device model charges for.
Accuracy columns ride along so the JSON doubles as an error-ladder
audit: Ozaki's max deviation from the FP64 reference must shrink as
slices are added, and emulated FP64's must sit at the compensated-
accumulation floor.

Results land in ``BENCH_newmodes.json`` at the repo root; run via
``make bench-newmodes``.  The CI job is non-blocking (timings on
shared runners are noisy); the accuracy assertions are not.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.blas.gemm import gemm
from repro.blas.modes import ComputeMode, set_ozaki_slices
from repro.blas.plan import prepare, release
from repro.blas.workspace import clear_workspace

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULT_PATH = REPO_ROOT / "BENCH_newmodes.json"

M, N, K = 192, 160, 1024
REPEATS = 5

#: (label, routine dtype, mode, ozaki slices or None)
CASES = [
    ("sgemm/STANDARD", np.float32, ComputeMode.STANDARD, None),
    ("sgemm/OZAKI_INT8(s=2)", np.float32, ComputeMode.OZAKI_INT8, 2),
    ("sgemm/OZAKI_INT8(s=3)", np.float32, ComputeMode.OZAKI_INT8, 3),
    ("sgemm/EMULATED_FP64", np.float32, ComputeMode.EMULATED_FP64, None),
    ("dgemm/STANDARD", np.float64, ComputeMode.STANDARD, None),
    ("dgemm/EMULATED_FP64", np.float64, ComputeMode.EMULATED_FP64, None),
    ("cgemm/STANDARD", np.complex64, ComputeMode.STANDARD, None),
    ("cgemm/OZAKI_INT8(s=3)", np.complex64, ComputeMode.OZAKI_INT8, 3),
    ("cgemm/EMULATED_FP64", np.complex64, ComputeMode.EMULATED_FP64, None),
]


def _best_of(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _operands(dtype, rng):
    if np.dtype(dtype).kind == "c":
        a = rng.standard_normal((M, K)) + 1j * rng.standard_normal((M, K))
        b = rng.standard_normal((K, N)) + 1j * rng.standard_normal((K, N))
        return a.astype(dtype), b.astype(dtype)
    return (
        rng.standard_normal((M, K)).astype(dtype),
        rng.standard_normal((K, N)).astype(dtype),
    )


@pytest.fixture(scope="module")
def results():
    rng = np.random.default_rng(13)
    operands = {}
    rows = []
    try:
        for label, dtype, mode, slices in CASES:
            key = np.dtype(dtype).name
            if key not in operands:
                a, b = _operands(dtype, rng)
                operands[key] = (prepare(a), prepare(b), a, b)
            a_plan, b_plan, a, b = operands[key]
            set_ozaki_slices(slices)
            try:
                gemm(a_plan, b_plan, mode=mode)  # warm: stage + cache
                seconds = _best_of(lambda: gemm(a_plan, b_plan, mode=mode))
                out = gemm(a_plan, b_plan, mode=mode)
            finally:
                set_ozaki_slices(None)
            ref = a.astype(np.complex128 if np.iscomplexobj(a) else np.float64) @ \
                b.astype(np.complex128 if np.iscomplexobj(b) else np.float64)
            rows.append(
                {
                    "case": label,
                    "routine": label.split("/")[0],
                    "mode": mode.env_value,
                    "ozaki_slices": slices,
                    "seconds": seconds,
                    "max_abs_dev_vs_fp64": float(np.max(np.abs(out - ref))),
                }
            )
    finally:
        for a_plan, b_plan, _, _ in operands.values():
            release(a_plan)
            release(b_plan)
        clear_workspace()

    standard = {
        row["routine"]: row["seconds"]
        for row in rows
        if row["mode"] == "STANDARD"
    }
    for row in rows:
        row["slowdown_vs_standard"] = row["seconds"] / standard[row["routine"]]

    RESULT_PATH.write_text(
        json.dumps(
            {
                "benchmark": "newmodes_perf",
                "shape": {"m": M, "n": N, "k": K},
                "repeats": REPEATS,
                "results": rows,
            },
            indent=2,
        )
        + "\n"
    )
    return rows


def _by_case(results):
    return {row["case"]: row for row in results}


def test_all_cases_present(results):
    assert {r["case"] for r in results} == {c[0] for c in CASES}
    assert all(np.isfinite(r["seconds"]) and r["seconds"] > 0 for r in results)


def test_ozaki_accuracy_ladder(results):
    rows = _by_case(results)
    e_std = rows["sgemm/STANDARD"]["max_abs_dev_vs_fp64"]
    e_s2 = rows["sgemm/OZAKI_INT8(s=2)"]["max_abs_dev_vs_fp64"]
    e_s3 = rows["sgemm/OZAKI_INT8(s=3)"]["max_abs_dev_vs_fp64"]
    # More slices, tighter error; three slices lands near FP32 class.
    assert e_s2 > e_s3 > 0
    assert e_s3 < 100 * max(e_std, 1e-12)


def test_emulated_fp64_accuracy_floor(results):
    rows = _by_case(results)
    # Double storage: compensated accumulation sits ~1e5x under native
    # FP32-class error scales; the envelope here is generous.
    assert rows["dgemm/EMULATED_FP64"]["max_abs_dev_vs_fp64"] < 1e-9
    # Single storage: never worse than plain FP32 arithmetic.
    assert (
        rows["sgemm/EMULATED_FP64"]["max_abs_dev_vs_fp64"]
        <= rows["sgemm/STANDARD"]["max_abs_dev_vs_fp64"] * 1.5
    )


def test_emulation_pays_its_component_products(results):
    """dgemm emulated FP64 runs six FP32 pair products — the software
    emulation must cost measurably more than one native FP64 GEMM."""
    rows = _by_case(results)
    assert rows["dgemm/EMULATED_FP64"]["slowdown_vs_standard"] > 1.5
    assert rows["sgemm/OZAKI_INT8(s=3)"]["slowdown_vs_standard"] > 1.5


def test_json_artifact_written(results):
    data = json.loads(RESULT_PATH.read_text())
    assert data["benchmark"] == "newmodes_perf"
    assert len(data["results"]) == len(results)
