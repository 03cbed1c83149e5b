"""Bench: the adaptive scheduler's speed-at-fixed-accuracy claim.

The closed-loop scheduler exists to buy wall-clock without giving up
the accuracy contract.  This bench pins both halves of that claim on
the paper's small lattice:

* **speed** — one adaptive run (BF16 start rung, default ladder) vs
  the static modes at the accuracy extremes: ``STANDARD`` (FP32
  everywhere) and ``FLOAT_TO_BF16X3`` (the most expensive emulated
  split).  Both the adaptive and BF16X3 runs are judged against the
  *same* fixed error budget, so the speedup is at equal contract, not
  equal luck.  Gate: adaptive at least 1.5x faster than static BF16X3
  in measured wall-clock.
* **accuracy** — the adaptive run must end inside the budget envelope
  (final-step utilization <= 1) with zero unhandled breaches: every
  alert was answered by an escalation, none hit the ladder's top.
* **overhead** — when no scheduler is installed, the only trace it
  leaves on the hot path is the ``active_policy()`` read each GEMM
  already performs.  Following ``test_telemetry_overhead.py``: time
  that read in isolation and assert it costs < 1 % of the cheapest
  prepared split-GEMM it could ever amortise against.

Results land in ``BENCH_adaptive.json`` at the repo root; CI uploads
it as a non-blocking artifact (``make bench-adaptive``).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.blas.gemm import gemm
from repro.blas.plan import prepare, release
from repro.blas.policy import active_policy
from repro.blas.workspace import clear_workspace
from repro.core.scheduler import AdaptiveScheduler
from repro.dcmesh.simulation import Simulation, SimulationConfig
from repro.gpu import Device
from repro.telemetry.drift import DriftMonitor, ErrorBudget, ReferenceTrajectory
from repro.telemetry.registry import disable, enable

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULT_PATH = REPO_ROOT / "BENCH_adaptive.json"

#: Gate: adaptive wall-clock vs static BF16X3 at the same contract.
MIN_SPEEDUP_VS_BF16X3 = 1.5
#: Gate: disabled-path policy read vs one prepared split-GEMM call.
MAX_OVERHEAD_FRACTION = 0.01

GUARD_LOOPS = 200_000
OBSERVABLES = ("nexc", "javg", "ekin")

#: Long enough for the controller to settle (escalations happen in the
#: first SCF blocks) and for the per-step split-count difference to
#: dominate the timing; small enough for a CI runner.
N_STEPS = 60
NSCF = 20


def _final_rel_error(result, reference) -> float:
    worst = 0.0
    for obs in OBSERVABLES:
        ref = float(reference.column(obs)[-1])
        got = float(result.column(obs)[-1])
        denom = max(abs(ref), np.finfo(np.float64).tiny)
        worst = max(worst, abs(got - ref) / denom)
    return worst


def _timed_run(sim, **kwargs):
    sim.device = Device()
    sim._device_allocated = False
    t0 = time.perf_counter()
    result = sim.run(**kwargs)
    return result, time.perf_counter() - t0


def _policy_read_seconds_per_call() -> float:
    """Per-call cost of the one read a disabled scheduler leaves behind."""
    active_policy()  # warm the module/global lookup
    loops = range(GUARD_LOOPS)
    t0 = time.perf_counter()
    for _ in loops:
        active_policy()
    return (time.perf_counter() - t0) / GUARD_LOOPS


def _split_gemm_seconds() -> float:
    """One prepared BF16X3 split-GEMM, the yardstick for overhead."""
    rng = np.random.default_rng(42)
    m, n, k = 16, 16, 65536
    a = (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))).astype(
        np.complex64
    )
    b = (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))).astype(
        np.complex64
    )
    try:
        a_plan, b_plan = prepare(a), prepare(b)
        gemm(a_plan, b_plan, mode="FLOAT_TO_BF16X3")  # build cached forms
        best = float("inf")
        for _ in range(7):
            t0 = time.perf_counter()
            gemm(a_plan, b_plan, mode="FLOAT_TO_BF16X3")
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        release(a)
        release(b)
        clear_workspace()


@pytest.fixture(scope="module")
def results():
    prev = disable()
    try:
        assert active_policy() is None
        policy_read = _policy_read_seconds_per_call()
        split_gemm = _split_gemm_seconds()

        cfg = SimulationConfig.small_test(n_qd_steps=N_STEPS, nscf=NSCF)
        sim = Simulation(cfg)
        ground = sim.setup()

        # The shared accuracy contract, derived exactly as the driver
        # derives it: the scheduler's budget_mode envelope over ||H_nl||.
        sched = AdaptiveScheduler()
        h_nl = sim._solver.projectors.subspace_matrix(
            ground.orbitals.psi.astype(np.complex128)
        )
        contract = ErrorBudget.for_mode(
            sched.budget_mode,
            cfg.dt,
            float(np.linalg.norm(h_nl)),
            headroom=sched.config.budget_headroom,
        )

        reference, fp32_wall = _timed_run(sim, mode="STANDARD", drift=False)
        ref_traj = ReferenceTrajectory.from_result(reference)

        dm_x3 = DriftMonitor(
            mode="FLOAT_TO_BF16X3", budget=contract, reference=ref_traj
        )
        bf16x3, bf16x3_wall = _timed_run(sim, mode="FLOAT_TO_BF16X3", drift=dm_x3)

        dm_ad = DriftMonitor(budget=contract, reference=ref_traj)
        adaptive, adaptive_wall = _timed_run(sim, adaptive=sched, drift=dm_ad)
        summary = sched.summary()

        def util(dm):
            u = dm.current_utilization()
            return 0.0 if u is None or not np.isfinite(u) else float(u)

        row = {
            "benchmark": "adaptive_scheduler",
            "config": {"n_qd_steps": N_STEPS, "nscf": NSCF,
                       "mesh_shape": list(cfg.mesh_shape), "n_orb": cfg.n_orb},
            "contract": {"budget_mode": sched.budget_mode.env_value,
                         "headroom": sched.config.budget_headroom},
            "wall_seconds": {"STANDARD": fp32_wall,
                             "FLOAT_TO_BF16X3": bf16x3_wall,
                             "ADAPTIVE": adaptive_wall},
            "final_rel_error": {
                "FLOAT_TO_BF16X3": _final_rel_error(bf16x3, reference),
                "ADAPTIVE": _final_rel_error(adaptive, reference),
            },
            "final_utilization": {"FLOAT_TO_BF16X3": util(dm_x3),
                                  "ADAPTIVE": util(dm_ad)},
            "speedup_vs_bf16x3": bf16x3_wall / adaptive_wall,
            "speedup_vs_fp32": fp32_wall / adaptive_wall,
            "min_speedup_vs_bf16x3": MIN_SPEEDUP_VS_BF16X3,
            "scheduler": summary,
            "overhead": {
                "policy_read_seconds_per_call": policy_read,
                "split_gemm_seconds": split_gemm,
                "overhead_fraction": policy_read / split_gemm,
                "max_overhead_fraction": MAX_OVERHEAD_FRACTION,
            },
        }
        RESULT_PATH.write_text(json.dumps(row, indent=2) + "\n")
        return row
    finally:
        if prev is not None:
            enable(prev)


def test_adaptive_beats_static_bf16x3_wall_clock(results):
    assert results["speedup_vs_bf16x3"] >= MIN_SPEEDUP_VS_BF16X3, results


def test_adaptive_holds_the_accuracy_contract(results):
    # Same contract the BF16X3 run is judged by: end inside the
    # envelope, with every breach answered by an escalation.
    assert results["final_utilization"]["ADAPTIVE"] <= 1.0, results
    assert results["scheduler"]["unhandled_breaches"] == 0, results


def test_static_bf16x3_also_in_contract(results):
    # Sanity: the yardstick itself satisfies the contract, so the
    # speedup really is at equal accuracy, not against a broken run.
    assert results["final_utilization"]["FLOAT_TO_BF16X3"] <= 1.0, results


def test_controller_actually_escalated(results):
    assert results["scheduler"]["escalations"] >= 1, results


def test_disabled_overhead_below_one_percent(results):
    assert (
        results["overhead"]["overhead_fraction"] < MAX_OVERHEAD_FRACTION
    ), results


def test_json_artifact_written(results):
    data = json.loads(RESULT_PATH.read_text())
    assert data["benchmark"] == "adaptive_scheduler"
    assert data["speedup_vs_bf16x3"] > 0
