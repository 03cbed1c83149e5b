"""Ambient-environment capture/re-entry + streamed telemetry merge.

Worker processes inherit none of the driver's ambient precision
state — the active backend, the compute-mode env var, the Ozaki slice
count, whether telemetry/drift/adaptive are on — so the driver
captures the effective state (:func:`capture_env`), stores it in the
queue manifest, and each worker re-applies it before touching a cell
(:func:`apply_captured_env`).

Capture reads the *programmatic* state, not just ``os.environ``: a
driver that called ``set_backend("torch-cpu")`` or
``set_ozaki_slices(2)`` without exporting anything still propagates
those choices, because capture serialises the resolved values back
into their environment-contract variables.

The telemetry half: workers snapshot one fresh collector per cell into
their telemetry shard (:func:`snapshot_cell_telemetry`), and the merge
replays the winning cells' counters/gauges into the driver's collector
(:func:`merge_cell_telemetry`) plus derives the cross-worker
``distrib.*`` attribution counters from the result records
(:func:`distrib_counters`) — derived from results, not worker
summaries, so a killed worker's completed cells still count.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.blas.backend import REPRO_BACKEND_ENV, active_backend, refresh_from_env
from repro.blas.modes import (
    MKL_COMPUTE_MODE_ENV,
    OZAKI_SLICES_ENV,
    get_ozaki_slices,
    set_ozaki_slices,
)
from repro.core.scheduler import ADAPTIVE_ENV, adaptive_enabled
from repro.telemetry.drift import DRIFT_ENV, drift_enabled
from repro.telemetry.registry import (
    MAX_EVENTS_ENV,
    TELEMETRY_ENV,
    Telemetry,
    parse_counter_name,
    telemetry_enabled,
)

__all__ = [
    "CAPTURED_ENV_VARS",
    "capture_env",
    "apply_captured_env",
    "snapshot_cell_telemetry",
    "merge_cell_telemetry",
    "distrib_counters",
]

#: The environment contract a worker re-enters, in application order.
CAPTURED_ENV_VARS = (
    MKL_COMPUTE_MODE_ENV,  # MKL_BLAS_COMPUTE_MODE
    OZAKI_SLICES_ENV,  # REPRO_OZAKI_SLICES
    REPRO_BACKEND_ENV,  # REPRO_BACKEND
    TELEMETRY_ENV,  # REPRO_TELEMETRY
    MAX_EVENTS_ENV,  # REPRO_TELEMETRY_MAX_EVENTS
    DRIFT_ENV,  # REPRO_DRIFT
    ADAPTIVE_ENV,  # REPRO_ADAPTIVE
)


def capture_env(environ: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """Serialise the driver's *effective* ambient state for workers.

    Programmatic state wins over raw env vars: the resolved backend
    cache key, Ozaki slice count and telemetry/drift/adaptive switches
    are written back into their contract variables, so ``set_backend``
    etc. propagate even when the caller never exported anything.
    """
    import os

    env = dict(os.environ if environ is None else environ)
    captured: Dict[str, str] = {}
    for var in (MKL_COMPUTE_MODE_ENV, MAX_EVENTS_ENV):
        value = env.get(var, "").strip()
        if value:
            captured[var] = value
    captured[OZAKI_SLICES_ENV] = str(get_ozaki_slices())
    backend = active_backend().cache_key
    if backend != "numpy":
        captured[REPRO_BACKEND_ENV] = backend
    captured[TELEMETRY_ENV] = "1" if telemetry_enabled() else "0"
    captured[DRIFT_ENV] = "1" if drift_enabled() else "0"
    captured[ADAPTIVE_ENV] = "1" if adaptive_enabled() else "0"
    return captured


def apply_captured_env(captured: Dict[str, str]) -> None:
    """Re-enter a captured environment inside a worker process.

    Mutates ``os.environ`` first (so the contract variables are what
    any later ``refresh``/spawn sees), then refreshes the programmatic
    state that is resolved at import time: the active backend and the
    Ozaki slice count.  Telemetry itself is *not* enabled here — the
    worker loop installs one fresh collector per cell instead, so cell
    attribution never bleeds across cells.
    """
    import os

    for var in CAPTURED_ENV_VARS:
        if var in captured:
            os.environ[var] = str(captured[var])
        else:
            os.environ.pop(var, None)
    set_ozaki_slices(None)  # defer to the env var just applied
    refresh_from_env()


# ----------------------------------------------------------------------
# Per-cell telemetry stream.
# ----------------------------------------------------------------------


def snapshot_cell_telemetry(
    collector: Telemetry, cell_key: str, worker: str, attempt: int, seconds: float
) -> dict:
    """One telemetry shard record: a cell's counters/gauges snapshot."""
    return {
        "type": "cell_telemetry",
        "cell": cell_key,
        "worker": worker,
        "attempt": attempt,
        "seconds": seconds,
        "counters": collector.counters_flat(),
        "gauges": collector.gauges_flat(),
    }


def merge_cell_telemetry(
    collector: Telemetry, records: List[dict], winners: Dict[str, dict]
) -> int:
    """Replay winning cells' telemetry into ``collector``.

    Only the records matching a winner's (cell, worker, attempt) are
    merged — a stolen duplicate's stream is discarded along with its
    result, so counters are never double-counted.  Returns the number
    of cell streams merged.
    """
    merged = 0
    for rec in records:
        if rec.get("type") != "cell_telemetry":
            continue
        winner = winners.get(rec.get("cell"))
        if winner is None:
            continue
        if rec.get("worker") != winner.get("worker"):
            continue
        if int(rec.get("attempt", 1)) != int(winner.get("attempt", 1)):
            continue
        for flat, value in dict(rec.get("counters", {})).items():
            name, labels = parse_counter_name(flat)
            collector.count(name, float(value), **dict(labels))
        for flat, value in dict(rec.get("gauges", {})).items():
            name, labels = parse_counter_name(flat)
            collector.gauge(name, float(value), **dict(labels))
        merged += 1
    return merged


def distrib_counters(collector: Telemetry, stats) -> None:
    """Emit the cross-worker ``distrib.*`` attribution counters.

    ``stats`` is a :class:`repro.distrib.queue.ShardStats`.  Everything
    here is derived from the result shards at merge time, so the
    numbers are correct even when a worker was killed mid-run and never
    wrote a summary of its own.
    """
    for worker, per in sorted(stats.per_worker.items()):
        collector.count("distrib.cells", per["cells"], worker=worker)
        collector.count("distrib.worker_seconds", per["worker_seconds"], worker=worker)
        if per["steals"]:
            collector.count("distrib.steals", per["steals"], worker=worker)
        if per["lease_takeovers"]:
            collector.count(
                "distrib.lease_expired", per["lease_takeovers"], worker=worker
            )
    if stats.duplicates:
        collector.count("distrib.duplicates", stats.duplicates)
    if stats.corrupt_records:
        collector.count("distrib.corrupt_records", stats.corrupt_records)
