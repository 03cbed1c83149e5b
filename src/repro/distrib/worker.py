"""The distributed worker: lease loop, heartbeat, work-stealing, CLI.

A worker needs exactly one thing — the queue directory::

    python -m repro.distrib.worker --queue /shared/queue --worker-id w0

which makes multi-host launch trivial: point more processes at a
directory every host can mount.  On start-up the worker re-applies the
environment the driver captured into the manifest
(:func:`repro.distrib.collector.apply_captured_env`), so backend /
compute-mode / telemetry / drift state match the submitting process —
the process analogue of what ``parallel_mode_sweep`` does for threads.

The loop, each pass over the manifest order:

1. **claim** — take the first unleased (or expired-lease) incomplete
   cell; run it while a daemon heartbeat renews the lease at a third
   of its duration, so a *slow* cell never expires — only a *dead*
   worker's lease does.  Once the result is recorded the worker
   releases its lease.
2. **steal** — if nothing was claimable, speculatively re-issue the
   oldest still-leased incomplete cell older than the manifest's
   ``steal_after_seconds`` (one marker per worker per cell, so idle
   re-scans never pile on).  The thief runs without holding the lease;
   first completion wins at merge, duplicates are discarded by key.
3. **idle** — nothing to claim or steal: short sleep, re-scan; exit
   when every cell has a completion record.

Results and per-cell telemetry are appended to this worker's *own*
JSONL shards, so there is no cross-process append race by design.
"""

from __future__ import annotations

import argparse
import os
import socket
import threading
import time
from typing import Optional

from repro.distrib.cells import Cell, run_cell
from repro.distrib.collector import apply_captured_env, snapshot_cell_telemetry
from repro.distrib.queue import WorkQueue

__all__ = ["run_worker", "main"]

#: Idle-poll interval while waiting for claimable or stealable work.
POLL_SECONDS = 0.05


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


def _run_one(
    queue: WorkQueue,
    worker_id: str,
    index: int,
    attempt: int,
    stolen: bool,
    takeover: bool,
    stall_key: Optional[str],
    stall_seconds: float,
) -> None:
    """Execute one cell and append its result + telemetry records."""
    from repro.telemetry import registry

    cell: Cell = queue.cells[index]
    if stall_key is not None and stall_key in cell.key and not stolen:
        # Test hook: act as a straggler.  The heartbeat (when leased)
        # keeps the lease alive, so only work-stealing can recover the
        # idle tail this stall creates.
        time.sleep(stall_seconds)
    telemetry_on = os.environ.get(registry.TELEMETRY_ENV, "").strip() not in ("", "0")
    collector = registry.enable(registry.Telemetry()) if telemetry_on else None
    start = time.perf_counter()
    try:
        result = run_cell(cell, dict(queue.spec.params))
    finally:
        if collector is not None:
            registry.disable()
    seconds = time.perf_counter() - start
    if collector is not None:
        queue.record_telemetry(
            worker_id,
            snapshot_cell_telemetry(collector, cell.key, worker_id, attempt, seconds),
        )
    queue.record_result(
        worker_id,
        index,
        result,
        seconds,
        attempt=attempt,
        stolen=stolen,
        takeover=takeover,
    )


def run_worker(
    queue_dir,
    worker_id: Optional[str] = None,
    max_cells: Optional[int] = None,
    stall_key: Optional[str] = None,
    stall_seconds: float = 0.0,
    apply_env: bool = True,
) -> int:
    """Drain ``queue_dir`` until every cell is complete.

    Returns the number of cells this worker executed.  ``max_cells``
    bounds that count (inline/test use); ``apply_env=False`` skips the
    manifest-env re-entry for in-process callers that already carry
    the ambient state.
    """
    queue = WorkQueue(queue_dir)
    worker_id = worker_id or default_worker_id()
    if apply_env:
        apply_captured_env(queue.env)
    executed = 0
    while max_cells is None or executed < max_cells:
        done = queue.completed_keys()
        if len(done) >= len(queue.cells):
            break
        todo = [i for i, c in enumerate(queue.cells) if c.key not in done]
        progressed = False
        # Pass 1: claim a vacant or expired lease.
        for index in todo:
            outcome = queue.try_claim(index, worker_id)
            if outcome.status != "claimed":
                continue
            if queue.cells[index].key in queue.completed_keys():
                # Finished and released since `todo` was read: running
                # it again would only add a duplicate.
                queue.release(index, worker_id)
                progressed = True
                break
            stop_heartbeat = threading.Event()

            def _heartbeat(idx: int = index) -> None:
                interval = queue.lease_seconds / 3.0
                while not stop_heartbeat.wait(interval):
                    if not queue.renew(idx, worker_id):
                        return  # lease lost to a takeover; let merge decide

            beat = threading.Thread(target=_heartbeat, daemon=True)
            beat.start()
            try:
                _run_one(
                    queue,
                    worker_id,
                    index,
                    attempt=outcome.attempt,
                    stolen=False,
                    takeover=outcome.takeover,
                    stall_key=stall_key,
                    stall_seconds=stall_seconds,
                )
            finally:
                stop_heartbeat.set()
                beat.join()
            # The result is on disk: hand the lease back so a torn record
            # re-runs on resume without waiting for the lease to expire.
            # The heartbeat is stopped first so it cannot re-create it.
            queue.release(index, worker_id)
            executed += 1
            progressed = True
            break
        if progressed:
            continue
        # Pass 2: steal the oldest long-held straggler.
        index = _pick_steal(queue, todo, worker_id)
        if index is not None:
            _run_one(
                queue,
                worker_id,
                index,
                attempt=0,  # attempt 0 marks a speculative run
                stolen=True,
                takeover=False,
                stall_key=stall_key,
                stall_seconds=stall_seconds,
            )
            executed += 1
            continue
        time.sleep(POLL_SECONDS)
    return executed


def _pick_steal(queue: WorkQueue, todo, worker_id: str) -> Optional[int]:
    """The oldest stealable straggler, or ``None``.

    Stealable: incomplete, actively leased by *another* worker for
    longer than ``steal_after_seconds``, and not already re-issued by
    this worker (the ``O_EXCL`` marker enforces one steal per worker
    per cell).
    """
    if queue.steal_after is None:
        return None
    now = time.time()
    best: Optional[int] = None
    best_age = -1.0
    for index in todo:
        lease = queue.read_lease(index)
        if lease is None or lease.get("worker") == worker_id:
            continue
        if float(lease.get("deadline_unix", 0.0)) <= now:
            continue  # expired: the claim pass handles takeovers
        age = now - float(lease.get("claimed_unix", now))
        if age <= queue.steal_after:
            continue
        if age > best_age:
            best, best_age = index, age
    if best is not None and queue.try_steal(best, worker_id):
        return best
    return None


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.distrib.worker",
        description="Drain a repro.distrib work queue until every cell is done.",
    )
    parser.add_argument("--queue", required=True, help="queue directory")
    parser.add_argument(
        "--worker-id", default=None, help="shard label (default: <host>-<pid>)"
    )
    parser.add_argument(
        "--max-cells", type=int, default=None, help="stop after N cells (testing)"
    )
    parser.add_argument(
        "--stall-key",
        default=None,
        help="straggler injection: sleep --stall-seconds before any "
        "claimed cell whose key contains this substring (testing)",
    )
    parser.add_argument("--stall-seconds", type=float, default=0.0)
    args = parser.parse_args(argv)
    run_worker(
        args.queue,
        worker_id=args.worker_id,
        max_cells=args.max_cells,
        stall_key=args.stall_key,
        stall_seconds=args.stall_seconds,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
