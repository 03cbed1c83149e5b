"""Stateful property test of the work-queue protocol under fault injection.

Three workers drive one queue of 3-5 synthetic cells through the
:class:`repro.distrib.WorkQueue` API on a simulated clock (every lease
call gets ``now=``).  The rules are the worker's own moves — claim,
renew, record-then-release, steal-then-record — plus two faults: a
crash mid-append that tears the tail of a worker's result shard, and a
killed worker that stays silent past ``lease_seconds`` before it
restarts under the same id.
"""

import json
import shutil
import tempfile
from pathlib import Path

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.distrib import SweepSpec, WorkQueue

WORKERS = ("w0", "w1", "w2")
LEASE_SECONDS = 30.0

workers = st.sampled_from(WORKERS)


class WorkQueueMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.tmp = Path(tempfile.mkdtemp(prefix="queue-machine-"))
        self.queue = None
        self.now = 1_000_000.0
        # worker -> (cell index, lease deadline or None once lost): the
        # cell a live worker is running under a lease it claimed.
        self.running = {}
        # (worker, cell index) of every fully written completion record.
        self.records = []

    @initialize(n_cells=st.integers(3, 5))
    def create_queue(self, n_cells):
        spec = SweepSpec(kind="synthetic", n_cells=n_cells, params={"cell_seconds": 0.0})
        self.queue = WorkQueue.create(
            self.tmp / "q", spec, lease_seconds=LEASE_SECONDS
        )

    def todo(self):
        done = self.queue.completed_keys()
        return [i for i, c in enumerate(self.queue.cells) if c.key not in done]

    def record(self, worker, index, **kwargs):
        self.queue.record_result(worker, index, {"index": index}, 0.0, **kwargs)
        self.records.append((worker, index))

    # -- worker moves --------------------------------------------------

    @rule(worker=workers, data=st.data())
    def claim(self, worker, data):
        todo = self.todo()
        if worker in self.running or not todo:
            return
        index = data.draw(st.sampled_from(todo))
        outcome = self.queue.try_claim(index, worker, now=self.now)
        if outcome.status == "claimed":
            self.running[worker] = (index, self.now + LEASE_SECONDS)
        else:
            assert outcome.holder != worker

    @precondition(lambda self: self.running)
    @rule(data=st.data())
    def renew(self, data):
        worker = data.draw(st.sampled_from(sorted(self.running)))
        index, _ = self.running[worker]
        renewed = self.queue.renew(index, worker, now=self.now)
        self.running[worker] = (index, self.now + LEASE_SECONDS if renewed else None)

    @precondition(lambda self: self.running)
    @rule(data=st.data())
    def record_then_release(self, data):
        worker = data.draw(st.sampled_from(sorted(self.running)))
        index, _ = self.running.pop(worker)
        self.record(worker, index)
        self.queue.release(index, worker)

    @rule(worker=workers)
    def steal_then_record(self, worker):
        if worker in self.running:
            return
        for index in self.todo():
            lease = self.queue.read_lease(index)
            if (
                lease is not None
                and lease["worker"] != worker
                and lease["deadline_unix"] > self.now
                and self.now - lease["claimed_unix"] > self.queue.steal_after
                and self.queue.try_steal(index, worker)
            ):
                self.record(worker, index, attempt=0, stolen=True)
                return

    @rule(seconds=st.sampled_from([1.0, LEASE_SECONDS / 3, LEASE_SECONDS / 2 + 1]))
    def tick(self, seconds):
        self.now += seconds

    # -- faults --------------------------------------------------------

    @rule(worker=workers, data=st.data())
    def tear_shard_tail(self, worker, data):
        """``worker`` crashes mid-append and restarts under its id."""
        if worker in self.running:
            index, _ = self.running.pop(worker)
        else:
            index = data.draw(st.integers(0, len(self.queue.cells) - 1))
        line = json.dumps(
            {"type": "result", "cell": self.queue.cells[index].key, "worker": worker}
        )
        cut = data.draw(st.integers(1, len(line) - 1))
        with open(self.queue.results_path(worker), "a") as fh:
            fh.write(line[:cut])

    @rule(worker=workers)
    def kill(self, worker):
        """``worker`` dies; it restarts, same id, after its lease expired."""
        self.running.pop(worker, None)
        self.now += LEASE_SECONDS + 1.0

    # -- invariants ----------------------------------------------------

    @invariant()
    def at_most_one_unexpired_lease_per_cell(self):
        holders = {}
        for worker, (index, deadline) in self.running.items():
            if deadline is not None and deadline > self.now:
                assert index not in holders, (index, holders[index], worker)
                holders[index] = worker
                assert self.queue.read_lease(index)["worker"] == worker

    @invariant()
    def every_written_record_is_visible(self):
        if self.queue is None:
            return
        winners, stats = self.queue.completed()
        assert set(winners) == {self.queue.cells[i].key for _, i in self.records}
        assert stats.completed + stats.duplicates == len(self.records)
        for worker in WORKERS:
            written = sum(1 for w, _ in self.records if w == worker)
            counted = stats.per_worker.get(worker, {}).get("cells", 0)
            assert counted == written, (worker, counted, written)

    @invariant()
    def completed_keys_match_winners(self):
        if self.queue is None:
            return
        assert self.queue.completed_keys() == set(self.queue.completed()[0])

    def teardown(self):
        try:
            if self.queue is not None:
                self.final_drain()
        finally:
            shutil.rmtree(self.tmp, ignore_errors=True)

    def final_drain(self):
        """Every worker dies; a fresh one finishes the queue unblocked."""
        self.running.clear()
        self.now += LEASE_SECONDS + 1.0
        for index in self.todo():
            assert self.queue.try_claim(index, "drain", now=self.now).status == "claimed"
            self.record("drain", index)
            self.queue.release(index, "drain")
        winners, stats = self.queue.completed()
        assert sorted(winners) == sorted(c.key for c in self.queue.cells)
        assert stats.completed == len(self.queue.cells)
        assert stats.completed + stats.duplicates == len(self.records)


WorkQueueMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestWorkQueueMachine = WorkQueueMachine.TestCase
