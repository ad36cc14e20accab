"""The coordinator's executor for fleet-run jobs.

:class:`FleetExecutor` is the remote sibling of
:class:`~repro.jobs.executor.ShardedExecutor` (local process pool) and
the only way a job's chunks leave the process: it runs *no* chunks
itself.  The job's pending chunks sit in the store as a lease queue;
registered workers pull, execute and complete them through the
``/v1/workers`` routes; this executor marks the job running, keeps
lease/heartbeat liveness swept while it waits, and performs the same
deterministic merge as the local executor once the queue drains — so
the merged report is bit-identical to the single-process path for any
join/leave/kill interleaving.

Because all coordination state is durable, the executor itself is
disposable: kill -9 the coordinator mid-sweep and a fresh
``FleetExecutor`` over the same store file resumes exactly the pending
chunks — workers never notice beyond a few failed heartbeats.
"""

from __future__ import annotations

import threading
import time

from repro.fleet.manager import FleetManager
from repro.jobs.executor import ShardedExecutor
from repro.jobs.store import JobRecord, JobStore
from repro.utils.validation import require

__all__ = ["FleetExecutor"]


class FleetExecutor(ShardedExecutor):
    """Watches the store while the worker fleet drains a job's queue.

    Parameters
    ----------
    store:
        The durable :class:`JobStore` the fleet routes also serve.
    fleet:
        The :class:`FleetManager` to sweep liveness through (defaults
        to a new manager over ``store`` with default TTLs).
    stop_event / max_chunks:
        As on :class:`ShardedExecutor`: graceful drain, and the
        deterministic mid-run stop used by tests and CI drills
        (``max_chunks=K`` returns once K chunks of this invocation have
        completed, leaving the job ``interrupted``/resumable).
    poll:
        Store poll interval in seconds.
    idle_timeout:
        Give up (leaving the job resumable) after this many seconds
        without progress while no live worker holds a lease.  ``None``
        waits indefinitely — the queue is valid before any worker has
        joined, and late joiners pick it up.
    """

    def __init__(
        self,
        store: JobStore,
        *,
        fleet: FleetManager | None = None,
        stop_event: threading.Event | None = None,
        max_chunks: int | None = None,
        poll: float = 0.1,
        idle_timeout: float | None = None,
    ) -> None:
        require(poll > 0, "poll must be > 0")
        super().__init__(store, shards=1, stop_event=stop_event,
                         max_chunks=max_chunks)
        self.fleet = fleet if fleet is not None else FleetManager(store)
        self.poll = float(poll)
        self.idle_timeout = idle_timeout

    def _run_pending(
        self,
        job_id: str,
        record: JobRecord,
        pending: list[tuple[int, int, int]],
    ) -> bool:
        """Wait for the fleet to drain the queue; True if stopped early.

        Workers resolve ``record.kind`` against
        :data:`~repro.jobs.executor.CHUNK_RUNNERS` on their own side.
        """
        budget = len(pending) if self.max_chunks is None else self.max_chunks
        initial = len(pending)
        last_progress = time.monotonic()
        remaining = initial
        while True:
            self.fleet.expire()
            current = self.store.get(job_id)
            if current.status == "failed":
                # A worker reported a chunk error; surface it exactly
                # as a local shard exception would.
                raise RuntimeError(current.error or
                                   f"job {job_id} failed on a worker")
            now_pending = len(self.store.pending_chunks(job_id))
            if now_pending < remaining:
                remaining = now_pending
                last_progress = time.monotonic()
            if remaining == 0:
                return False
            if self._stopped() or (initial - remaining) >= budget:
                return True
            if self.idle_timeout is not None and self._starved(
                time.monotonic() - last_progress
            ):
                return True
            time.sleep(self.poll)

    def _starved(self, stalled_for: float) -> bool:
        """No progress past the deadline with nobody working the queue."""
        assert self.idle_timeout is not None
        if stalled_for < self.idle_timeout:
            return False
        status = self.fleet.status()
        workers = status["workers"]
        assert isinstance(workers, list)
        live = sum(1 for row in workers if row["status"] == "live")
        leases = status["leases"]
        assert isinstance(leases, list)
        return live == 0 and not leases
