"""Coordinator-side fleet policy over the durable job store.

:class:`FleetManager` is pure policy: every mutation it performs is a
single short transaction on the :class:`~repro.jobs.store.JobStore`, so
fleet state (worker rows, leases, heartbeat watermarks) shares the
durability story of the jobs it serves.  Kill -9 the coordinator and
restart it on the same store file: registered workers are still rows,
their next heartbeat re-adopts them (``adopted=True``), active leases
keep their deadlines, and the sweep resumes digest-identically.

Liveness is driven entirely by the requests that already flow — every
heartbeat and lease request sweeps in the same transaction as its own
write, and a status read runs :meth:`expire` first — so the
coordinator needs no background reaper thread: a fleet with any pulse
at all sweeps itself, and an idle one has nothing to sweep.

Completion and failure reports also wake the executors that
:meth:`~FleetManager.wait` on this manager.
"""

from __future__ import annotations

import threading
from typing import Any

from repro import obs
from repro.jobs.store import JobStore
from repro.utils.canonical import content_digest
from repro.utils.validation import require

__all__ = ["FleetManager", "worker_id_for"]

#: Worker membership events: ``registered`` (first announcement),
#: ``adopted`` (a re-registration or a heartbeat revived a worker the
#: coordinator did not have live — the crash-adoption path), ``lost``
#: (heartbeat watermark went stale), ``left`` (graceful deregister).
_WORKER_EVENTS = obs.REGISTRY.counter(
    "repro_fleet_worker_events_total",
    "Fleet worker membership transitions.",
    ("event",),
)
_WORKERS = obs.REGISTRY.gauge(
    "repro_fleet_workers",
    "Registered fleet workers by liveness state.",
    ("state",),
)
#: Lease lifecycle: ``granted`` on every successful pull, ``completed``
#: when the result lands, ``expired`` when a deadline passes or the
#: holder is lost, ``duplicate`` when a stolen chunk's original holder
#: completes late (harmless: chunk payloads are deterministic),
#: ``failed`` when the holder reports that its chunk raised, and
#: ``stale`` when such a report comes from a worker that no longer
#: holds the chunk (ignored).
_LEASE_EVENTS = obs.REGISTRY.counter(
    "repro_fleet_leases_total",
    "Chunk lease lifecycle events.",
    ("event",),
)
_STEALS = obs.REGISTRY.counter(
    "repro_fleet_steals_total",
    "Chunks re-granted to a different worker after a lease expiry.",
)
_HEARTBEAT_LAG = obs.REGISTRY.histogram(
    "repro_fleet_heartbeat_lag_seconds",
    "Wall time between a worker's consecutive heartbeats.",
    buckets=(0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 120.0),
)


def worker_id_for(url: str) -> str:
    """The content-addressed id of a worker (its advertised URL).

    Deterministic on purpose: a worker that restarts and re-registers
    under the same URL gets the same row — identity follows the
    endpoint, and re-registration is adoption, not duplication.
    """
    require(bool(url), "a worker needs an advertised URL")
    return "w" + content_digest({"url": str(url).rstrip("/")})[:12]


class FleetManager:
    """Registration, heartbeats and the lease queue, over one store.

    Parameters
    ----------
    store:
        The durable :class:`JobStore` both jobs and fleet state live in.
    lease_ttl:
        Seconds a worker owns a leased chunk before it becomes
        stealable.  Must comfortably exceed the slowest expected chunk;
        a hung worker is only detected after this long.
    heartbeat_ttl:
        Seconds without a heartbeat before a worker is marked ``lost``
        and its active leases are re-queued.
    """

    def __init__(
        self,
        store: JobStore,
        *,
        lease_ttl: float = 60.0,
        heartbeat_ttl: float = 15.0,
    ) -> None:
        require(lease_ttl > 0, "lease_ttl must be > 0")
        require(heartbeat_ttl > 0, "heartbeat_ttl must be > 0")
        self.store = store
        self.lease_ttl = float(lease_ttl)
        self.heartbeat_ttl = float(heartbeat_ttl)
        #: Completion and failure reports handled so far (see :meth:`wait`).
        self.reports = 0
        self._changed = threading.Condition()

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def register(
        self,
        url: str,
        *,
        capacity: int = 1,
        labels: dict[str, object] | None = None,
    ) -> dict[str, object]:
        """Register (or re-adopt) the worker serving at ``url``."""
        worker_id = worker_id_for(url)
        row = _count(self.store.register_worker(
            worker_id, str(url).rstrip("/"), int(capacity), labels
        ))
        adopted = bool(row.pop("adopted"))
        released = int(row.pop("released"))
        _WORKER_EVENTS.inc(event="adopted" if adopted else "registered")
        if released:
            _LEASE_EVENTS.inc(released, event="expired")
        row["adopted"] = adopted
        row["lease_ttl"] = self.lease_ttl
        row["heartbeat_ttl"] = self.heartbeat_ttl
        return row

    def heartbeat(
        self, worker_id: str, load: dict[str, object] | None = None
    ) -> dict[str, object]:
        """Record a worker's pulse; ``KeyError`` (404) asks it to
        re-register — the path a worker takes when the coordinator
        comes back with a fresh store."""
        pulse = _count(self.store.heartbeat_worker(
            worker_id, load, self.heartbeat_ttl))
        lag = float(pulse["lag"])
        _HEARTBEAT_LAG.observe(lag)
        if pulse["adopted"]:
            _WORKER_EVENTS.inc(event="adopted")
        return {
            "worker": worker_id,
            "status": "live",
            "lag": lag,
            "adopted": bool(pulse["adopted"]),
            "heartbeat_ttl": self.heartbeat_ttl,
        }

    def deregister(self, worker_id: str) -> dict[str, object]:
        """Gracefully remove a worker; its active leases re-queue."""
        left = _count(self.store.deregister_worker(worker_id))["left"]
        if left:
            _WORKER_EVENTS.inc(event="left")
        return {"worker": worker_id, "left": left}

    # ------------------------------------------------------------------
    # The lease queue
    # ------------------------------------------------------------------
    def lease(self, worker_id: str, job: str | None = None) -> dict[str, object]:
        """Pull one chunk for ``worker_id``, of ``job`` only if given
        (``{"lease": None}`` when the queue is empty)."""
        order = _count(self.store.grant_lease(
            worker_id, self.lease_ttl, self.heartbeat_ttl, job))["lease"]
        if order is None:
            return {"lease": None}
        _LEASE_EVENTS.inc(event="granted")
        if order.get("stolen_from") is not None:
            _STEALS.inc()
        order["ttl"] = self.lease_ttl
        return {"lease": order}

    def complete(
        self,
        worker_id: str,
        job_id: str,
        chunk_index: int,
        result: dict[str, object],
        *,
        elapsed: float = 0.0,
    ) -> dict[str, object]:
        """Durably record a leased chunk's result."""
        first = self.store.complete_lease(
            worker_id, job_id, chunk_index, result, elapsed=float(elapsed)
        )
        _LEASE_EVENTS.inc(event="completed" if first else "duplicate")
        self._notify()
        return {"recorded": True, "first": first, "job": job_id,
                "chunk": int(chunk_index)}

    def fail(
        self, worker_id: str, job_id: str, chunk_index: int, error: str
    ) -> dict[str, object]:
        """A chunk *raised* on its worker: fail the job, free the lease.

        As with a local shard exception, an error *reply* fails the
        job, because a bad spec raises identically everywhere; a
        worker crash, by contrast, is retried (lease expiry).  A report
        from a worker that no longer holds the chunk's active lease, or
        about a chunk already done, is stale: like a duplicate
        completion it is counted and otherwise ignored.
        """
        failed = self.store.fail_lease(
            worker_id, job_id, int(chunk_index),
            f"chunk {int(chunk_index)} on {worker_id}: {error}",
        )
        _LEASE_EVENTS.inc(event="failed" if failed else "stale")
        self._notify()
        return {"recorded": failed, "job": job_id, "chunk": int(chunk_index),
                "failed": failed}

    def wait(self, seen: int, timeout: float) -> bool:
        """True once :attr:`reports` has moved past ``seen`` (read it
        before the store); False after ``timeout`` seconds."""
        with self._changed:
            return self._changed.wait_for(lambda: self.reports != seen,
                                          timeout)

    def _notify(self) -> None:
        with self._changed:
            self.reports += 1
            self._changed.notify_all()

    def expire(self) -> dict[str, object]:
        """One liveness sweep: stale workers lost, their leases and
        overdue ones freed (``{lost, expired}``)."""
        return _count(self.store.sweep(self.heartbeat_ttl))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def status(self) -> dict[str, object]:
        """The operator view ``GET /v1/fleet`` serves."""
        self.expire()
        return {
            "workers": self.store.workers(),
            "leases": self.store.leases(active_only=True),
            "queue": self.store.queue_depth(),
            "lease_ttl": self.lease_ttl,
            "heartbeat_ttl": self.heartbeat_ttl,
        }


def _count(change: dict[str, Any]) -> dict[str, Any]:
    """Count what one store transaction moved: the workers its sweep
    lost, the leases it expired, and — popping ``workers``, the counts
    it read when membership moved — the membership gauge."""
    if change.get("lost"):
        _WORKER_EVENTS.inc(len(change["lost"]), event="lost")
    if change.get("expired"):
        _LEASE_EVENTS.inc(len(change["expired"]), event="expired")
    for state, count in (change.pop("workers") or {}).items():
        _WORKERS.set(count, state=state)
    return change
