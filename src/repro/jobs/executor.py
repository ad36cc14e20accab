"""Sharded job execution: one population, many worker processes.

The executor partitions a job's sessions into contiguous *chunks*; fleet
agents (:class:`~repro.fleet.agent.FleetAgent`, the one place chunks
execute) lease them from the store's queue and run them in forked worker
processes.  Each worker rebuilds the job's world from its canonical
spec alone — its own market pool, its own sampled population — and
advances only its chunk's sessions, which is sound because every
session draws from a private seeded RNG stream (see
:meth:`repro.simulate.pool.SessionPool.run`).

The merge is therefore **bit-identical** to the single-process path for
any shard count and any kill/resume interleaving:

* per-session terminal records are placed back at their original
  indices (no ordering effects);
* additive counters (kernel/stepped sessions, oracle queries) sum;
* the memoised-oracle *hit* count is reconstructed exactly: the first
  query of each distinct bundle is a miss wherever it runs, so
  ``hits = total queries − |union of distinct bundles queried|`` —
  the same number one shared cache would have produced.

Chunk results are durably recorded in the :class:`~repro.jobs.store.JobStore`
as they land, so a crashed run resumes from its last finished chunk.
"""

from __future__ import annotations

import contextlib
import threading
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro import obs
from repro.client.client import MarketplaceClient
from repro.client.local import LocalTransport
from repro.jobs.store import JobRecord, JobStore
from repro.service.specs import SimulationSpec
from repro.simulate.pool import session_record_arrays
from repro.utils.validation import require

if TYPE_CHECKING:
    from repro.fleet.manager import FleetManager
    from repro.service import JobService

__all__ = [
    "CHUNK_RUNNERS",
    "FleetExecutor",
    "ShardedExecutor",
    "chunk_layout",
    "merge_simulation_chunks",
    "submit_simulation",
]

#: Chunk lifecycle telemetry: the executor counts ``queued`` (run start)
#: and ``failed`` (job-level); the agent that runs a chunk counts
#: ``running``, ``done`` and the chunk's runtime, in its own registry.
_CHUNK_EVENTS = obs.REGISTRY.counter(
    "repro_job_chunk_events_total",
    "Job chunk lifecycle transitions, by job kind.",
    ("kind", "event"),
)
_CHUNK_SECONDS = obs.REGISTRY.histogram(
    "repro_job_chunk_seconds",
    "Worker-reported chunk execution time (monotonic, seconds).",
    ("kind",),
)

#: Fields of a simulation chunk payload that are per-session arrays —
#: derived from the shared layout so the wire format cannot drift from
#: the PoolResult it reassembles into.
_ARRAY_FIELDS = tuple(session_record_arrays(0))


def chunk_layout(n_items: int, n_chunks: int) -> list[tuple[int, int]]:
    """Contiguous ``(start, stop)`` spans covering ``range(n_items)``.

    Spans are balanced to within one item.  The layout is part of the
    job's content-addressed identity: resuming always re-uses the
    layout recorded at submit time, never the current CLI flags.
    """
    require(n_items >= 1, "n_items must be >= 1")
    require(n_chunks >= 1, "n_chunks must be >= 1")
    n_chunks = min(n_chunks, n_items)
    bounds = np.linspace(0, n_items, n_chunks + 1).astype(int)
    return [
        (int(bounds[i]), int(bounds[i + 1]))
        for i in range(n_chunks)
        if bounds[i] < bounds[i + 1]
    ]


# ----------------------------------------------------------------------
# Submission
# ----------------------------------------------------------------------
def submit_simulation(
    store: JobStore, spec: SimulationSpec, *, chunks: int | None = None
) -> JobRecord:
    """Record a population-simulation job (idempotent per content)."""
    layout = chunk_layout(spec.sessions, chunks or _default_chunks(spec.sessions))
    return store.submit("simulation", spec.to_dict(), layout)


def _default_chunks(n_items: int) -> int:
    """Enough chunks that a kill mid-run loses little finished work."""
    return max(1, min(16, n_items))


# ----------------------------------------------------------------------
# Worker-side chunk execution (module-level: picklable by the pool)
# ----------------------------------------------------------------------
#: Last population built in this process, keyed by spec digest.  A
#: worker that executes several chunks of one job (and the parent,
#: which merges after sampling once) must not repeat the O(sessions)
#: vectorised sampling per chunk.  One entry bounds memory; sampling is
#: pure, and nothing downstream mutates the population.
_POPULATION_MEMO: tuple[str, object] | None = None


def _population_for(spec: SimulationSpec):
    """The job's population, rebuilt from its spec (worker or parent).

    Oracle-backed jobs resolve their market through the process-wide
    pool with the same experiment-scale-aware rule as
    :func:`repro.service.simulation.run_simulation`, so a worker that
    runs several chunks builds (or, with the persistent gain cache,
    replays) the oracle once — and shards digest-match the
    single-process path under every ``REPRO_*`` tier.
    """
    global _POPULATION_MEMO

    from repro.service.manager import shared_pool
    from repro.service.simulation import backing_market_spec
    from repro.simulate.population import sample_population

    digest = spec.digest()
    if _POPULATION_MEMO is not None and _POPULATION_MEMO[0] == digest:
        return _POPULATION_MEMO[1]
    oracle = None
    backing = backing_market_spec(spec)
    if backing is not None:
        oracle = shared_pool().get(backing).oracle
    population = sample_population(
        spec.population_spec(), spec.sessions, seed=spec.seed, oracle=oracle
    )
    _POPULATION_MEMO = (digest, population)
    return population


def run_simulation_chunk(spec_dict: dict, start: int, stop: int) -> dict:
    """Advance sessions ``[start, stop)`` of the job's population."""
    from repro.service.simulation import settlement_for
    from repro.simulate.pool import SessionPool

    spec = SimulationSpec.from_dict(spec_dict)
    population = _population_for(spec)
    # Secure shards rebuild the identical (seed, key_bits) keypair from
    # the spec alone, and settled payments are per-session pure, so the
    # merge below stays bit-identical to the single-process path.
    result = SessionPool(
        population, batch_size=spec.batch_size, settlement=settlement_for(spec)
    ).run(indices=np.arange(start, stop))
    payload = {"start": int(start), "stop": int(stop)}
    for name in _ARRAY_FIELDS:
        payload[name] = getattr(result, name)[start:stop].tolist()
    payload.update(
        kernel_sessions=result.kernel_sessions,
        stepped_sessions=result.stepped_sessions,
        oracle_queries=result.oracle_queries,
        queried_bundles=[list(b) for b in result.queried_bundles],
        elapsed=result.elapsed,
    )
    return payload


# ----------------------------------------------------------------------
# Merging (parent-side, deterministic)
# ----------------------------------------------------------------------
def merge_simulation_chunks(spec: SimulationSpec, results: dict[int, dict]):
    """Assemble chunk payloads into the single-process pool result.

    Returns ``(population, PoolResult, SimulationReport)`` exactly as
    :func:`repro.service.simulation.run_simulation` would have.
    """
    from repro.simulate.pool import PoolResult
    from repro.simulate.report import build_report

    population = _population_for(spec)
    n = population.n_sessions
    covered = np.zeros(n, dtype=bool)
    arrays = session_record_arrays(n)
    kernel = stepped = queries = 0
    bundles: set[tuple[int, ...]] = set()
    elapsed = 0.0
    for payload in results.values():
        start, stop = int(payload["start"]), int(payload["stop"])
        require(not covered[start:stop].any(),
                "overlapping chunk results (corrupt job store?)")
        covered[start:stop] = True
        for name in _ARRAY_FIELDS:
            dtype = arrays[name].dtype
            arrays[name][start:stop] = np.asarray(payload[name], dtype=dtype)
        kernel += int(payload["kernel_sessions"])
        stepped += int(payload["stepped_sessions"])
        queries += int(payload["oracle_queries"])
        bundles.update(tuple(b) for b in payload["queried_bundles"])
        elapsed += float(payload["elapsed"])
    require(bool(covered.all()),
            f"merge needs every session covered; missing "
            f"{int((~covered).sum())} of {n}")
    result = PoolResult(
        **arrays,
        kernel_sessions=kernel,
        stepped_sessions=stepped,
        oracle_queries=queries,
        # One shared memoisation cache would have missed exactly once
        # per distinct bundle; everything else is a hit.
        oracle_hits=queries - len(bundles),
        elapsed=elapsed,
        queried_bundles=tuple(sorted(bundles)),
    )
    report = build_report(population, result, n_bins=spec.bins)
    return population, result, report


# ----------------------------------------------------------------------
# The executors
# ----------------------------------------------------------------------
#: Job kind -> worker-side chunk runner.  A fleet agent resolves each
#: leased chunk's kind here, in its own process; job-kind validation
#: reads it too.
CHUNK_RUNNERS = {"simulation": run_simulation_chunk}


class FleetExecutor:
    """Watches the store while fleet agents drain a job's queue.

    It runs *no* chunks itself: registered workers pull, execute and
    complete them through the ``/v1/workers`` routes, while this
    executor marks the job running, keeps lease/heartbeat liveness
    swept, and merges once the queue drains.  All coordination state is
    durable, so a fresh executor over the same store file resumes
    exactly the pending chunks.

    Parameters
    ----------
    store:
        The durable :class:`JobStore` the fleet routes also serve.
    fleet:
        The :class:`~repro.fleet.manager.FleetManager` to sweep liveness
        through and wait on (defaults to a new manager over ``store``
        with default TTLs).
    stop_event:
        Optional ``threading.Event``; once set, the run stops and the
        job is left ``interrupted`` — the graceful-drain hook ``repro
        serve`` trips on SIGTERM.
    max_chunks:
        Return once this many chunks have completed in this invocation,
        leaving the job ``interrupted``/resumable (the deterministic
        mid-run stop used by tests and CI drills).
    poll:
        Longest wait between store reads: how late a stop, an expired
        lease or another process's completion is seen (a completion
        reported to ``fleet`` wakes the executor at once).

    With no live worker the run waits: the queue is valid before any
    worker has joined, and late joiners pick it up.  ``stop_event``
    ends the wait and leaves the job resumable.
    """

    def __init__(
        self,
        store: JobStore,
        *,
        fleet: FleetManager | None = None,
        stop_event: threading.Event | None = None,
        max_chunks: int | None = None,
        poll: float = 0.1,
    ) -> None:
        from repro.fleet import FleetManager

        require(poll > 0, "poll must be > 0")
        self.store = store
        self.fleet = fleet if fleet is not None else FleetManager(store)
        self.stop_event = stop_event
        self.max_chunks = max_chunks
        self.poll = float(poll)

    # ------------------------------------------------------------------
    def submit(self, spec: SimulationSpec,
               *, chunks: int | None = None) -> JobRecord:
        """Record ``spec`` as a job (without running it)."""
        if isinstance(spec, SimulationSpec):
            return submit_simulation(self.store, spec, chunks=chunks)
        raise TypeError(f"cannot submit {type(spec).__name__} as a job")

    def run(self, job_id: str) -> JobRecord:
        """Execute the job's pending chunks; merge and finish when all
        are in.  Safe to call again after any interruption — finished
        chunks are never re-run."""
        record = self.store.get(job_id)
        require(record.kind in CHUNK_RUNNERS,
                f"unknown job kind {record.kind!r}")
        if record.finished:
            return record
        pending = record.n_chunks - record.done_chunks
        self.store.set_status(job_id, "running")
        if pending:
            _CHUNK_EVENTS.inc(pending, kind=record.kind, event="queued")
        try:
            current = self._run_pending(job_id, pending)
            if current.done_chunks < current.n_chunks:
                self.store.set_status(job_id, "interrupted")
                return self.store.get(job_id)
            return self._finish(current)
        except Exception as exc:
            # A job must never be stranded in "running": chunk *and*
            # merge failures both surface through the store.
            _CHUNK_EVENTS.inc(kind=record.kind, event="failed")
            self.store.set_status(job_id, "failed", error=repr(exc))
            raise

    def _run_pending(self, job_id: str, initial: int) -> JobRecord:
        """Wait while agents drain the queue; the job's record after."""
        if not self._stopped():
            with self._agent(job_id):
                self._drain(job_id, initial)
        current = self.store.get(job_id)
        if current.status == "failed":
            # A worker reported a chunk error: surface it as this run's.
            raise RuntimeError(current.error or
                               f"job {job_id} failed on a worker")
        return current

    def _agent(self, job_id: str) -> contextlib.AbstractContextManager:
        return contextlib.nullcontext()  # joined workers pull the chunks

    def _drain(self, job_id: str, initial: int) -> None:
        """Until the queue is empty, a chunk failed, or the run stopped or
        spent its ``max_chunks``."""
        budget = initial if self.max_chunks is None else self.max_chunks
        remaining = initial
        while True:
            seen = self.fleet.reports
            current = self.store.get(job_id)
            if current.status == "failed":
                return
            remaining = min(remaining, current.n_chunks - current.done_chunks)
            if remaining == 0 or self._stopped() or initial - remaining >= budget:
                return
            if not self.fleet.wait(seen, self.poll):
                # Nothing reported: sweep liveness, so the chunks of a
                # dead or hung worker go back to the queue.
                self.fleet.expire()

    def _stopped(self) -> bool:
        return self.stop_event is not None and self.stop_event.is_set()

    def _finish(self, record: JobRecord) -> JobRecord:
        """Merge all chunk results and persist the final report."""
        from dataclasses import asdict

        spec = SimulationSpec.from_dict(record.spec)
        results = self.store.chunk_results(record.job_id)
        _, _, report = merge_simulation_chunks(spec, results)
        self.store.finish(record.job_id, asdict(report), report.digest())
        return self.store.get(record.job_id)


class ShardedExecutor(FleetExecutor):
    """Runs a stored job's pending chunks on an in-process fleet agent.

    The agent (``capacity = shards`` worker processes) leases only this
    job's chunks, through the ``/v1/workers`` routes of an in-process
    service.  Its URL, ``local://<job_id>``, makes a resume after a
    ``kill -9`` register as the dead run's worker, which frees the dead
    run's leases at once.

    Parameters
    ----------
    store:
        The durable :class:`JobStore` (progress is written through).
    shards:
        Worker processes (``0`` = all cores).
    stop_event / max_chunks:
        As on :class:`FleetExecutor`; chunks in flight when the run
        stops finish and are recorded.
    jobs:
        The :class:`~repro.service.JobService` over ``store`` whose
        routes and fleet manager the agent uses (a server's own, so its
        TTLs apply; default: a new one over ``store``).
    """

    def __init__(
        self,
        store: JobStore,
        *,
        shards: int = 2,
        stop_event: threading.Event | None = None,
        max_chunks: int | None = None,
        jobs: JobService | None = None,
    ) -> None:
        import os

        from repro.service import JobService

        require(isinstance(shards, int) and shards >= 0,
                "shards must be an int >= 0")
        self._service = jobs if jobs is not None else JobService(store)
        super().__init__(store, fleet=self._service.fleet,
                         stop_event=stop_event, max_chunks=max_chunks)
        self.shards = shards or (os.cpu_count() or 2)

    @contextlib.contextmanager
    def _agent(self, job_id: str) -> Iterator[None]:
        from repro.fleet import FleetAgent

        agent = FleetAgent(_RunClient(self._service, self.max_chunks),
                           f"local://{job_id}", capacity=self.shards,
                           job=job_id)
        agent.start()
        try:
            yield
        finally:
            agent.stop(timeout=None)


class _RunClient(MarketplaceClient):
    """A local run's in-process client: it leases nothing once
    ``budget`` chunks are delivered (``None``: no budget).  The puller
    that delivers the last one stops right there, not when the waiting
    executor wakes, so no chunk is leased after ``max_chunks``
    completions however short the chunks are."""

    def __init__(self, jobs, budget: int | None) -> None:
        super().__init__(LocalTransport(jobs=jobs))
        self._left = float("inf") if budget is None else budget
        self._lock = threading.Lock()

    def lease_chunk(self, worker_id: str, *, job: str | None = None) -> dict:
        if self._left <= 0:
            return {"lease": None}
        return super().lease_chunk(worker_id, job=job)

    def complete_chunk(self, *args, **kwargs) -> dict:
        reply = super().complete_chunk(*args, **kwargs)
        with self._lock:
            self._left -= 1
        return reply
