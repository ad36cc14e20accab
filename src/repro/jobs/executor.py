"""Sharded job execution: one population, many worker processes.

The executor partitions a job's sessions into contiguous *chunks* and
fans the chunks across ``ProcessPoolExecutor`` worker shards.  Each
worker rebuilds the job's world from its canonical spec alone — its own
market pool, its own sampled population — and advances only its chunk's
sessions, which is sound because every session draws from a private
seeded RNG stream (see :meth:`repro.simulate.pool.SessionPool.run`).

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

import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

import numpy as np

from repro import obs
from repro.jobs.store import JobRecord, JobStore
from repro.service.specs import BatchSpec, SimulationSpec
from repro.simulate.pool import session_record_arrays
from repro.utils.canonical import content_digest
from repro.utils.validation import require

__all__ = [
    "CHUNK_RUNNERS",
    "ShardedExecutor",
    "chunk_layout",
    "merge_batch_chunks",
    "merge_simulation_chunks",
    "submit_batch",
    "submit_simulation",
]

#: Chunk lifecycle telemetry: every transition a chunk makes through
#: the executor (queued at run start, running on dispatch, done on
#: durable record; failed is job-level) plus worker-reported chunk
#: runtimes.  Coordinator-side only — worker processes keep their own
#: registries, which the remote executor surfaces per worker.
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


def submit_batch(
    store: JobStore, spec: BatchSpec, *, chunks: int | None = None
) -> JobRecord:
    """Record a repeated-session batch job (idempotent per content)."""
    layout = chunk_layout(spec.runs, chunks or _default_chunks(spec.runs))
    return store.submit("batch", spec.to_dict(), layout)


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


def run_batch_chunk(spec_dict: dict, start: int, stop: int) -> dict:
    """Play runs ``[start, stop)`` of a batch job to termination."""
    from dataclasses import replace

    from repro.service.manager import SessionManager

    spec = BatchSpec.from_dict(spec_dict)
    manager = SessionManager()  # worker-local broker over the shared pool
    t0 = time.perf_counter()
    outcomes = []
    for run in range(start, stop):
        session_id = manager.open_session(replace(spec.session, run=run))
        summary = manager.run(session_id)
        outcomes.append(summary["outcome"])
        manager.close(session_id)
    return {
        "start": int(start),
        "stop": int(stop),
        "outcomes": outcomes,
        "elapsed": time.perf_counter() - t0,
    }


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


def merge_batch_chunks(spec: BatchSpec, results: dict[int, dict]) -> dict:
    """Assemble batch chunk payloads into the ordered outcome report."""
    outcomes: list[dict | None] = [None] * spec.runs
    elapsed = 0.0
    for payload in results.values():
        start = int(payload["start"])
        for offset, outcome in enumerate(payload["outcomes"]):
            require(outcomes[start + offset] is None,
                    "overlapping chunk results (corrupt job store?)")
            outcomes[start + offset] = outcome
        elapsed += float(payload["elapsed"])
    require(all(o is not None for o in outcomes),
            "merge needs every run covered")
    accepted = sum(1 for o in outcomes if o and o["status"] == "accepted")
    return {
        "runs": spec.runs,
        "accepted": accepted,
        "outcomes": outcomes,
        "elapsed": elapsed,
        "digest": content_digest(outcomes),
    }


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------
#: Job kind -> worker-side chunk runner.  Shared by the process-pool
#: executor, fleet agents (a leased chunk's kind resolves here), and
#: job-kind validation.
CHUNK_RUNNERS = {
    "simulation": run_simulation_chunk,
    "batch": run_batch_chunk,
}


class ShardedExecutor:
    """Runs a stored job's pending chunks across worker-process shards.

    Parameters
    ----------
    store:
        The durable :class:`JobStore` (progress is written through).
    shards:
        Worker processes (``0`` = all cores).
    stop_event:
        Optional ``threading.Event``; once set, no further chunks are
        dispatched (in-flight ones finish and are recorded) and the job
        is left ``interrupted`` — the graceful-drain hook ``repro
        serve`` trips on SIGTERM.
    max_chunks:
        Run at most this many chunks, then interrupt (deterministic
        mid-run stop for tests and the CI kill/resume drill).
    """

    def __init__(
        self,
        store: JobStore,
        *,
        shards: int = 2,
        stop_event: threading.Event | None = None,
        max_chunks: int | None = None,
    ) -> None:
        import os

        require(isinstance(shards, int) and shards >= 0,
                "shards must be an int >= 0")
        self.store = store
        self.shards = shards or (os.cpu_count() or 2)
        self.stop_event = stop_event
        self.max_chunks = max_chunks

    # ------------------------------------------------------------------
    def submit(self, spec: SimulationSpec | BatchSpec,
               *, chunks: int | None = None) -> JobRecord:
        """Record ``spec`` as a job (without running it)."""
        if isinstance(spec, SimulationSpec):
            return submit_simulation(self.store, spec, chunks=chunks)
        if isinstance(spec, BatchSpec):
            return submit_batch(self.store, spec, chunks=chunks)
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
        pending = self.store.pending_chunks(job_id)
        self.store.set_status(job_id, "running")
        if pending:
            _CHUNK_EVENTS.inc(len(pending), kind=record.kind, event="queued")
        try:
            interrupted = self._run_pending(job_id, record, pending)
            if interrupted:
                self.store.set_status(job_id, "interrupted")
                return self.store.get(job_id)
            return self._finish(job_id)
        except Exception as exc:
            # A job must never be stranded in "running": chunk *and*
            # merge failures both surface through the store.
            _CHUNK_EVENTS.inc(kind=record.kind, event="failed")
            self.store.set_status(job_id, "failed", error=repr(exc))
            raise

    def _run_pending(self, job_id, record, pending) -> bool:
        """Dispatch pending chunks; True if stopped before all ran."""
        runner = CHUNK_RUNNERS[record.kind]
        budget = len(pending) if self.max_chunks is None else self.max_chunks
        dispatched = 0
        with ProcessPoolExecutor(max_workers=self.shards) as pool:
            futures = {}
            queue = list(pending)
            while queue or futures:
                while (
                    queue
                    and dispatched < budget
                    and not self._stopped()
                    and len(futures) < self.shards
                ):
                    index, start, stop = queue.pop(0)
                    futures[pool.submit(runner, record.spec, start, stop)] = index
                    dispatched += 1
                    _CHUNK_EVENTS.inc(kind=record.kind, event="running")
                if not futures:
                    break
                done, _ = wait(futures, return_when=FIRST_COMPLETED)
                for future in done:
                    index = futures.pop(future)
                    payload = future.result()  # raises -> run() marks failed
                    elapsed = float(payload.get("elapsed", 0.0))
                    self.store.record_chunk(
                        job_id, index, payload, elapsed=elapsed,
                    )
                    _CHUNK_EVENTS.inc(kind=record.kind, event="done")
                    _CHUNK_SECONDS.observe(elapsed, kind=record.kind)
                if (self._stopped() or dispatched >= budget) and queue:
                    # Stop dispatching; drain what's already in flight.
                    queue.clear()
        return self.store.pending_chunks(job_id) != []

    def _stopped(self) -> bool:
        return self.stop_event is not None and self.stop_event.is_set()

    def _finish(self, job_id: str) -> JobRecord:
        """Merge all chunk results and persist the final report."""
        from dataclasses import asdict

        record = self.store.get(job_id)
        results = self.store.chunk_results(job_id)
        if record.kind == "simulation":
            spec = SimulationSpec.from_dict(record.spec)
            _, _, report = merge_simulation_chunks(spec, results)
            self.store.finish(job_id, asdict(report), report.digest())
        else:
            spec = BatchSpec.from_dict(record.spec)
            report = merge_batch_chunks(spec, results)
            self.store.finish(job_id, report, report["digest"])
        return self.store.get(job_id)
