"""Distributed simulation jobs: durable store + sharded execution.

The execution layer that turns the PR 3 service stack into a
multi-process, crash-tolerant platform:

* :class:`~repro.jobs.store.JobStore` — a durable, content-addressed
  SQLite store of submitted jobs and their chunk-level progress.  A
  killed run resumes where it stopped: finished chunks are never
  re-executed.
* :class:`~repro.jobs.executor.ShardedExecutor` — partitions a job's
  sessions across ``ProcessPoolExecutor`` worker shards, each hosting
  its own market pool, and merges the per-shard records into a result
  that is **bit-identical** to the single-process
  :class:`~repro.simulate.pool.SessionPool` path (pinned by report
  digests, for any shard count, including after a kill + resume).

Chunks leave the process only through the fleet lease queue
(:mod:`repro.fleet`): the same store, layout and merge, with joined
workers pulling the chunks.

Front doors: ``python -m repro jobs run|status|resume|list``
(``--fleet`` hands the chunks to joined workers) and the server's
``POST /v1/simulations`` / ``GET /v1/jobs/<id>`` routes.
"""

from repro.jobs.executor import (
    CHUNK_RUNNERS,
    ShardedExecutor,
    chunk_layout,
    merge_batch_chunks,
    merge_simulation_chunks,
    submit_batch,
    submit_simulation,
)
from repro.jobs.store import JobRecord, JobStore, default_store_path

__all__ = [
    "CHUNK_RUNNERS",
    "JobRecord",
    "JobStore",
    "ShardedExecutor",
    "chunk_layout",
    "default_store_path",
    "merge_batch_chunks",
    "merge_simulation_chunks",
    "submit_batch",
    "submit_simulation",
]
