"""The durable job store: submitted specs, chunk progress, results.

One SQLite file records every job the platform has accepted: the
canonical spec, the immutable chunk layout, each chunk's result as it
lands, and the merged report once all chunks are in.  Everything is
written through at the moment it happens, so a ``kill -9`` mid-sweep
loses at most the chunks that were still in flight — ``resume`` re-runs
exactly the pending ones and merges a bit-identical report.

Job ids are **content-addressed** (the shared
:mod:`repro.utils.canonical` digest over ``kind + spec + chunk
layout``), so resubmitting the same job is idempotent: the second
submit finds the first's record — finished chunks and all — instead of
starting a duplicate sweep.

Chunk results may carry NaN (failed sessions' ``delta_g``); they are
stored via :func:`repro.utils.canonical.stable_json` — sorted keys
plus Python's JSON NaN extension, which :func:`json.loads` round-trips
exactly.  Wire-facing callers sanitise with
:func:`repro.utils.canonical.json_safe`.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from contextlib import contextmanager
from dataclasses import dataclass

from repro.utils.canonical import canonical_json, content_digest, stable_json
from repro.utils.validation import require

__all__ = ["JobRecord", "JobStore", "default_store_path"]

#: Job lifecycle: ``submitted`` (chunks pending, nothing running),
#: ``running`` (an executor owns it), ``interrupted`` (an executor
#: stopped early — drain, crash, or operator stop), ``done``,
#: ``failed``.  ``resume`` accepts anything that is not ``done``.
_STATUSES = ("submitted", "running", "interrupted", "done", "failed")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    job_id     TEXT PRIMARY KEY,
    kind       TEXT NOT NULL,
    spec       TEXT NOT NULL,
    chunks     TEXT NOT NULL,
    status     TEXT NOT NULL,
    created_at REAL NOT NULL,
    updated_at REAL NOT NULL,
    report     TEXT,
    digest     TEXT,
    error      TEXT
);
CREATE TABLE IF NOT EXISTS chunks (
    job_id      TEXT NOT NULL,
    chunk_index INTEGER NOT NULL,
    status      TEXT NOT NULL,
    result      TEXT,
    elapsed     REAL,
    updated_at  REAL NOT NULL,
    PRIMARY KEY (job_id, chunk_index)
);
CREATE TABLE IF NOT EXISTS workers (
    worker_id      TEXT PRIMARY KEY,
    url            TEXT NOT NULL,
    capacity       INTEGER NOT NULL,
    labels         TEXT NOT NULL,
    status         TEXT NOT NULL,
    registered_at  REAL NOT NULL,
    last_heartbeat REAL NOT NULL,
    load           TEXT
);
CREATE TABLE IF NOT EXISTS leases (
    job_id      TEXT NOT NULL,
    chunk_index INTEGER NOT NULL,
    worker_id   TEXT NOT NULL,
    granted_at  REAL NOT NULL,
    deadline    REAL NOT NULL,
    status      TEXT NOT NULL,
    PRIMARY KEY (job_id, chunk_index)
);
"""

#: Worker lifecycle as the coordinator sees it: ``live`` (heartbeat
#: within the TTL), ``lost`` (heartbeat watermark went stale — its
#: leases are re-queued), ``left`` (deregistered gracefully).
_WORKER_STATUSES = ("live", "lost", "left")

# Lease lifecycle (``leases.status``): ``active`` (a worker owns the
# chunk until the deadline), ``done`` (result recorded), ``expired``
# (deadline passed or holder lost, so the chunk went back to the queue;
# or the holder reported that the chunk raised, failing the job).


def default_store_path() -> str:
    """``$REPRO_JOB_STORE`` or ``~/.cache/repro/jobs.sqlite3``."""
    env = os.environ.get("REPRO_JOB_STORE")
    if env:
        return env
    return os.path.join(
        os.path.expanduser("~"), ".cache", "repro", "jobs.sqlite3"
    )


def _wall_now() -> float:
    """The ``created_at``/``updated_at`` row clock.

    These columns are operational metadata — when a row last moved, for
    ``jobs list`` and staleness display.  They never reach a job id,
    chunk result, report or digest, so the wall clock is the right
    clock here (a monotonic clock would be meaningless across
    processes).
    """
    return time.time()  # lint: allow[DET002] row timestamps are operational metadata, never digested


@dataclass(frozen=True)
class JobRecord:
    """One job's durable state (a row of the ``jobs`` table, decoded)."""

    job_id: str
    kind: str
    spec: dict
    chunks: tuple[tuple[int, int], ...]
    status: str
    created_at: float
    updated_at: float
    report: dict | None
    digest: str | None
    error: str | None
    done_chunks: int

    @property
    def n_chunks(self) -> int:
        return len(self.chunks)

    @property
    def finished(self) -> bool:
        return self.status == "done"

    def progress(self) -> dict:
        """Wire-facing progress summary."""
        payload = {
            "job": self.job_id,
            "kind": self.kind,
            "status": self.status,
            "chunks": self.n_chunks,
            "chunks_done": self.done_chunks,
        }
        if self.digest is not None:
            payload["digest"] = self.digest
        if self.error is not None:
            payload["error"] = self.error
        return payload


class JobStore:
    """Durable, content-addressed store of jobs and chunk results.

    Every method is one transaction on its own short-lived connection
    (SQLite serialises writers itself, within and across processes), so
    one store instance is safe to share between the server's request
    threads and a job's executor thread — and a second process pointed
    at the same file sees the same jobs, which is what ``repro jobs
    resume`` relies on after a crash.  A fleet request is one such
    method: the liveness sweep and the worker check run inside the
    write they guard.
    """

    def __init__(self, path: str):
        require(bool(path), "JobStore needs a file path (durability is the point)")
        self.path = str(path)
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        with self._connect() as conn:
            conn.executescript(_SCHEMA)

    @contextmanager
    def _connect(self, *, immediate: bool = False):
        conn = sqlite3.connect(self.path, timeout=30.0)
        try:
            if immediate:
                # Lock before the first read: sqlite3 begins its own
                # transaction only at the first write, and reads before
                # it can act on a state a racing writer has moved (two
                # pullers leasing one chunk, two completions both first).
                conn.execute("BEGIN IMMEDIATE")
            yield conn
            conn.commit()
        finally:
            conn.close()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    @staticmethod
    def job_id_for(
        kind: str, spec: dict, chunks: list[tuple[int, int]]
    ) -> str:
        """The content-addressed id of a job (kind + spec + layout)."""
        return "j" + content_digest(
            {"kind": kind, "spec": spec, "chunks": [list(c) for c in chunks]}
        )

    def submit(
        self, kind: str, spec: dict, chunks: list[tuple[int, int]]
    ) -> JobRecord:
        """Record a job (idempotent: same content → same record)."""
        require(bool(chunks), "a job needs at least one chunk")
        job_id = self.job_id_for(kind, spec, chunks)
        now = _wall_now()
        with self._connect() as conn:
            conn.execute(
                "INSERT OR IGNORE INTO jobs "
                "(job_id, kind, spec, chunks, status, created_at, updated_at) "
                "VALUES (?, ?, ?, ?, 'submitted', ?, ?)",
                (
                    job_id,
                    kind,
                    canonical_json(spec),
                    canonical_json([list(c) for c in chunks]),
                    now,
                    now,
                ),
            )
            conn.executemany(
                "INSERT OR IGNORE INTO chunks "
                "(job_id, chunk_index, status, updated_at) "
                "VALUES (?, ?, 'pending', ?)",
                [(job_id, index, now) for index in range(len(chunks))],
            )
        return self.get(job_id)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    _RECORD_QUERY = (
        "SELECT j.job_id, j.kind, j.spec, j.chunks, j.status, j.created_at, "
        "j.updated_at, j.report, j.digest, j.error, "
        "(SELECT COUNT(*) FROM chunks c "
        " WHERE c.job_id = j.job_id AND c.status = 'done') "
        "FROM jobs j"
    )

    @staticmethod
    def _record(row: tuple) -> JobRecord:
        return JobRecord(
            job_id=row[0],
            kind=row[1],
            spec=json.loads(row[2]),
            chunks=tuple(tuple(c) for c in json.loads(row[3])),
            status=row[4],
            created_at=row[5],
            updated_at=row[6],
            report=json.loads(row[7]) if row[7] is not None else None,
            digest=row[8],
            error=row[9],
            done_chunks=int(row[10]),
        )

    def get(self, job_id: str) -> JobRecord:
        """The job's current record; ``KeyError`` if unknown."""
        with self._connect() as conn:
            row = conn.execute(
                f"{self._RECORD_QUERY} WHERE j.job_id = ?", (job_id,)
            ).fetchone()
        if row is None:
            raise KeyError(f"unknown job {job_id!r}")
        return self._record(row)

    def jobs(self) -> list[JobRecord]:
        """Every recorded job, newest first (one query, one connection)."""
        with self._connect() as conn:
            rows = conn.execute(
                f"{self._RECORD_QUERY} ORDER BY j.created_at DESC"
            ).fetchall()
        return [self._record(row) for row in rows]

    def list_jobs(
        self, *, limit: int | None = None, after: str | None = None
    ) -> list[JobRecord]:
        """One page of jobs in deterministic ascending job-id order.

        ``after`` is an exclusive cursor (the last job id of the
        previous page), so listing stays O(page) however large the
        store grows: the query walks the primary-key index, never the
        whole table.  Job ids are content-addressed, which makes the
        order stable across processes and restarts.
        """
        require(limit is None or limit >= 1, "limit must be >= 1")
        clauses, args = [], []
        if after is not None:
            clauses.append("WHERE j.job_id > ?")
            args.append(str(after))
        clauses.append("ORDER BY j.job_id ASC")
        if limit is not None:
            clauses.append("LIMIT ?")
            args.append(int(limit))
        with self._connect() as conn:
            rows = conn.execute(
                " ".join([self._RECORD_QUERY, *clauses]), args
            ).fetchall()
        return [self._record(row) for row in rows]

    def pending_chunks(self, job_id: str) -> list[tuple[int, int, int]]:
        """``(chunk_index, start, stop)`` of every not-yet-done chunk."""
        record = self.get(job_id)
        with self._connect() as conn:
            pending = {
                row[0]
                for row in conn.execute(
                    "SELECT chunk_index FROM chunks "
                    "WHERE job_id = ? AND status != 'done'",
                    (job_id,),
                )
            }
        return [
            (index, start, stop)
            for index, (start, stop) in enumerate(record.chunks)
            if index in pending
        ]

    def chunk_results(self, job_id: str) -> dict[int, dict]:
        """Decoded results of every finished chunk; ``KeyError`` if the
        job is unknown."""
        with self._connect() as conn:
            if conn.execute(
                "SELECT 1 FROM jobs WHERE job_id = ?", (job_id,)
            ).fetchone() is None:
                raise KeyError(f"unknown job {job_id!r}")
            rows = conn.execute(
                "SELECT chunk_index, result FROM chunks "
                "WHERE job_id = ? AND status = 'done'",
                (job_id,),
            ).fetchall()
        return {int(index): json.loads(result) for index, result in rows}

    # ------------------------------------------------------------------
    # Writes (each durable the moment it returns)
    # ------------------------------------------------------------------
    def record_chunk(
        self, job_id: str, chunk_index: int, result: dict, *, elapsed: float = 0.0
    ) -> None:
        """Persist one finished chunk's result."""
        with self._connect() as conn:
            updated = conn.execute(
                "UPDATE chunks SET status = 'done', result = ?, elapsed = ?, "
                "updated_at = ? WHERE job_id = ? AND chunk_index = ?",
                (stable_json(result), float(elapsed), _wall_now(),
                 job_id, int(chunk_index)),
            ).rowcount
            require(
                updated == 1,
                f"job {job_id!r} has no chunk {chunk_index!r}",
            )

    def set_status(self, job_id: str, status: str, *, error: str | None = None) -> None:
        """Move a job through its lifecycle."""
        require(status in _STATUSES, f"status must be one of {_STATUSES}")
        with self._connect() as conn:
            updated = conn.execute(
                "UPDATE jobs SET status = ?, error = ?, updated_at = ? "
                "WHERE job_id = ?",
                (status, error, _wall_now(), job_id),
            ).rowcount
            require(updated == 1, f"unknown job {job_id!r}")

    def finish(self, job_id: str, report: dict, digest: str) -> None:
        """Record the merged report and mark the job done."""
        with self._connect() as conn:
            updated = conn.execute(
                "UPDATE jobs SET status = 'done', report = ?, digest = ?, "
                "error = NULL, updated_at = ? WHERE job_id = ?",
                (stable_json(report), digest, _wall_now(), job_id),
            ).rowcount
            require(updated == 1, f"unknown job {job_id!r}")

    # ------------------------------------------------------------------
    # Fleet state: workers, leases, heartbeat watermarks
    # ------------------------------------------------------------------
    # The elastic fleet (src/repro/fleet/) keeps its state in the same
    # durable file as the jobs it serves, so a kill -9'd coordinator
    # restarts with its workers and in-flight leases intact and
    # re-adopts live workers from their next heartbeat.  Timestamps
    # here are operational metadata exactly like the row clocks above:
    # they bound lease/heartbeat lifetimes and never reach a digest.
    # Each fleet write is one ``immediate`` transaction; writes that move
    # membership return the worker counts read in it (``workers``).

    #: The lease queue: pending chunks of submitted/running jobs that
    #: carry no active lease.
    _QUEUE = (
        "FROM chunks c JOIN jobs j ON j.job_id = c.job_id "
        "WHERE c.status != 'done' AND j.status IN ('submitted', 'running') "
        "AND NOT EXISTS (SELECT 1 FROM leases l WHERE l.job_id = c.job_id "
        "AND l.chunk_index = c.chunk_index AND l.status = 'active')"
    )

    @staticmethod
    def _worker(conn, worker_id: str) -> dict:
        row = conn.execute(
            "SELECT worker_id, url, capacity, labels, status, "
            "registered_at, last_heartbeat, load FROM workers "
            "WHERE worker_id = ?",
            (worker_id,),
        ).fetchone()
        if row is None:
            raise KeyError(f"unknown worker {worker_id!r}")
        return JobStore._worker_row(row)

    @staticmethod
    def _worker_counts(conn) -> dict[str, int]:
        counts = dict.fromkeys(_WORKER_STATUSES, 0)
        counts.update(conn.execute(
            "SELECT status, COUNT(*) FROM workers GROUP BY status"))
        return counts

    @staticmethod
    def _release(conn, worker_id: str) -> int:
        """Expire one worker's active leases; how many there were."""
        return conn.execute(
            "UPDATE leases SET status = 'expired' "
            "WHERE worker_id = ? AND status = 'active'",
            (worker_id,),
        ).rowcount

    def _sweep(self, conn, heartbeat_ttl: float) -> dict:
        """Live workers with stale heartbeats become ``lost`` (a later
        heartbeat re-adopts them); their active leases and every
        overdue one expire, so those chunks are stealable at once."""
        now = _wall_now()
        lost = [row[0] for row in conn.execute(
            "SELECT worker_id FROM workers "
            "WHERE status = 'live' AND last_heartbeat < ? "
            "ORDER BY worker_id ASC",
            (now - float(heartbeat_ttl),),
        )]
        expired = conn.execute(
            "SELECT job_id, chunk_index, worker_id FROM leases "
            "WHERE status = 'active' AND (deadline < ? "
            f"OR worker_id IN ({', '.join('?' * len(lost))})) "
            "ORDER BY job_id ASC, chunk_index ASC",
            (now, *lost),
        ).fetchall()
        conn.executemany(
            "UPDATE workers SET status = 'lost' WHERE worker_id = ?",
            [(worker_id,) for worker_id in lost],
        )
        conn.executemany(
            "UPDATE leases SET status = 'expired' "
            "WHERE job_id = ? AND chunk_index = ?",
            [row[:2] for row in expired],
        )
        return {
            "lost": lost,
            "expired": [{"job": row[0], "chunk": int(row[1]),
                         "worker": row[2]} for row in expired],
            "workers": self._worker_counts(conn) if lost else None,
        }

    def sweep(self, heartbeat_ttl: float) -> dict:
        """One liveness sweep: ``{lost, expired, workers}``."""
        with self._connect(immediate=True) as conn:
            return self._sweep(conn, heartbeat_ttl)

    def register_worker(
        self, worker_id: str, url: str, capacity: int,
        labels: dict | None = None,
    ) -> dict:
        """Upsert a worker row (idempotent; re-registration re-adopts).

        Returns the stored row plus ``workers`` and ``adopted``: True
        when the row already existed — a worker re-announcing itself
        after a restart on either side keeps its identity and its lease
        history.  A worker registers once per life, so the row's active
        leases are a dead predecessor's: they expire at once
        (``released`` counts them).
        """
        require(capacity >= 1, "worker capacity must be >= 1")
        now = _wall_now()
        with self._connect(immediate=True) as conn:
            existing = conn.execute(
                "SELECT 1 FROM workers WHERE worker_id = ?", (worker_id,)
            ).fetchone()
            released = self._release(conn, worker_id)
            conn.execute(
                "INSERT INTO workers (worker_id, url, capacity, labels, "
                "status, registered_at, last_heartbeat, load) "
                "VALUES (?, ?, ?, ?, 'live', ?, ?, NULL) "
                "ON CONFLICT(worker_id) DO UPDATE SET url = excluded.url, "
                "capacity = excluded.capacity, labels = excluded.labels, "
                "status = 'live', last_heartbeat = excluded.last_heartbeat",
                (worker_id, url, int(capacity),
                 canonical_json(labels or {}), now, now),
            )
            return {**self._worker(conn, worker_id),
                    "workers": self._worker_counts(conn),
                    "adopted": existing is not None, "released": released}

    def worker(self, worker_id: str) -> dict:
        """One worker's stored row; ``KeyError`` if unknown."""
        with self._connect() as conn:
            return self._worker(conn, worker_id)

    @staticmethod
    def _worker_row(row: tuple) -> dict:
        return {
            "worker": row[0],
            "url": row[1],
            "capacity": int(row[2]),
            "labels": json.loads(row[3]),
            "status": row[4],
            "registered_at": float(row[5]),
            "last_heartbeat": float(row[6]),
            "load": json.loads(row[7]) if row[7] is not None else None,
        }

    def workers(self) -> list[dict]:
        """Every registered worker, in deterministic worker-id order."""
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT worker_id, url, capacity, labels, status, "
                "registered_at, last_heartbeat, load FROM workers "
                "ORDER BY worker_id ASC"
            ).fetchall()
        return [self._worker_row(row) for row in rows]

    def heartbeat_worker(
        self, worker_id: str, load: dict | None, heartbeat_ttl: float
    ) -> dict:
        """Sweep, then record a heartbeat; ``KeyError`` tells the agent
        to re-register.  Returns the sweep's fields plus ``lag`` (wall
        time since the previous watermark) and ``adopted``: True when
        this heartbeat revived a worker the coordinator did not have
        live — the crash-adoption path after a coordinator restart.
        """
        with self._connect(immediate=True) as conn:
            row = self._worker(conn, worker_id)
            swept = self._sweep(conn, heartbeat_ttl)
            now = _wall_now()
            conn.execute(
                "UPDATE workers SET status = 'live', last_heartbeat = ?, "
                "load = ? WHERE worker_id = ?",
                (now, stable_json(load) if load is not None else None,
                 worker_id),
            )
            adopted = row["status"] != "live" or worker_id in swept["lost"]
            if adopted:
                swept["workers"] = self._worker_counts(conn)
        return {**swept, "adopted": adopted,
                "lag": max(0.0, now - row["last_heartbeat"])}

    def deregister_worker(self, worker_id: str) -> dict:
        """Mark a worker ``left`` and expire its active leases:
        ``{left, workers}`` (``left`` is False for an unknown worker or
        one that had already left)."""
        with self._connect(immediate=True) as conn:
            left = conn.execute(
                "UPDATE workers SET status = 'left', last_heartbeat = ? "
                "WHERE worker_id = ? AND status != 'left'",
                (_wall_now(), worker_id),
            ).rowcount == 1
            self._release(conn, worker_id)
            return {"left": left,
                    "workers": self._worker_counts(conn) if left else None}

    def grant_lease(self, worker_id: str, lease_ttl: float,
                    heartbeat_ttl: float, job_id: str | None = None) -> dict:
        """Check the worker (``KeyError`` if unknown), sweep, then lease
        the first chunk of the queue (``job_id, chunk_index`` order; of
        ``job_id`` only, if given), all in one transaction.

        Returns the sweep's fields and ``lease``: the work order —
        ``{job, chunk, start, stop, kind, spec, deadline, stolen_from}``
        — or ``None`` when the queue is empty.  ``stolen_from`` names
        the previous (expired) holder when this grant re-queues another
        worker's chunk: a steal.
        """
        with self._connect(immediate=True) as conn:
            self._worker(conn, worker_id)
            swept = self._sweep(conn, heartbeat_ttl)
            scope = "" if job_id is None else "AND c.job_id = ? "
            row = conn.execute(
                "SELECT c.job_id, c.chunk_index, j.kind, j.spec, j.chunks "
                f"{self._QUEUE} {scope}"
                "ORDER BY c.job_id ASC, c.chunk_index ASC LIMIT 1",
                () if job_id is None else (job_id,),
            ).fetchone()
            if row is None:
                return {**swept, "lease": None}
            job_id, chunk_index, kind, spec, chunks = row
            previous = conn.execute(
                "SELECT worker_id FROM leases "
                "WHERE job_id = ? AND chunk_index = ? AND status = 'expired'",
                (job_id, chunk_index),
            ).fetchone()
            now = _wall_now()
            deadline = now + float(lease_ttl)
            conn.execute(
                "INSERT INTO leases (job_id, chunk_index, worker_id, "
                "granted_at, deadline, status) VALUES (?, ?, ?, ?, ?, "
                "'active') ON CONFLICT(job_id, chunk_index) DO UPDATE SET "
                "worker_id = excluded.worker_id, "
                "granted_at = excluded.granted_at, "
                "deadline = excluded.deadline, status = 'active'",
                (job_id, int(chunk_index), worker_id, now, deadline),
            )
        start, stop = json.loads(chunks)[int(chunk_index)]
        stolen_from = previous[0] if (
            previous is not None and previous[0] != worker_id
        ) else None
        return {**swept, "lease": {
            "job": job_id,
            "chunk": int(chunk_index),
            "start": int(start),
            "stop": int(stop),
            "kind": kind,
            "spec": json.loads(spec),
            "deadline": deadline,
            "stolen_from": stolen_from,
        }}

    def complete_lease(
        self, worker_id: str, job_id: str, chunk_index: int,
        result: dict, *, elapsed: float = 0.0,
    ) -> bool:
        """Record a leased chunk's result; True if it was the first.

        Only the first completion writes: the stored result, its
        ``elapsed`` and the lease row (marked ``done``, naming the
        completer) stay as it left them.  A duplicate completion — the
        original holder finishing after its lease was stolen — changes
        nothing and is reported (not raised) for the steal metrics.
        ``KeyError`` for an unknown worker or chunk.
        """
        with self._connect(immediate=True) as conn:
            self._worker(conn, worker_id)
            row = conn.execute(
                "SELECT status FROM chunks "
                "WHERE job_id = ? AND chunk_index = ?",
                (job_id, int(chunk_index)),
            ).fetchone()
            if row is None:
                raise KeyError(f"job {job_id!r} has no chunk {chunk_index!r}")
            if row[0] == "done":
                return False
            conn.execute(
                "UPDATE chunks SET status = 'done', result = ?, elapsed = ?, "
                "updated_at = ? WHERE job_id = ? AND chunk_index = ?",
                (stable_json(result), float(elapsed), _wall_now(),
                 job_id, int(chunk_index)),
            )
            conn.execute(
                "UPDATE leases SET status = 'done', worker_id = ? "
                "WHERE job_id = ? AND chunk_index = ?",
                (worker_id, job_id, int(chunk_index)),
            )
        return True

    def fail_lease(
        self, worker_id: str, job_id: str, chunk_index: int, error: str
    ) -> bool:
        """Fail the job over a chunk that raised; True if it counted.

        The report counts only while ``worker_id`` still holds the
        chunk's active lease and the chunk is not done.  Otherwise it
        is stale — its lease expired and the chunk was re-leased or
        completed elsewhere — and nothing changes.  Expiring the lease
        and failing the job is one transaction, so no completion can
        land in between.  ``KeyError`` for an unknown worker.
        """
        with self._connect(immediate=True) as conn:
            self._worker(conn, worker_id)
            held = conn.execute(
                "UPDATE leases SET status = 'expired' "
                "WHERE job_id = ? AND chunk_index = ? AND worker_id = ? "
                "AND status = 'active' "
                "AND NOT EXISTS (SELECT 1 FROM chunks c "
                "  WHERE c.job_id = leases.job_id "
                "  AND c.chunk_index = leases.chunk_index "
                "  AND c.status = 'done')",
                (job_id, int(chunk_index), worker_id),
            ).rowcount
            if held:
                conn.execute(
                    "UPDATE jobs SET status = 'failed', error = ?, "
                    "updated_at = ? WHERE job_id = ?",
                    (error, _wall_now(), job_id),
                )
        return bool(held)

    def leases(self, *, active_only: bool = False) -> list[dict]:
        """Lease rows in deterministic order (fleet status display)."""
        clause = " WHERE status = 'active'" if active_only else ""
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT job_id, chunk_index, worker_id, granted_at, "
                f"deadline, status FROM leases{clause} "
                "ORDER BY job_id ASC, chunk_index ASC"
            ).fetchall()
        return [
            {
                "job": row[0],
                "chunk": int(row[1]),
                "worker": row[2],
                "granted_at": float(row[3]),
                "deadline": float(row[4]),
                "status": row[5],
            }
            for row in rows
        ]

    def queue_depth(self) -> int:
        """Pending chunks of submitted/running jobs with no active lease."""
        with self._connect() as conn:
            row = conn.execute(f"SELECT COUNT(*) {self._QUEUE}").fetchone()
        return int(row[0])
