"""The versioned ``/v1`` wire protocol, independent of any transport.

Every front door of the marketplace — the asyncio HTTP server
(:mod:`repro.service.async_server`), the in-process
:class:`~repro.client.local.LocalTransport`, and the generated wire
reference (``docs/API.md``) — dispatches through the one route table
defined here.  A route is data: method, path template, handler, success
status, and the request/response documentation that
:mod:`repro.service.docs` renders, so the served protocol and its
documentation cannot drift apart.

Protocol invariants (the contract the client SDK builds on):

* every response body is JSON; errors are a single typed envelope
  ``{"error": {"code": <slug>, "message": <human>, "detail": <extra>}}``
  with correct status semantics — 400 for malformed bodies/specs, 404
  for unknown session/job ids (on *every* method), 405 for a known
  path with the wrong method, 409 for state conflicts, 429 for
  capacity, 5xx for handler bugs;
* streaming routes (``GET /v1/jobs/{job_id}/events``) yield JSON-lines
  (one object per line) instead of a single document;
* every route lives under ``/v1``; an unversioned path is just another
  unknown route (404 ``not_found``).

:class:`JobService` also lives here: background execution of durable
simulation jobs is part of the service core, not of the HTTP glue.
"""

from __future__ import annotations

import re
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro import obs
from repro.service.manager import (
    SessionConflictError,
    SessionLimitError,
    SessionManager,
)
from repro.service.specs import MarketSpec, SessionSpec, SimulationSpec
from repro.utils.canonical import json_safe

__all__ = [
    "ApiError",
    "ApiReply",
    "ERROR_CODES",
    "JobService",
    "METRICS_CONTENT_TYPE",
    "ROUTES",
    "Route",
    "ServiceContext",
    "dispatch",
    "service_capacity",
    "service_load",
]

API_VERSION = "v1"

#: Content type of the Prometheus text exposition format.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Per-route request accounting, recorded at the dispatch chokepoint so
#: every transport (asyncio HTTP, LocalTransport) feeds the same
#: families.  The route label is the matched *template*
#: (`/v1/sessions/{session_id}`), never the raw path, so cardinality
#: stays bounded.
_REQUESTS = obs.REGISTRY.counter(
    "repro_requests_total",
    "Requests dispatched through the /v1 route table.",
    ("method", "route", "status"),
)
_REQUEST_LATENCY = obs.REGISTRY.histogram(
    "repro_request_duration_seconds",
    "Dispatch latency per route (monotonic, seconds).",
    ("method", "route"),
)

#: Job chunks currently executing in this process — fed by the worker
#: protocol (`POST /v1/chunks`), the fleet agent's pullers, and read
#: back by ``GET /v1/healthz``'s ``load`` field, so heartbeats and
#: external probes report the same number by construction.
_RUNNING_CHUNKS = obs.REGISTRY.gauge(
    "repro_job_chunks_running",
    "Job chunks currently executing in this process.",
)

#: Terminal job statuses: the event stream ends when one is reached.
_TERMINAL = ("done", "failed", "interrupted")

#: Every error code the protocol can put in an envelope, with the HTTP
#: status it rides on — rendered into docs/API.md verbatim.
ERROR_CODES = {
    "invalid_request": (400, "malformed JSON body, unknown spec field, or a "
                             "value that fails spec validation"),
    "not_found": (404, "unknown session id, job id, or route (uniform "
                       "across GET/POST/PUT/DELETE)"),
    "method_not_allowed": (405, "the path exists but not for this method"),
    "conflict": (409, "state conflict, e.g. restoring a checkpoint under a "
                      "session id that is already resident"),
    "length_required": (411, "the request carries a body without a valid "
                             "Content-Length (chunked uploads are not "
                             "accepted)"),
    "payload_too_large": (413, "the declared Content-Length exceeds the "
                               "server's body cap"),
    "capacity": (429, "the resident-session limit is reached; close or "
                      "evict sessions first"),
    "internal": (500, "unexpected server-side failure (a bug; the message "
                      "carries the exception)"),
    "draining": (503, "the server is shutting down; the reply carries "
                      "`Retry-After` and closes the connection"),
}


class ApiError(Exception):
    """A protocol-level error that serialises to the typed envelope."""

    def __init__(self, status: int, code: str, message: str,
                 detail: object = None):
        super().__init__(message)
        self.status = int(status)
        self.code = code
        self.message = message
        self.detail = detail

    def envelope(self) -> dict:
        return error_envelope(self.code, self.message, self.detail)


def error_envelope(code: str, message: str, detail: object = None) -> dict:
    """The single error shape every non-2xx response carries."""
    return {"error": {"code": code, "message": message, "detail": detail}}


@dataclass(frozen=True)
class ApiReply:
    """One dispatched response: payload (or line iterator), status, headers."""

    payload: object
    status: int = 200
    headers: dict = field(default_factory=dict)
    streaming: bool = False


@dataclass
class ServiceContext:
    """Everything a route handler may touch: the broker and the jobs."""

    manager: SessionManager
    jobs: "JobService"


# ----------------------------------------------------------------------
# Background job execution (durable store + sharded executor)
# ----------------------------------------------------------------------
class JobService:
    """Background execution of simulation jobs behind the service API.

    Jobs are durable (the :class:`~repro.jobs.store.JobStore`) and run
    on daemon threads over the sharded executor; submitting the same
    spec twice attaches to the standing job instead of duplicating it.
    ``drain()`` is the graceful-shutdown hook: no further chunks are
    dispatched, in-flight chunks flush to the store, and interrupted
    jobs resume later via ``repro jobs resume`` (or ``POST
    /v1/jobs/{job_id}/resume``).
    """

    def __init__(self, store=None, *, shards: int = 2,
                 lease_ttl: float = 60.0, heartbeat_ttl: float = 15.0):
        self._store = store
        self.shards = shards
        self.lease_ttl = float(lease_ttl)
        self.heartbeat_ttl = float(heartbeat_ttl)
        self.stop_event = threading.Event()
        self._threads: dict[str, threading.Thread] = {}
        self._lock = threading.Lock()
        # Lazy-init guard for `store` only — deliberately NOT self._lock,
        # so the property stays safe to call from code holding the
        # service lock (every handler touches self._lock).
        self._store_lock = threading.Lock()
        self._fleet = None
        self._fleet_lock = threading.Lock()

    @property
    def store(self):
        with self._store_lock:
            if self._store is None:
                from repro.jobs import JobStore, default_store_path

                self._store = JobStore(default_store_path())
            return self._store

    @property
    def fleet(self):
        """The lazily-built fleet manager over this service's store."""
        store = self.store  # resolve outside _fleet_lock (own lock)
        with self._fleet_lock:
            if self._fleet is None:
                # Import via the package, never a submodule: concurrent
                # handler threads otherwise lock a child module while
                # the package __init__ (held by a sibling thread) waits
                # for it — CPython breaks that tie by letting one thread
                # see a partially initialized module.
                from repro.fleet import FleetManager

                self._fleet = FleetManager(
                    store,
                    lease_ttl=self.lease_ttl,
                    heartbeat_ttl=self.heartbeat_ttl,
                )
            return self._fleet

    # ------------------------------------------------------------------
    def _executor(self, shards: int | None = None, *, fleet: bool = False):
        if fleet:
            from repro.fleet import FleetExecutor  # package: see `fleet`

            return FleetExecutor(
                self.store, fleet=self.fleet, stop_event=self.stop_event
            )
        from repro.jobs import ShardedExecutor

        if shards is None:
            shards = self.shards
        return ShardedExecutor(
            self.store, shards=int(shards), stop_event=self.stop_event
        )

    def submit(self, payload: dict) -> dict:
        """Record the job and (re)start its background execution."""
        body = dict(payload)
        chunks = body.pop("chunks", None)
        # Explicit None check: shards=0 is a valid request ("all cores")
        # and must not fall back to the server default.
        shards = body.pop("shards", None)
        # fleet=true runs the job through the lease queue: registered
        # workers pull its chunks instead of this process forking shards.
        fleet = bool(body.pop("fleet", False))
        spec = SimulationSpec.from_dict(body)
        executor = self._executor(shards, fleet=fleet)
        record = executor.submit(spec, chunks=chunks)
        started = self._start(record.job_id, executor)
        reply = self.status(record.job_id)
        reply["started"] = started
        return reply

    def resume(self, job_id: str, *, shards: int | None = None,
               fleet: bool = False) -> dict:
        """Restart a recorded job's pending chunks (no-op when done)."""
        self.store.get(job_id)  # KeyError -> 404
        started = self._start(job_id, self._executor(shards, fleet=fleet))
        reply = self.status(job_id)
        reply["started"] = started
        return reply

    def _start(self, job_id: str, executor) -> bool:
        def work() -> None:
            try:
                executor.run(job_id)
            except Exception:  # recorded as `failed` in the store
                pass

        # Check-and-register under one lock acquisition: two concurrent
        # submits of the same (content-addressed) job must start exactly
        # one worker thread, not race past each other's liveness check.
        store = self.store
        with self._lock:
            thread = self._threads.get(job_id)
            if thread is not None and thread.is_alive():
                return False
            if store.get(job_id).finished or self.stop_event.is_set():
                return False
            # Flip the status before the thread exists: a caller that
            # follows the job right after this reply must not take a
            # resumed job's old `interrupted` status for its end.
            store.set_status(job_id, "running")
            thread = threading.Thread(
                target=work, name=f"job-{job_id}", daemon=True
            )
            self._threads[job_id] = thread
        thread.start()
        return True

    # ------------------------------------------------------------------
    def status(self, job_id: str) -> dict:
        """One job's progress (plus its report once finished)."""
        record = self.store.get(job_id)  # KeyError -> 404
        payload = record.progress()
        if record.report is not None:
            payload["report"] = json_safe(record.report)
        return payload

    def jobs(self) -> list[dict]:
        return [record.progress() for record in self.store.jobs()]

    def page(self, *, limit: int = 100, after: str | None = None) -> dict:
        """One page of job listings, ordered by job id (deterministic).

        The cursor protocol behind ``GET /v1/jobs?limit=&after=``:
        ``next`` carries the cursor for the following page, or ``None``
        on the last one.  O(page), not O(store) — the store pages on
        its primary key.
        """
        records = self.store.list_jobs(limit=limit, after=after)
        next_cursor = records[-1].job_id if len(records) == limit else None
        return {
            "jobs": [record.progress() for record in records],
            "count": len(records),
            "next": next_cursor,
        }

    def active_jobs(self) -> int:
        with self._lock:
            return sum(1 for t in self._threads.values() if t.is_alive())

    def drain(self, timeout: float = 30.0) -> None:
        """Stop dispatching chunks and wait for in-flight ones to flush."""
        self.stop_event.set()
        with self._lock:
            threads = list(self._threads.values())
        deadline = time.monotonic() + timeout
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))


# ----------------------------------------------------------------------
# Query-parameter coercion (everything arrives as strings)
# ----------------------------------------------------------------------
def _int_query(query: dict, name: str, default: int,
               lo: int | None = None, hi: int | None = None) -> int:
    raw = query.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except (TypeError, ValueError):
        raise ApiError(400, "invalid_request",
                       f"query parameter {name!r} must be an int, "
                       f"got {raw!r}") from None
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        raise ApiError(400, "invalid_request",
                       f"query parameter {name!r} must be in "
                       f"[{lo}, {hi}], got {value}")
    return value


def _float_query(query: dict, name: str, default: float) -> float:
    raw = query.get(name)
    if raw is None:
        return default
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise ApiError(400, "invalid_request",
                       f"query parameter {name!r} must be a number, "
                       f"got {raw!r}") from None


# ----------------------------------------------------------------------
# Route handlers: (ctx, params, body, query) -> payload
# ----------------------------------------------------------------------
def _get_health(ctx, params, body, query):
    return {"ok": True, "version": API_VERSION}


def service_load(ctx: "ServiceContext", *, report: dict | None = None) -> dict:
    """This process's current load — the one shape heartbeats and
    ``GET /v1/healthz`` probes share, so a fleet coordinator and an
    external monitor always agree on what "busy" means."""
    if report is None:
        report = ctx.manager.report()
    return {
        "sessions": int(report["sessions"]["active"]),
        "chunks": int(_RUNNING_CHUNKS.value()),
    }


def service_capacity(ctx: "ServiceContext") -> dict:
    """The static counterpart of :func:`service_load`."""
    return {
        "sessions": int(ctx.manager.max_sessions),
        "chunks": int(ctx.jobs.shards),
    }


def _get_healthz(ctx, params, body, query):
    import os

    report = ctx.manager.report()
    return {
        "ok": True,
        "version": API_VERSION,
        "pid": os.getpid(),
        "draining": ctx.jobs.stop_event.is_set(),
        "sessions": report["sessions"],
        "markets": len(report["markets"]),
        "active_jobs": ctx.jobs.active_jobs(),
        "load": service_load(ctx, report=report),
        "capacity": service_capacity(ctx),
    }


def _get_report(ctx, params, body, query):
    return ctx.manager.report()


def _post_market(ctx, params, body, query):
    spec = MarketSpec.from_dict(body)
    cached = ctx.manager.pool.contains(spec)
    market = ctx.manager.market(spec)
    build_report = None if cached else getattr(
        market.oracle, "build_report", None
    )
    return {
        "market": spec.digest(),
        "name": market.name,
        "n_bundles": len(market.oracle),
        "target_gain": (
            float(market.config.target_gain)
            if market.config.target_gain is not None
            else None
        ),
        "cached": cached,
        "build_report": (
            build_report.summary() if build_report is not None else None
        ),
    }


def _post_session(ctx, params, body, query):
    spec = SessionSpec.from_dict(body)
    session_id = ctx.manager.open_session(spec)
    return ctx.manager.status(session_id)


def _get_session(ctx, params, body, query):
    return ctx.manager.status(params["session_id"])


def _post_step(ctx, params, body, query):
    session_id = params["session_id"]
    if body.get("until_done"):
        return ctx.manager.run(session_id)
    rounds = body.get("rounds", 1)
    if not isinstance(rounds, int) or rounds < 1:
        raise ApiError(400, "invalid_request", "rounds must be an int >= 1")
    return ctx.manager.step(session_id, rounds=rounds)


def _get_state(ctx, params, body, query):
    return ctx.manager.checkpoint(params["session_id"])


def _put_state(ctx, params, body, query):
    restored = ctx.manager.restore(body, session_id=params["session_id"])
    return ctx.manager.status(restored)


def _delete_session(ctx, params, body, query):
    session_id = params["session_id"]
    if not ctx.manager.close(session_id):
        raise ApiError(404, "not_found",
                       f"unknown session {session_id!r} (closed, evicted, "
                       f"or never opened)")
    return {"closed": True, "session": session_id}


def _post_simulation(ctx, params, body, query):
    return ctx.jobs.submit(body)


def _get_jobs(ctx, params, body, query):
    limit = _int_query(query, "limit", 100, 1, 1000)
    return ctx.jobs.page(limit=limit, after=query.get("after"))


def _get_job(ctx, params, body, query):
    return ctx.jobs.status(params["job_id"])


def _post_job_resume(ctx, params, body, query):
    shards = body.get("shards")
    fleet = bool(body.get("fleet", False))
    return ctx.jobs.resume(params["job_id"], shards=shards, fleet=fleet)


def _get_job_events(ctx, params, body, query) -> Iterator[dict]:
    """JSON-lines chunk-completion progress, ending on a terminal status.

    The existence check runs eagerly (a 404 must be a 404, not a
    stream); the generator then polls the durable store and emits one
    ``progress`` line per observed change, a final ``end`` line when
    the job reaches a terminal status, or a ``timeout`` line when the
    client's deadline passes first (the job keeps running).
    """
    job_id = params["job_id"]
    store = ctx.jobs.store
    store.get(job_id)  # KeyError -> 404, before any line is streamed
    poll = min(max(_float_query(query, "poll", 0.1), 0.01), 5.0)
    timeout = min(max(_float_query(query, "timeout", 600.0), 0.0), 3600.0)

    def events() -> Iterator[dict]:
        deadline = time.monotonic() + timeout
        last: tuple | None = None
        while True:
            record = store.get(job_id)
            snapshot = (record.status, record.done_chunks)
            if snapshot != last:
                last = snapshot
                yield {
                    "event": "progress",
                    "job": job_id,
                    "status": record.status,
                    "chunks": record.n_chunks,
                    "chunks_done": record.done_chunks,
                }
            if record.status in _TERMINAL:
                payload = {
                    "event": "end",
                    "job": job_id,
                    "status": record.status,
                }
                if record.digest is not None:
                    payload["digest"] = record.digest
                if record.error is not None:
                    payload["error"] = record.error
                yield payload
                return
            if time.monotonic() >= deadline:
                yield {"event": "timeout", "job": job_id,
                       "status": record.status}
                return
            time.sleep(poll)

    return events()


def _get_metrics(ctx, params, body, query):
    """Prometheus text exposition of the process-global registry.

    The one non-JSON route in the table: the handler returns a complete
    :class:`ApiReply` whose payload is the rendered text and whose
    ``Content-Type`` both servers (and ``LocalTransport``) honour by
    writing the string verbatim.
    """
    _ensure_instrumented_imports()
    _bridge_report_gauges(ctx)
    return ApiReply(
        obs.REGISTRY.render_prometheus(),
        200,
        headers={"Content-Type": METRICS_CONTENT_TYPE},
    )


def _ensure_instrumented_imports() -> None:
    """Import every instrumented module so its families are registered.

    Metric families register at module import time; a scrape must
    expose the full catalogue (with empty series) even on a process
    that has not yet touched every code path — dashboards key on
    family names existing before traffic does.
    """
    import repro.client.http  # noqa: F401
    import repro.fleet  # noqa: F401  (package: its __init__ pulls agent+manager)
    import repro.jobs.executor  # noqa: F401
    import repro.jobs.remote  # noqa: F401
    import repro.oracle_factory.factory  # noqa: F401
    import repro.security.batch  # noqa: F401
    import repro.simulate.pool  # noqa: F401


def _bridge_report_gauges(ctx: "ServiceContext") -> None:
    """Refresh registry gauges from the manager's counters at scrape time."""
    report = ctx.manager.report()
    sessions = report["sessions"]
    gauge = obs.REGISTRY.gauge(
        "repro_sessions",
        "Session pool occupancy by state (resident/active).",
        ("state",),
    )
    gauge.set(sessions["resident"], state="resident")
    gauge.set(sessions["active"], state="active")
    lifecycle = obs.REGISTRY.counter(
        "repro_sessions_lifecycle_total",
        "Session lifecycle events since process start.",
        ("event",),
    )
    for event in ("opened", "closed", "evicted"):
        # Counters are monotonic: bridge by topping up to the manager's
        # authoritative tally (scrapes may interleave with lifecycle).
        delta = sessions[event] - lifecycle.value(event=event)
        if delta > 0:
            lifecycle.inc(delta, event=event)
    obs.REGISTRY.gauge(
        "repro_markets_pooled", "Markets resident in the process pool."
    ).set(len(report["markets"]))


def _get_traces(ctx, params, body, query) -> Iterator[dict]:
    """Finished spans as JSON lines, paginated by record sequence."""
    offset = _int_query(query, "offset", 0, 0)
    limit = _int_query(query, "limit", 1000, 1, 10000)
    records = obs.TRACER.spans(offset=offset, limit=limit)

    def lines() -> Iterator[dict]:
        yield from records

    return lines()


def _post_chunk(ctx, params, body, query):
    """Execute one job chunk in this process — the worker protocol.

    A worker server is just ``repro serve``: the
    :class:`~repro.jobs.remote.RemoteShardExecutor` POSTs the job's
    canonical ``(kind, spec, start, stop)`` here and records the reply
    in its own durable store, exactly as a process-pool shard would.
    """
    from repro.jobs.executor import CHUNK_RUNNERS

    kind = body.get("kind")
    if kind not in CHUNK_RUNNERS:
        raise ApiError(400, "invalid_request",
                       f"unknown chunk kind {kind!r}; "
                       f"known: {sorted(CHUNK_RUNNERS)}")
    spec = body.get("spec")
    if not isinstance(spec, dict):
        raise ApiError(400, "invalid_request", "spec must be a JSON object")
    start, stop = body.get("start"), body.get("stop")
    if not (isinstance(start, int) and isinstance(stop, int)
            and 0 <= start < stop):
        raise ApiError(400, "invalid_request",
                       "start/stop must be ints with 0 <= start < stop")
    # The chunk span parents under the dispatch span, which itself
    # parents under the coordinator's traceparent — so a remote sweep's
    # chunk spans all carry the coordinator's root trace id.
    _RUNNING_CHUNKS.add(1)
    try:
        with obs.span(f"chunk:{kind}", kind=kind, start=start, stop=stop):
            return CHUNK_RUNNERS[kind](spec, start, stop)
    finally:
        _RUNNING_CHUNKS.add(-1)


# ----------------------------------------------------------------------
# The fleet protocol: registration, heartbeats, the lease queue
# ----------------------------------------------------------------------
def _post_worker(ctx, params, body, query):
    url = body.get("url")
    if not isinstance(url, str) or not url:
        raise ApiError(400, "invalid_request",
                       "url must be a non-empty string (the worker's "
                       "advertised base URL — its fleet identity)")
    capacity = body.get("capacity", 1)
    if not isinstance(capacity, int) or capacity < 1:
        raise ApiError(400, "invalid_request", "capacity must be an int >= 1")
    labels = body.get("labels") or {}
    if not isinstance(labels, dict):
        raise ApiError(400, "invalid_request", "labels must be a JSON object")
    return ctx.jobs.fleet.register(url, capacity=capacity, labels=labels)


def _post_worker_heartbeat(ctx, params, body, query):
    load = body.get("load")
    if load is not None and not isinstance(load, dict):
        raise ApiError(400, "invalid_request", "load must be a JSON object")
    return ctx.jobs.fleet.heartbeat(params["worker_id"], load)


def _post_worker_lease(ctx, params, body, query):
    ctx.jobs.fleet.store.worker(params["worker_id"])  # KeyError -> 404
    return ctx.jobs.fleet.lease(params["worker_id"])


def _post_worker_complete(ctx, params, body, query):
    worker_id = params["worker_id"]
    ctx.jobs.fleet.store.worker(worker_id)  # KeyError -> 404
    job = body.get("job")
    chunk = body.get("chunk")
    if not isinstance(job, str) or not isinstance(chunk, int):
        raise ApiError(400, "invalid_request",
                       "job (str) and chunk (int) are required")
    error = body.get("error")
    if error is not None:
        return ctx.jobs.fleet.fail(worker_id, job, chunk, str(error))
    result = body.get("result")
    if not isinstance(result, dict):
        raise ApiError(400, "invalid_request",
                       "result must be the chunk's payload object "
                       "(or pass error to report a failure)")
    elapsed = body.get("elapsed", 0.0)
    if not isinstance(elapsed, (int, float)):
        raise ApiError(400, "invalid_request", "elapsed must be a number")
    return ctx.jobs.fleet.complete(worker_id, job, chunk, result,
                                   elapsed=float(elapsed))


def _delete_worker(ctx, params, body, query):
    reply = ctx.jobs.fleet.deregister(params["worker_id"])
    if not reply["left"]:
        raise ApiError(404, "not_found",
                       f"unknown worker {params['worker_id']!r}")
    return reply


def _get_fleet(ctx, params, body, query):
    return ctx.jobs.fleet.status()


# ----------------------------------------------------------------------
# The route table (the protocol, as data)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Route:
    """One wire endpoint: dispatch target and documentation source."""

    method: str
    path: str
    handler: Callable
    status: int
    summary: str
    request: dict | None = None   # body field -> description
    query: dict | None = None     # query param -> description
    response: str = ""
    streaming: bool = False

    @property
    def pattern(self) -> re.Pattern:
        return _compile(self.path)


def _compile(path: str) -> re.Pattern:
    return re.compile(
        "^" + re.sub(r"\{(\w+)\}", r"(?P<\1>[^/]+)", path) + "$"
    )


ROUTES: tuple[Route, ...] = (
    Route("GET", "/v1/health", _get_health, 200,
          "Liveness probe.",
          response="`{ok, version}`."),
    Route("GET", "/v1/healthz", _get_healthz, 200,
          "Liveness plus session/job/drain status, current load, and "
          "static capacity.",
          response="`{ok, version, pid, draining, sessions, markets, "
                   "active_jobs, load, capacity}` — `load` is the same "
                   "`{sessions, chunks}` shape fleet heartbeats carry; "
                   "`capacity` its static counterpart."),
    Route("GET", "/v1/report", _get_report, 200,
          "Operator report: pooled markets, session counts, outcome "
          "tallies.",
          response="`{markets, sessions, outcomes}`."),
    Route("POST", "/v1/markets", _post_market, 200,
          "Build (or warm) a market from a `MarketSpec`.",
          request={"<MarketSpec>": "the canonical `MarketSpec` dict; see "
                                   "`repro.service.specs.MarketSpec.to_dict`"},
          response="`{market, name, n_bundles, target_gain, cached, "
                   "build_report}` — `market` is the spec digest other "
                   "calls may reference; `build_report` is the oracle "
                   "build summary when this call built it."),
    Route("POST", "/v1/sessions", _post_session, 201,
          "Open a bargaining session from a `SessionSpec`.",
          request={"<SessionSpec>": "the canonical `SessionSpec` dict; "
                                    "`market` is a full `MarketSpec` dict "
                                    "or a pool digest; `secure`/`key_bits` "
                                    "settle the outcome through the batched "
                                    "Paillier path"},
          response="The session status: `{session, market, round, done, "
                   "quote}`."),
    Route("GET", "/v1/sessions/{session_id}", _get_session, 200,
          "One session's current (possibly terminal) status.",
          response="`{session, market, round, done, quote[, outcome]}`."),
    Route("POST", "/v1/sessions/{session_id}/step", _post_step, 200,
          "Advance a session; stepping a terminal session is a no-op.",
          request={"rounds": "int >= 1 (default 1)",
                   "until_done": "bool: step to termination instead"},
          response="The session status after stepping."),
    Route("GET", "/v1/sessions/{session_id}/state", _get_state, 200,
          "Checkpoint: a self-contained, shippable session snapshot.",
          response="`{version, session, market, spec, steps, state, "
                   "digest}`."),
    Route("PUT", "/v1/sessions/{session_id}/state", _put_state, 201,
          "Restore a checkpoint under `session_id` (replay + digest "
          "verification).",
          request={"<checkpoint>": "a payload from `GET "
                                   "/v1/sessions/{session_id}/state`"},
          response="The restored session's status."),
    Route("DELETE", "/v1/sessions/{session_id}", _delete_session, 200,
          "Close a session (404 if it is not resident).",
          response="`{closed, session}`."),
    Route("POST", "/v1/simulations", _post_simulation, 202,
          "Submit a durable sharded simulation job (idempotent per "
          "content).",
          request={"<SimulationSpec>": "the canonical `SimulationSpec` dict "
                                       "(`secure`/`key_bits` switch accepted "
                                       "sessions to batched Paillier "
                                       "settlement)",
                   "shards": "worker shards (0 = all cores; default: "
                             "server setting)",
                   "chunks": "progress granularity (default: up to 16)",
                   "fleet": "bool: run through the lease queue — joined "
                            "fleet workers pull the chunks instead of "
                            "this process forking shards"},
          response="The job's progress: `{job, kind, status, chunks, "
                   "chunks_done, started[, digest, report]}`."),
    Route("GET", "/v1/jobs", _get_jobs, 200,
          "Page through recorded jobs in deterministic job-id order.",
          query={"limit": "page size, 1..1000 (default 100)",
                 "after": "cursor: the `next` value of the previous page"},
          response="`{jobs, count, next}` — `next` is `null` on the "
                   "last page."),
    Route("GET", "/v1/jobs/{job_id}", _get_job, 200,
          "One job's progress, plus its report once finished.",
          response="`{job, kind, status, chunks, chunks_done[, digest, "
                   "report, error]}`."),
    Route("POST", "/v1/jobs/{job_id}/resume", _post_job_resume, 202,
          "Restart a recorded job's pending chunks (no-op when done).",
          request={"shards": "worker shards for this resume (optional)",
                   "fleet": "bool: resume through the fleet lease queue "
                            "instead of local shards"},
          response="The job's progress with `started`."),
    Route("GET", "/v1/jobs/{job_id}/events", _get_job_events, 200,
          "Stream chunk-completion progress as JSON lines until the job "
          "reaches a terminal status.",
          query={"poll": "store poll interval in seconds (default 0.1)",
                 "timeout": "stream deadline in seconds (default 600)"},
          response="JSON lines: `{event: progress|end|timeout, job, "
                   "status, ...}`; `end` carries `digest`/`error`.",
          streaming=True),
    Route("POST", "/v1/chunks", _post_chunk, 200,
          "Execute one job chunk synchronously — the multi-host worker "
          "protocol behind `RemoteShardExecutor`.",
          request={"kind": "job kind (`simulation` or `batch`)",
                   "spec": "the job's canonical spec dict",
                   "start": "chunk start index (inclusive)",
                   "stop": "chunk stop index (exclusive)"},
          response="The chunk result payload, exactly as a process-pool "
                   "shard would record it."),
    Route("POST", "/v1/workers", _post_worker, 201,
          "Register (or re-adopt) a fleet worker by its advertised URL.",
          request={"url": "the worker's advertised base URL — its "
                          "content-addressed fleet identity; registering "
                          "the same URL again is adoption, not duplication",
                   "capacity": "concurrent chunks this worker will run "
                               "(int >= 1, default 1)",
                   "labels": "free-form metadata object echoed by "
                             "`GET /v1/fleet`"},
          response="The worker row plus `{adopted, lease_ttl, "
                   "heartbeat_ttl}` — TTLs the agent should pace itself "
                   "against."),
    Route("POST", "/v1/workers/{worker_id}/heartbeat",
          _post_worker_heartbeat, 200,
          "Record a worker's pulse and current load; 404 asks the worker "
          "to re-register (fresh coordinator store).",
          request={"load": "current load object, same `{sessions, chunks}` "
                           "shape as `GET /v1/healthz`'s `load` (optional)"},
          response="`{worker, status, lag, adopted, heartbeat_ttl}` — "
                   "`adopted` is true when this pulse revived a worker "
                   "the coordinator had marked lost (crash adoption)."),
    Route("POST", "/v1/workers/{worker_id}/lease", _post_worker_lease, 200,
          "Pull one chunk lease from the shared queue (work stealing: "
          "expired leases re-queue and may be granted to other workers).",
          response="`{lease: null}` when the queue is empty, else "
                   "`{lease: {job, chunk, start, stop, kind, spec, "
                   "deadline, ttl, stolen_from}}`."),
    Route("POST", "/v1/workers/{worker_id}/complete",
          _post_worker_complete, 200,
          "Deliver a leased chunk's result — or its failure.",
          request={"job": "the leased job id",
                   "chunk": "the leased chunk index",
                   "result": "the chunk payload (success path)",
                   "elapsed": "chunk wall seconds (optional)",
                   "error": "failure text instead of `result`: fails the "
                            "job, exactly as a local shard exception "
                            "would"},
          response="`{recorded, first, job, chunk}` — `first` is false "
                   "for a duplicate delivery of a stolen chunk "
                   "(harmless: chunks are deterministic)."),
    Route("DELETE", "/v1/workers/{worker_id}", _delete_worker, 200,
          "Gracefully deregister a worker; its active leases re-queue.",
          response="`{worker, left}`."),
    Route("GET", "/v1/fleet", _get_fleet, 200,
          "Operator view of the fleet: workers, active leases, queue "
          "depth (sweeps liveness as a side effect).",
          response="`{workers, leases, queue, lease_ttl, "
                   "heartbeat_ttl}`."),
    Route("GET", "/v1/metrics", _get_metrics, 200,
          "Process metrics in Prometheus text exposition format — the "
          "one non-JSON route.",
          response="`text/plain; version=0.0.4`: request, cache, "
                   "job-chunk, session and settlement families "
                   "from the process-global registry."),
    Route("GET", "/v1/traces", _get_traces, 200,
          "Finished trace spans as JSON lines (NDJSON), paginated by "
          "record sequence number.",
          query={"offset": "return spans with `seq` greater than this "
                           "(default 0; pass the last seen `seq`)",
                 "limit": "maximum spans to return, 1..10000 "
                          "(default 1000)"},
          response="JSON lines: `{name, trace_id, span_id, parent_id, "
                   "start, duration, attrs, seq}` per span.",
          streaming=True),
)

_COMPILED = tuple((route, _compile(route.path)) for route in ROUTES)


def _match(method: str, path: str) -> tuple[Route, dict]:
    allowed: list[str] = []
    for route, pattern in _COMPILED:
        found = pattern.match(path)
        if not found:
            continue
        if route.method == method:
            return route, found.groupdict()
        allowed.append(route.method)
    if allowed:
        raise ApiError(
            405, "method_not_allowed",
            f"{path} does not accept {method}",
            {"allowed": sorted(set(allowed))},
        )
    raise ApiError(404, "not_found", f"no route {method} {path}")


def dispatch(
    ctx: ServiceContext,
    method: str,
    path: str,
    *,
    body: dict | None = None,
    query: dict | None = None,
) -> ApiReply:
    """Route one request; never raises — errors become envelope replies.

    ``body`` is the parsed JSON object (transports own body-level
    errors: 411/413/invalid JSON); ``query`` maps parameter names to
    their raw string values.

    Dispatch is the transport-independent chokepoint, so telemetry
    lives here: every request opens a span (parented under whatever
    context the transport attached from an incoming ``traceparent``)
    and lands in the per-route request counter and latency histogram,
    labeled by the matched route *template*.
    """
    t0 = time.perf_counter()
    with obs.span("dispatch", method=method) as active:
        reply, route_label = _dispatch_matched(ctx, method, path, body, query)
        active.set(route=route_label, status=reply.status)
    _REQUESTS.inc(method=method, route=route_label, status=reply.status)
    _REQUEST_LATENCY.observe(
        time.perf_counter() - t0, method=method, route=route_label
    )
    return reply


def _dispatch_matched(
    ctx: ServiceContext,
    method: str,
    path: str,
    body: dict | None,
    query: dict | None,
) -> tuple[ApiReply, str]:
    """(reply, route template) for one request; errors become envelopes."""
    route_label = "unmatched"
    try:
        route, params = _match(method, path)
        route_label = route.path
        payload = route.handler(ctx, params, body or {}, query or {})
        if isinstance(payload, ApiReply):
            return payload, route_label
        return ApiReply(payload, route.status, streaming=route.streaming), \
            route_label
    except ApiError as exc:
        return ApiReply(exc.envelope(), exc.status), route_label
    except SessionConflictError as exc:
        return ApiReply(error_envelope("conflict", str(exc)), 409), route_label
    except SessionLimitError as exc:
        return ApiReply(error_envelope("capacity", str(exc)), 429), route_label
    except (ValueError, TypeError) as exc:  # spec/body validation
        # TypeError covers wrong-typed spec fields (e.g. a string
        # n_bundles failing a numeric comparison) — still a 400,
        # not a dropped connection.
        return (
            ApiReply(error_envelope("invalid_request", str(exc)), 400),
            route_label,
        )
    except KeyError as exc:  # unknown session/job
        return (
            ApiReply(error_envelope("not_found", str(exc).strip("'\"")), 404),
            route_label,
        )
    except Exception as exc:  # pragma: no cover - handler bugs
        return (
            ApiReply(
                error_envelope("internal", f"{type(exc).__name__}: {exc}"), 500
            ),
            route_label,
        )
