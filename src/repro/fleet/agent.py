"""The worker-side fleet loop that ``repro serve --join URL`` embeds.

A :class:`FleetAgent` turns any process that can execute job chunks
into a fleet worker: it registers with the coordinator, heartbeats with
its current load on a daemon timer, and runs ``capacity`` puller
threads that lease chunks, execute them through the same
:data:`~repro.jobs.executor.CHUNK_RUNNERS` table a local shard would
use, and post the results back.  Everything is pull-shaped, so the
agent — not the coordinator — decides when it can take more work, and
a slow worker simply pulls less often (the work-stealing win on
heterogeneous fleets).

Failure handling mirrors the durable-store fault model:

* coordinator unreachable (restarting, network blip): every loop
  retries with a bounded backoff — registration state is durable on
  the coordinator, so the next heartbeat after a coordinator restart
  re-adopts this worker;
* coordinator answers 404 for this worker (a fresh store file): the
  agent re-registers and carries on;
* a chunk that *raises* is reported as a failure so the coordinator
  can fail the job — a bad spec raises identically everywhere, and
  retrying it forever would wedge the queue.
"""

from __future__ import annotations

import threading
import time

from repro import obs
from repro.client.client import MarketplaceClient
from repro.client.errors import ClientError, NotFoundError, TransportError
from repro.fleet.manager import worker_id_for
from repro.utils.validation import require

__all__ = ["FleetAgent"]

#: Worker-side chunk accounting, by terminal result.
_AGENT_CHUNKS = obs.REGISTRY.counter(
    "repro_fleet_agent_chunks_total",
    "Chunks this worker leased, by result.",
    ("result",),
)

#: Backoff ceiling for loops that talk to an unreachable coordinator.
_MAX_BACKOFF = 5.0


class FleetAgent:
    """Register, heartbeat, lease, execute, complete — repeatedly.

    Parameters
    ----------
    coordinator:
        Base URL of the coordinator's ``repro serve`` deployment.
    url:
        This worker's advertised URL (its identity: the worker id is
        content-addressed from it).
    capacity:
        Concurrent puller threads — the number of chunks this worker
        is willing to run at once, also advertised to the coordinator.
    labels:
        Free-form worker metadata, stored and echoed by ``repro fleet
        status`` (e.g. ``{"host": "gpu-3"}``).
    poll:
        Sleep between lease attempts when the queue is empty.
    heartbeat_interval:
        Seconds between heartbeats; keep well under the coordinator's
        ``heartbeat_ttl`` or the worker flaps lost/adopted.
    load_probe:
        Zero-argument callable returning this worker's current load
        dict — the same ``{sessions, chunks}`` shape ``GET
        /v1/healthz`` reports, so probes and heartbeats agree.
    throttle:
        Extra seconds to sleep per executed chunk (benchmark/test knob
        for heterogeneous-fleet scenarios; also settable via the
        ``REPRO_FLEET_THROTTLE`` environment variable in ``repro serve
        --join``).
    client_options:
        Extra :class:`~repro.client.http.HttpTransport` keyword
        arguments for the coordinator connection.
    """

    def __init__(
        self,
        coordinator: str,
        url: str,
        *,
        capacity: int = 1,
        labels: dict[str, object] | None = None,
        poll: float = 0.2,
        heartbeat_interval: float = 2.0,
        load_probe: object = None,
        throttle: float = 0.0,
        client_options: dict[str, object] | None = None,
    ) -> None:
        require(bool(coordinator), "the agent needs a coordinator URL")
        require(capacity >= 1, "capacity must be >= 1")
        require(poll > 0, "poll must be > 0")
        require(heartbeat_interval > 0, "heartbeat_interval must be > 0")
        require(throttle >= 0, "throttle must be >= 0")
        self.coordinator = str(coordinator).rstrip("/")
        self.url = str(url).rstrip("/")
        self.worker_id = worker_id_for(self.url)
        self.capacity = int(capacity)
        self.labels = dict(labels or {})
        self.poll = float(poll)
        self.heartbeat_interval = float(heartbeat_interval)
        self.load_probe = load_probe
        self.throttle = float(throttle)
        self.client_options = dict(client_options or {})
        self._stop = threading.Event()
        self._registered = threading.Event()
        self._threads: list[threading.Thread] = []
        # Chunks currently executing in this process: the same family
        # `GET /v1/healthz` reads, so an agent's heartbeat load and an
        # external probe agree by construction.
        self._running = obs.REGISTRY.gauge(
            "repro_job_chunks_running",
            "Job chunks currently executing in this process.",
        )

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the heartbeat thread and ``capacity`` puller threads."""
        require(not self._threads, "agent already started")
        self._stop.clear()
        names = [
            (f"fleet-heartbeat-{self.worker_id}", self._heartbeat_loop)
        ] + [
            (f"fleet-pull-{self.worker_id}-{i}", self._work_loop)
            for i in range(self.capacity)
        ]
        for name, target in names:
            thread = threading.Thread(target=target, name=name, daemon=True)
            self._threads.append(thread)
            thread.start()

    def stop(self, *, deregister: bool = True, timeout: float = 10.0) -> None:
        """Stop the loops; optionally tell the coordinator goodbye."""
        self._stop.set()
        deadline = time.monotonic() + timeout
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        self._threads = []
        if deregister and self._registered.is_set():
            try:
                with self._client() as client:
                    client.deregister_worker(self.worker_id)
            except ClientError:
                pass  # the coordinator will mark us lost on its own
        self._registered.clear()

    def __enter__(self) -> "FleetAgent":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def _client(self) -> MarketplaceClient:
        return MarketplaceClient.connect(self.coordinator,
                                         **self.client_options)

    def _load(self) -> dict[str, object]:
        if callable(self.load_probe):
            load = self.load_probe()
            if isinstance(load, dict):
                return load
        return {"sessions": 0, "chunks": int(self._running.value())}

    def _ensure_registered(self, client: MarketplaceClient) -> bool:
        """Register if needed; False when the coordinator is unreachable."""
        if self._registered.is_set():
            return True
        try:
            client.register_worker(self.url, capacity=self.capacity,
                                   labels=self.labels)
        except TransportError:
            return False
        self._registered.set()
        return True

    def _heartbeat_loop(self) -> None:
        with self._client() as client:
            while not self._stop.wait(self.heartbeat_interval):
                if not self._ensure_registered(client):
                    continue
                try:
                    client.worker_heartbeat(self.worker_id, load=self._load())
                except NotFoundError:
                    # Fresh coordinator store: our row is gone.
                    self._registered.clear()
                except TransportError:
                    pass  # coordinator down/restarting; keep pulsing

    def _work_loop(self) -> None:
        backoff = self.poll
        with self._client() as client:
            while not self._stop.is_set():
                if not self._ensure_registered(client):
                    if self._stop.wait(backoff):
                        return
                    backoff = min(backoff * 2, _MAX_BACKOFF)
                    continue
                backoff = self.poll
                try:
                    reply = client.lease_chunk(self.worker_id)
                except NotFoundError:
                    self._registered.clear()
                    continue
                except TransportError:
                    if self._stop.wait(backoff):
                        return
                    backoff = min(backoff * 2, _MAX_BACKOFF)
                    continue
                order = reply.get("lease")
                if not order:
                    self._stop.wait(self.poll)
                    continue
                self._execute(client, order)

    def _execute(self, client: MarketplaceClient,
                 order: dict[str, object]) -> None:
        """Run one leased chunk and post its result (or failure)."""
        from repro.jobs.executor import CHUNK_RUNNERS

        kind, job = str(order["kind"]), str(order["job"])
        chunk = int(str(order["chunk"]))
        start, stop = int(str(order["start"])), int(str(order["stop"]))
        spec = order["spec"]
        assert isinstance(spec, dict)
        error: str | None = None
        payload: dict[str, object] = {}
        chunk_ctx: obs.SpanContext | None = None
        self._running.add(1)
        try:
            with obs.span(f"fleet-chunk:{kind}", kind=kind, job=job,
                          chunk=chunk, start=start, stop=stop):
                chunk_ctx = obs.current()
                payload = CHUNK_RUNNERS[kind](spec, start, stop)
        except Exception as exc:
            error = repr(exc)
        finally:
            self._running.add(-1)
        if self.throttle:
            # Heterogeneous-fleet knob: model a slower worker by
            # stretching its per-chunk service time.
            self._stop.wait(self.throttle)
        # Deliver under the chunk span's context, so the completion POST
        # and the coordinator's handling of it join the chunk's trace;
        # the span itself has ended and still times the chunk alone.
        token = obs.attach(chunk_ctx)
        try:
            self._report(client, job, chunk, payload, error)
        finally:
            obs.detach(token)

    def _report(self, client: MarketplaceClient, job: str, chunk: int,
                payload: dict[str, object], error: str | None) -> None:
        """Deliver a chunk outcome, riding out coordinator restarts."""
        backoff = self.poll
        while not self._stop.is_set():
            try:
                if error is None:
                    elapsed = float(str(payload.get("elapsed", 0.0)))
                    client.complete_chunk(self.worker_id, job, chunk,
                                          payload, elapsed=elapsed)
                    _AGENT_CHUNKS.inc(result="done")
                else:
                    client.fail_chunk(self.worker_id, job, chunk, error)
                    _AGENT_CHUNKS.inc(result="failed")
                return
            except NotFoundError:
                # Coordinator lost our registration (fresh store) or the
                # job itself: re-register once, then retry the delivery;
                # if the job is truly gone the next attempt 404s again
                # and the result is dropped with the lease.
                self._registered.clear()
                if not self._ensure_registered(client):
                    if self._stop.wait(backoff):
                        return
                    backoff = min(backoff * 2, _MAX_BACKOFF)
                    continue
                try:
                    client.job(job)
                except NotFoundError:
                    _AGENT_CHUNKS.inc(result="dropped")
                    return
                except TransportError:
                    pass
            except TransportError:
                # Coordinator down; the result is worth waiting for —
                # chunks are deterministic but not free.
                if self._stop.wait(backoff):
                    return
                backoff = min(backoff * 2, _MAX_BACKOFF)
