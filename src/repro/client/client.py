"""The typed marketplace client: one API, interchangeable transports.

:class:`MarketplaceClient` is the single programmatic surface every
front door shares — the CLI commands, the examples, the benchmarks and
the test suites all drive it, and swapping
:class:`~repro.client.local.LocalTransport` for
:class:`~repro.client.http.HttpTransport` (``--server URL``) flips any
of them from embedded to remote with byte-identical payloads.

Wire methods (one per ``/v1`` route) return the reply payloads as
plain dicts; 2xx-or-raise semantics with the typed errors of
:mod:`repro.client.errors`.  On top sit a few conveniences that
compose routes: :meth:`run_session`, :meth:`wait_job`,
:meth:`iter_jobs`, and the high-level :meth:`simulate` (local: direct
:func:`~repro.service.simulation.run_simulation`; remote: submit a
durable job, follow its event stream, rebuild the report — same
digest either way).
"""

from __future__ import annotations

from typing import Iterator

from repro import obs
from repro.client.errors import ServerError, TransportError, error_from_reply
from repro.client.http import HttpTransport
from repro.client.local import LocalTransport
from repro.client.transport import Transport

__all__ = ["MarketplaceClient"]

#: Job statuses after which polling/streaming stops.
_TERMINAL = ("done", "failed", "interrupted")


def _as_dict(spec) -> dict:
    return spec if isinstance(spec, dict) else spec.to_dict()


class MarketplaceClient:
    """Typed facade over the ``/v1`` marketplace protocol."""

    def __init__(self, transport: Transport):
        self.transport = transport

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def local(cls, manager=None, jobs=None) -> "MarketplaceClient":
        """An in-process client (no server, no sockets)."""
        return cls(LocalTransport(manager=manager, jobs=jobs))

    @classmethod
    def connect(cls, url: str, **kwargs) -> "MarketplaceClient":
        """A remote client for a ``repro serve`` base URL."""
        return cls(HttpTransport(url, **kwargs))

    def close(self) -> None:
        self.transport.close()

    def __enter__(self) -> "MarketplaceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _call(self, method: str, path: str, *, body: dict | None = None,
              query: dict | None = None, expect: tuple = (200,)) -> dict:
        # Every call opens a client span: over HTTP the span context
        # rides the traceparent header, so the server's dispatch span
        # becomes a child and a remote exchange stitches into one trace.
        with obs.span(f"client:{method} {path}", method=method,
                      path=path) as active:
            status, payload = self.transport.request(
                method, path, body=body, query=query
            )
            active.set(status=status)
        if status not in expect:
            raise error_from_reply(status, payload)
        return payload

    # ------------------------------------------------------------------
    # Probes and reports
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """``GET /v1/health`` — liveness."""
        return self._call("GET", "/v1/health")

    def healthz(self) -> dict:
        """``GET /v1/healthz`` — liveness + session/job/drain status."""
        return self._call("GET", "/v1/healthz")

    def report(self) -> dict:
        """``GET /v1/report`` — the operator report."""
        return self._call("GET", "/v1/report")

    def metrics_text(self) -> str:
        """``GET /v1/metrics`` — Prometheus text exposition, verbatim."""
        status, text = self.transport.request_text("GET", "/v1/metrics")
        if status != 200:  # pragma: no cover - route cannot fail today
            raise ServerError(f"GET /v1/metrics returned {status}",
                              status=status, code="metrics_failed",
                              detail={"body": text})
        return text

    def traces(self, *, offset: int = 0, limit: int = 1000) -> list[dict]:
        """``GET /v1/traces`` — finished spans after ``offset`` (by seq)."""
        return list(self.transport.stream(
            "GET", "/v1/traces", query={"offset": offset, "limit": limit},
        ))

    # ------------------------------------------------------------------
    # Markets and sessions
    # ------------------------------------------------------------------
    def build_market(self, spec) -> dict:
        """``POST /v1/markets`` — build (or warm) a market.

        ``spec`` is a :class:`~repro.service.specs.MarketSpec` or its
        dict form; the reply's ``market`` digest can seed
        :meth:`open_session`.
        """
        return self._call("POST", "/v1/markets", body=_as_dict(spec))

    def open_session(self, spec) -> dict:
        """``POST /v1/sessions`` — open a bargaining session."""
        return self._call("POST", "/v1/sessions", body=_as_dict(spec),
                          expect=(201,))

    def session(self, session_id: str) -> dict:
        """``GET /v1/sessions/{id}`` — current status."""
        return self._call("GET", f"/v1/sessions/{session_id}")

    def step(self, session_id: str, *, rounds: int = 1) -> dict:
        """``POST /v1/sessions/{id}/step`` — advance up to ``rounds``."""
        return self._call("POST", f"/v1/sessions/{session_id}/step",
                          body={"rounds": rounds})

    def run_session(self, session_id: str) -> dict:
        """Step a session to termination (one round trip)."""
        return self._call("POST", f"/v1/sessions/{session_id}/step",
                          body={"until_done": True})

    def checkpoint(self, session_id: str) -> dict:
        """``GET /v1/sessions/{id}/state`` — a shippable snapshot."""
        return self._call("GET", f"/v1/sessions/{session_id}/state")

    def restore(self, checkpoint: dict, *, session_id: str | None = None) -> dict:
        """``PUT /v1/sessions/{id}/state`` — restore a checkpoint.

        ``session_id`` defaults to the checkpoint's own session id.
        """
        sid = session_id or checkpoint.get("session")
        if not sid:
            raise ValueError("no session id: pass session_id= or a "
                             "checkpoint with a 'session' field")
        return self._call("PUT", f"/v1/sessions/{sid}/state",
                          body=checkpoint, expect=(201,))

    def close_session(self, session_id: str) -> dict:
        """``DELETE /v1/sessions/{id}`` — close (404 if not resident)."""
        return self._call("DELETE", f"/v1/sessions/{session_id}")

    # ------------------------------------------------------------------
    # Jobs
    # ------------------------------------------------------------------
    def submit_simulation(self, spec, *, shards: int | None = None,
                          chunks: int | None = None,
                          fleet: bool = False) -> dict:
        """``POST /v1/simulations`` — submit a durable sharded job.

        ``fleet=True`` routes the job through the coordinator's lease
        queue so joined fleet workers pull its chunks.
        """
        body = _as_dict(spec)
        if shards is not None:
            body = {**body, "shards": shards}
        if chunks is not None:
            body = {**body, "chunks": chunks}
        if fleet:
            body = {**body, "fleet": True}
        return self._call("POST", "/v1/simulations", body=body,
                          expect=(202,))

    def job(self, job_id: str) -> dict:
        """``GET /v1/jobs/{id}`` — progress (+ report when done)."""
        return self._call("GET", f"/v1/jobs/{job_id}")

    def jobs(self, *, limit: int = 100, after: str | None = None) -> dict:
        """``GET /v1/jobs`` — one page: ``{jobs, count, next}``."""
        query: dict = {"limit": limit}
        if after is not None:
            query["after"] = after
        return self._call("GET", "/v1/jobs", query=query)

    def iter_jobs(self) -> Iterator[dict]:
        """Every recorded job, walking the pagination cursor."""
        after: str | None = None
        while True:
            page = self.jobs(after=after)
            yield from page["jobs"]
            after = page["next"]
            if after is None:
                return

    def resume_job(self, job_id: str, *, shards: int | None = None,
                   fleet: bool = False) -> dict:
        """``POST /v1/jobs/{id}/resume`` — restart pending chunks."""
        body: dict = {}
        if shards is not None:
            body["shards"] = shards
        if fleet:
            body["fleet"] = True
        return self._call("POST", f"/v1/jobs/{job_id}/resume", body=body,
                          expect=(202,))

    def job_events(self, job_id: str, *, poll: float = 0.1,
                   timeout: float = 600.0) -> Iterator[dict]:
        """``GET /v1/jobs/{id}/events`` — streamed progress lines."""
        return self.transport.stream(
            "GET", f"/v1/jobs/{job_id}/events",
            query={"poll": poll, "timeout": timeout},
        )

    def wait_job(self, job_id: str, *, timeout: float = 600.0,
                 poll: float = 0.1, on_event=None) -> dict:
        """Follow a job to a terminal status; returns its final payload.

        Prefers the event stream (one long-lived request); falls back
        to polling ``GET /v1/jobs/{id}`` if the stream breaks.
        ``on_event`` (optional callable) observes each streamed line —
        the hook the CLI uses to print live progress.
        """
        import time as _time

        deadline = _time.monotonic() + timeout
        try:
            for event in self.job_events(job_id, poll=poll, timeout=timeout):
                if on_event is not None:
                    on_event(event)
                if event.get("event") == "end":
                    return self.job(job_id)
                if event.get("event") == "timeout":
                    break
        except TransportError:
            pass  # stream broke; fall through to polling
        while _time.monotonic() < deadline:
            payload = self.job(job_id)
            if payload["status"] in _TERMINAL:
                return payload
            _time.sleep(poll)
        raise TimeoutError(
            f"job {job_id} did not reach a terminal status in {timeout}s"
        )

    # ------------------------------------------------------------------
    # The fleet protocol (worker side of the lease queue)
    # ------------------------------------------------------------------
    def register_worker(self, url: str, *, capacity: int = 1,
                        labels: dict | None = None) -> dict:
        """``POST /v1/workers`` — register (or re-adopt) a worker."""
        body: dict = {"url": url, "capacity": int(capacity)}
        if labels:
            body["labels"] = dict(labels)
        return self._call("POST", "/v1/workers", body=body, expect=(201,))

    def worker_heartbeat(self, worker_id: str, *,
                         load: dict | None = None) -> dict:
        """``POST /v1/workers/{id}/heartbeat`` — record this worker's
        pulse (404 means: re-register)."""
        body: dict = {}
        if load is not None:
            body["load"] = load
        return self._call("POST", f"/v1/workers/{worker_id}/heartbeat",
                          body=body)

    def lease_chunk(self, worker_id: str, *, job: str | None = None) -> dict:
        """``POST /v1/workers/{id}/lease`` — pull one chunk lease, of
        ``job`` only when given (``{"lease": None}`` when the queue is
        empty)."""
        body = {} if job is None else {"job": job}
        return self._call("POST", f"/v1/workers/{worker_id}/lease", body=body)

    def complete_chunk(self, worker_id: str, job_id: str, chunk: int,
                       result: dict, *, elapsed: float = 0.0) -> dict:
        """``POST /v1/workers/{id}/complete`` — deliver a chunk result."""
        return self._call(
            "POST", f"/v1/workers/{worker_id}/complete",
            body={"job": job_id, "chunk": int(chunk), "result": result,
                  "elapsed": float(elapsed)},
        )

    def fail_chunk(self, worker_id: str, job_id: str, chunk: int,
                   error: str) -> dict:
        """``POST /v1/workers/{id}/complete`` with ``error`` — report a
        chunk that raised (fails the job)."""
        return self._call(
            "POST", f"/v1/workers/{worker_id}/complete",
            body={"job": job_id, "chunk": int(chunk), "error": str(error)},
        )

    def deregister_worker(self, worker_id: str) -> dict:
        """``DELETE /v1/workers/{id}`` — graceful goodbye."""
        return self._call("DELETE", f"/v1/workers/{worker_id}")

    def fleet_status(self) -> dict:
        """``GET /v1/fleet`` — workers, active leases, queue depth."""
        return self._call("GET", "/v1/fleet")

    # ------------------------------------------------------------------
    # High level
    # ------------------------------------------------------------------
    def simulate(self, spec, *, shards: int | None = None,
                 chunks: int | None = None, timeout: float = 3600.0,
                 on_event=None):
        """Run a population simulation; returns the
        :class:`~repro.simulate.report.SimulationReport`.

        Local transport: the in-process
        :func:`~repro.service.simulation.run_simulation` fast path over
        the transport's own market pool.  Remote:
        submit the spec as a durable job, follow its event stream, and
        rebuild the report from the wire payload.  Both paths produce
        the same report digest — the contract
        ``tests/client/test_cli_server_parity.py`` pins.
        """
        if isinstance(self.transport, LocalTransport):
            from repro.service.simulation import run_simulation
            from repro.service.specs import SimulationSpec

            if isinstance(spec, dict):
                spec = SimulationSpec.from_dict(spec)
            with obs.span("simulate:local", sessions=spec.sessions):
                _, _, local_report = run_simulation(
                    spec, pool=self.transport.ctx.manager.pool
                )
            return local_report
        from repro.simulate.report import report_from_dict

        submitted = self.submit_simulation(spec, shards=shards, chunks=chunks)
        final = self.wait_job(submitted["job"], timeout=timeout,
                              on_event=on_event)
        if final["status"] != "done":
            raise ServerError(
                f"simulation job {final['job']} ended "
                f"{final['status']}: {final.get('error')}",
                status=500, code="job_failed", detail=final,
            )
        return report_from_dict(final["report"])
