"""The ``/v1`` protocol over HTTP: the one transport behind ``repro serve``.

:class:`AsyncMarketplaceServer` is pure transport glue on one asyncio
event loop: every request is framed by :mod:`repro.utils.http11` (400,
411 and 413 enforced here) and handed to :func:`repro.service.api.dispatch`,
the same route table the in-process
:class:`~repro.client.local.LocalTransport` drives — so HTTP and
embedded clients see byte-identical payloads by construction.

* connections are coroutines — 10k idle keep-alive clients cost one
  loop, not 10k stacks;
* short, non-blocking requests (probes, reads, steps of up to 8
  rounds) dispatch on the loop itself; everything that may block
  (market builds, long steps, job routes, checkpoint restore) runs on
  a small bounded thread pool (``workers``);
* streaming routes (``GET /v1/jobs/{id}/events``) bridge their
  blocking generators through the pool, one chunk at a time;
* the serve loop owns operational duty cycles: a periodic idle-session
  eviction sweep (a quiet server does not leak stale sessions until
  the next ``open_session``), and graceful drain — on shutdown the
  listener closes, new requests on live connections get ``503``
  ``draining`` with ``Retry-After`` (the SDK transport retries them
  transparently), in-flight requests finish within ``drain_timeout``,
  background jobs flush to the durable store.

``start_background()`` runs the loop on a daemon thread and returns the
bound address; ``shutdown()`` drains it.  The server is also a context
manager doing both, which is how tests and benchmarks embed it.
"""

from __future__ import annotations

import asyncio
import json
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from urllib.parse import parse_qsl, unquote, urlsplit

from repro import obs
from repro.service.api import (
    ApiError,
    JobService,
    ServiceContext,
    dispatch,
)
from repro.service.manager import SessionManager
from repro.utils import http11
from repro.utils.validation import require

__all__ = ["AsyncMarketplaceServer"]

#: Request bodies above this (8 MB) are refused with 413 before any
#: read: an oversized (or lying) Content-Length must not park a reader
#: on a huge body.
MAX_BODY_BYTES = 8 * 1024 * 1024

_REASONS = {
    200: "OK", 201: "Created", 202: "Accepted",
    400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
    409: "Conflict", 411: "Length Required",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}

_SERVER_HEADER = "repro-serve-async/1.0"

#: Routes cheap enough to dispatch on the event loop itself, skipping
#: the executor handoff (~100µs/request under load).  Everything else —
#: market/oracle builds, job submission, streaming, checkpoint restore
#: (replays rounds) — goes through the worker pool.
_INLINE_GET = re.compile(
    r"^/v1/(health|healthz|report|sessions/[^/]+(/state)?)$"
)
_INLINE_STEP = re.compile(r"^/v1/sessions/[^/]+/step$")
_INLINE_DELETE = re.compile(r"^/v1/sessions/[^/]+$")

#: An inline /step may advance at most this many rounds; longer runs
#: (and ``until_done``) would stall every other connection on the loop.
_INLINE_MAX_ROUNDS = 8


class AsyncMarketplaceServer:
    """The ``/v1`` marketplace protocol on one asyncio event loop.

    Parameters
    ----------
    host / port:
        Bind address; ``port=0`` binds an ephemeral port (tests) —
        the bound address is :attr:`address` once started.
    manager / jobs:
        The service core (default: a :class:`SessionManager` on the
        shared market pool and a :class:`JobService` over the default
        durable store).
    workers:
        Bounded handler thread pool.  Dispatch runs here, not on the
        loop, whenever a handler may block (oracle builds, long steps,
        event-stream polls).
    eviction_interval:
        Seconds between periodic ``manager.evict_idle()`` sweeps
        (``None`` derives ``min(60, idle_ttl / 2)`` from the manager,
        or ``0`` when it has no ``idle_ttl``; ``0`` disables the
        sweeper).
    drain_timeout:
        Grace for in-flight requests and background jobs on shutdown.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        *,
        manager: SessionManager | None = None,
        jobs: JobService | None = None,
        workers: int = 8,
        eviction_interval: float | None = None,
        drain_timeout: float = 30.0,
        verbose: bool = False,
    ):
        require(workers >= 1, "workers must be >= 1")
        require(eviction_interval is None or eviction_interval >= 0,
                "eviction_interval must be >= 0")
        self.host = host
        self.port = port
        self.ctx = ServiceContext(
            manager=manager if manager is not None else SessionManager(),
            jobs=jobs if jobs is not None else JobService(),
        )
        self.manager = self.ctx.manager
        self.jobs = self.ctx.jobs
        self.workers = int(workers)
        if eviction_interval is None:
            ttl = self.manager.idle_ttl
            eviction_interval = min(60.0, ttl / 2.0) if ttl else 0.0
        self.eviction_interval = float(eviction_interval)
        self.drain_timeout = float(drain_timeout)
        self.verbose = verbose
        self.address: tuple[str, int] | None = None
        self.draining = False
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="serve-async"
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._busy = 0
        self._conn_tasks: set[asyncio.Task] = set()
        self._started = threading.Event()
        self._stopped = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start_background(self) -> tuple[str, int]:
        """Run the loop on a daemon thread; returns the bound address."""
        require(self._thread is None, "server already started")

        def run() -> None:
            try:
                asyncio.run(self._main())
            finally:
                self._started.set()  # unblock a waiter even on bind failure
                self._stopped.set()

        self._thread = threading.Thread(
            target=run, name="serve-async", daemon=True
        )
        self._thread.start()
        self._started.wait()
        require(self.address is not None, "async server failed to bind")
        assert self.address is not None
        return self.address

    def shutdown(self, timeout: float = 30.0) -> None:
        """Request a graceful drain from any thread; waits for exit."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:  # loop tore down between checks
                pass
        self._stopped.wait(timeout)
        if self._thread is not None:
            self._thread.join(timeout)

    @property
    def url(self) -> str:
        """``http://host:port`` of the bound listener (once started)."""
        assert self.address is not None, "server not started"
        return "http://%s:%s" % self.address

    def __enter__(self) -> "AsyncMarketplaceServer":
        self.start_background()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = await asyncio.start_server(
            self._serve_connection, self.host, self.port,
            limit=http11.MAX_HEAD_BYTES, backlog=1024,
        )
        self.address = server.sockets[0].getsockname()[:2]
        self._started.set()
        evictor = self._start_evictor()
        try:
            async with server:
                await self._stop.wait()
        finally:
            if evictor is not None:
                evictor.cancel()
            await self._drain(server)
            self._executor.shutdown(wait=False)
            self._stopped.set()

    def _start_evictor(self) -> asyncio.Task | None:
        interval = self.eviction_interval
        if not interval:
            return None

        async def sweep() -> None:
            assert self._loop is not None
            while True:
                await asyncio.sleep(interval)
                await self._loop.run_in_executor(
                    self._executor, self.manager.evict_idle
                )

        return asyncio.get_running_loop().create_task(sweep())

    async def _drain(self, server: asyncio.base_events.Server) -> None:
        """Graceful shutdown: refuse new work, flush in-flight work."""
        self.draining = True
        server.close()
        await server.wait_closed()
        deadline = asyncio.get_running_loop().time() + self.drain_timeout
        while self._busy and asyncio.get_running_loop().time() < deadline:
            await asyncio.sleep(0.02)
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        assert self._loop is not None
        remaining = max(0.5, deadline - asyncio.get_running_loop().time())
        await self._loop.run_in_executor(
            self._executor, self.jobs.drain, remaining
        )

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._conn_tasks.add(task)
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                self._busy += 1
                try:
                    keep_alive = await self._serve_request(reader, writer, head)
                finally:
                    self._busy -= 1
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,   # client hung up between requests
            asyncio.LimitOverrunError,     # head over the cap: no reply
            asyncio.CancelledError,        # drain cancelled an idle wait
            ConnectionResetError,
            BrokenPipeError,
            TimeoutError,
        ):
            pass
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _serve_request(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        head: bytes,
    ) -> bool:
        """Dispatch and answer one request; returns keep-alive."""
        try:
            try:
                method, target, version, headers = (
                    http11.parse_request_head(head)
                )
            except http11.FramingError as exc:
                raise ApiError(400, "invalid_request", str(exc)) from None
            if self.draining:
                # The listener is closed; surviving keep-alive clients
                # get an honest refusal they can retry elsewhere (or
                # here, after the restart the Retry-After hints at).
                raise ApiError(503, "draining",
                               "server is draining for shutdown; retry")
            body = await self._read_body(reader, headers)
        except ApiError as exc:
            # A refused request's body may be unread: the connection
            # cannot carry another request.
            retry = {"Retry-After": "1"} if exc.status == 503 else None
            self._write(writer, exc.status, exc.envelope(), headers=retry,
                        close=True)
            await writer.drain()
            return False
        keep_alive = http11.keep_alive(version, headers)
        parsed = urlsplit(target)
        path = unquote(parsed.path)
        query = dict(parse_qsl(parsed.query))

        t0 = time.perf_counter()
        remote = obs.from_traceparent(headers.get("traceparent"))

        def run_dispatch():
            # Runs on a worker-pool thread, whose execution context does
            # not inherit the coroutine's contextvars — the remote span
            # context must be re-attached here, inside the callable.
            token = obs.attach(remote) if remote is not None else None
            try:
                return dispatch(self.ctx, method, path, body=body,
                                query=query)
            finally:
                if token is not None:
                    obs.detach(token)

        assert self._loop is not None
        if self._inline_eligible(method, path, body):
            # ``dispatch`` never raises — errors come back as envelope
            # replies — so running it right on the loop is safe, and for
            # these sub-millisecond handlers it saves the executor
            # round-trip that otherwise dominates the request.
            reply = run_dispatch()
        else:
            reply = await self._loop.run_in_executor(
                self._executor, run_dispatch
            )
        obs.log_access(
            method, path, reply.status, time.perf_counter() - t0,
            remote.trace_id if remote is not None else None,
            verbose=self.verbose,
        )
        if reply.streaming:
            await self._write_stream(writer, reply.payload)
            return False  # chunked replies own their connection
        self._write(writer, reply.status, reply.payload,
                    headers=reply.headers, close=not keep_alive)
        await writer.drain()
        return keep_alive

    def _inline_eligible(self, method: str, path: str, body: dict) -> bool:
        """Whether this request may run on the loop instead of the pool.

        Only handlers that cannot block meaningfully qualify: session
        opens against pooled markets, short steps, reads and deletes.
        A ``/step`` stays off the loop whenever it might run long
        (``until_done`` / large round counts); market builds, job
        routes, streaming and checkpoint restore always take the pool.
        """
        if method == "GET":
            return _INLINE_GET.match(path) is not None
        if method == "DELETE":
            return _INLINE_DELETE.match(path) is not None
        if method == "POST":
            if path == "/v1/sessions":
                # A digest reference is a pool lookup; an inline market
                # dict may trigger a full market build — pool that.
                return isinstance(body.get("market"), str)
            if _INLINE_STEP.match(path) is not None:
                if body.get("until_done"):
                    return False
                rounds = body.get("rounds", 1)
                return (
                    isinstance(rounds, int)
                    and not isinstance(rounds, bool)
                    and 0 < rounds <= _INLINE_MAX_ROUNDS
                )
        return False

    # ------------------------------------------------------------------
    # Body parsing: 411/413/400 are transport-level protocol errors
    # ------------------------------------------------------------------
    async def _read_body(
        self, reader: asyncio.StreamReader, headers: dict[str, str]
    ) -> dict:
        if http11.is_chunked(headers):
            raise ApiError(
                411, "length_required",
                "chunked request bodies are not accepted; send "
                "Content-Length",
            )
        try:
            length = http11.content_length(headers)
        except http11.FramingError as exc:
            raise ApiError(411, "length_required", str(exc)) from None
        if not length:
            return {}
        if length > MAX_BODY_BYTES:
            raise ApiError(
                413, "payload_too_large",
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte cap",
                {"max_bytes": MAX_BODY_BYTES},
            )
        try:
            raw = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise ApiError(
                400, "invalid_request",
                f"request body ended after {len(exc.partial)} of the "
                f"declared {length} bytes",
            ) from None
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ApiError(
                400, "invalid_request",
                f"request body is not valid JSON: {exc}",
            ) from None
        if not isinstance(payload, dict):
            raise ApiError(
                400, "invalid_request", "request body must be a JSON object"
            )
        return payload

    # ------------------------------------------------------------------
    # Replies
    # ------------------------------------------------------------------
    def _write(self, writer: asyncio.StreamWriter, status: int,
               payload: object, *, headers: dict | None = None,
               close: bool = False) -> None:
        extra = dict(headers or {})
        if isinstance(payload, str):
            # Raw-text reply (the /v1/metrics Prometheus exposition):
            # the handler owns the bytes and the content type.
            blob = payload.encode("utf-8")
            content_type = extra.pop("Content-Type",
                                     "text/plain; charset=utf-8")
        else:
            blob = json.dumps(payload).encode("utf-8")
            content_type = extra.pop("Content-Type", "application/json")
        fields = [("Server", _SERVER_HEADER), ("Content-Type", content_type),
                  ("Content-Length", len(blob))]
        if close:
            fields.append(("Connection", "close"))
        fields.extend(extra.items())
        writer.write(http11.format_head(
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}", fields
        ) + blob)

    async def _write_stream(self, writer: asyncio.StreamWriter,
                            lines) -> None:
        """Chunked JSON lines, the blocking generator bridged through
        the worker pool one item at a time."""
        writer.write(http11.format_head(f"HTTP/1.1 200 {_REASONS[200]}", [
            ("Server", _SERVER_HEADER),
            ("Content-Type", "application/x-ndjson"),
            ("Transfer-Encoding", "chunked"),
            ("Connection", "close"),
        ]))
        assert self._loop is not None
        iterator = iter(lines)
        sentinel = object()
        try:
            while True:
                item = await self._loop.run_in_executor(
                    self._executor, next, iterator, sentinel
                )
                if item is sentinel:
                    break
                writer.write(http11.encode_chunk(
                    json.dumps(item).encode("utf-8") + b"\n"
                ))
                await writer.drain()
            writer.write(http11.encode_chunk(b""))
            await writer.drain()
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

