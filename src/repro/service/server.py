"""``python -m repro serve`` — the ``/v1`` wire protocol over HTTP.

The server is :class:`~repro.service.async_server.AsyncMarketplaceServer`:
dependency-free transport glue on one asyncio event loop that hands
every request to :func:`repro.service.api.dispatch`, the same route
table the in-process :class:`~repro.client.local.LocalTransport`
drives — so HTTP and embedded clients see byte-identical payloads by
construction.  This module is its command-line front: flags,
:func:`run_server`, and the ``--join`` fleet agent.

The full wire reference (routes, request/response shapes, error codes)
is generated from that route table into ``docs/API.md``; the highlights:

=======  ====================================  =========================
Method   Path                                  Meaning
=======  ====================================  =========================
GET      ``/v1/health``, ``/v1/healthz``       liveness / status probes
GET      ``/v1/report``                        operator report
POST     ``/v1/markets``                       build/warm a market
POST     ``/v1/sessions``                      open a session
POST     ``/v1/sessions/<id>/step``            advance a session
GET/PUT  ``/v1/sessions/<id>/state``           checkpoint / restore
DELETE   ``/v1/sessions/<id>``                 close a session
POST     ``/v1/simulations``                   submit a durable job
GET      ``/v1/jobs?limit=&after=``            paginated job listings
GET      ``/v1/jobs/<id>``                     one job's progress
POST     ``/v1/jobs/<id>/resume``              restart pending chunks
GET      ``/v1/jobs/<id>/events``              JSON-lines progress stream
=======  ====================================  =========================

Paths outside ``/v1`` get the uniform ``404`` ``not_found`` envelope.

Example walkthrough (against ``python -m repro serve --port 8765``)::

    curl -s localhost:8765/v1/healthz
    curl -s -X POST localhost:8765/v1/markets -d '{"dataset": "synthetic"}'
    curl -s -X POST localhost:8765/v1/sessions \
         -d '{"market": {"dataset": "synthetic"}, "seed": 0}'
    curl -s -X POST localhost:8765/v1/sessions/s000000/step \
         -d '{"until_done": true}'
    curl -s -X POST localhost:8765/v1/simulations \
         -d '{"sessions": 500, "seed": 0, "shards": 2}'
    curl -sN localhost:8765/v1/jobs/<id>/events

``run_server`` handles SIGTERM (and Ctrl-C) as a graceful drain: the
listener stops, running jobs drain to the durable store (they resume
with ``repro jobs resume``), and the process exits 0 — so supervisors
and CI can ``kill -TERM`` instead of sleeping and hoping.
"""

from __future__ import annotations

import argparse
import threading

from repro.service.api import JobService, ServiceContext
from repro.service.async_server import AsyncMarketplaceServer
from repro.service.manager import SessionManager

__all__ = ["run_server", "start_fleet_agent"]


def start_fleet_agent(
    join: str,
    ctx: ServiceContext,
    bound_host: str,
    bound_port: int,
    *,
    capacity: int = 1,
    worker_url: str | None = None,
    labels: dict | None = None,
):
    """Join this process to a coordinator's fleet (``serve --join URL``).

    The advertised URL defaults to the bound address — override it with
    ``worker_url`` when the coordinator reaches this host through NAT
    or a proxy.  ``REPRO_FLEET_THROTTLE`` (seconds per chunk) models a
    slower worker; it exists for heterogeneous-fleet benchmarks/drills.
    Returns the started :class:`~repro.fleet.agent.FleetAgent`.
    """
    import os

    from repro.fleet import FleetAgent
    from repro.service.api import service_load

    url = (worker_url or f"http://{bound_host}:{bound_port}").rstrip("/")
    throttle = float(os.environ.get("REPRO_FLEET_THROTTLE") or 0.0)
    agent = FleetAgent(
        join,
        url,
        capacity=max(1, int(capacity)),
        labels=labels,
        load_probe=lambda: service_load(ctx),
        throttle=throttle,
    )
    agent.start()
    print(f"fleet worker {agent.worker_id} ({url}) joining {agent.coordinator}")
    return agent


def run_server(
    host: str = "127.0.0.1",
    port: int = 8765,
    *,
    idle_ttl: float | None = 900.0,
    max_sessions: int = 4096,
    job_store: str | None = None,
    shards: int = 2,
    drain_timeout: float = 30.0,
    eviction_interval: float | None = None,
    http_workers: int = 8,
    verbose: bool = False,
    join: str | None = None,
    capacity: int = 1,
    worker_url: str | None = None,
    lease_ttl: float = 60.0,
    heartbeat_ttl: float = 15.0,
) -> int:
    """Blocking entry point behind ``python -m repro serve``.

    Exits gracefully on SIGTERM (and Ctrl-C): the listener stops, any
    running jobs drain to the durable store — in-flight chunks flush,
    so ``repro jobs resume`` picks up exactly where the server stopped
    — and the process returns 0.
    """
    import signal

    from repro.jobs import JobStore, default_store_path

    jobs = JobService(JobStore(job_store or default_store_path()),
                      shards=shards, lease_ttl=lease_ttl,
                      heartbeat_ttl=heartbeat_ttl)
    server = AsyncMarketplaceServer(
        host, port,
        manager=SessionManager(max_sessions=max_sessions,
                               idle_ttl=idle_ttl or None),
        jobs=jobs,
        workers=http_workers,
        eviction_interval=eviction_interval,
        drain_timeout=drain_timeout,
        verbose=verbose,
    )
    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop.set())
    bound_host, bound_port = server.start_background()
    print(f"repro marketplace service on http://{bound_host}:{bound_port} "
          f"(SIGTERM or Ctrl-C to stop)")
    agent = None
    if join:
        agent = start_fleet_agent(
            join, server.ctx, bound_host, bound_port,
            capacity=capacity, worker_url=worker_url,
        )
    while not stop.wait(0.5):
        pass
    # The drain itself is bounded by drain_timeout; the margin covers
    # closing connections and the loop teardown.
    server.shutdown(timeout=drain_timeout + 10.0)
    if agent is not None:
        agent.stop()
    print("repro marketplace service drained and stopped")
    return 0


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    """CLI flags for the ``serve`` command (kept next to the server)."""
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8765,
                        help="bind port (default 8765; 0 = ephemeral)")
    parser.add_argument("--idle-ttl", type=float, default=900.0, metavar="SECS",
                        help="evict sessions idle longer than this "
                             "(default 900; 0 disables)")
    parser.add_argument("--max-sessions", type=int, default=4096,
                        help="resident-session cap (default 4096)")
    parser.add_argument("--job-store", default=None, metavar="PATH",
                        help="durable job store (default: $REPRO_JOB_STORE "
                             "or ~/.cache/repro/jobs.sqlite3)")
    parser.add_argument("--shards", type=int, default=2, metavar="N",
                        help="worker shards for submitted jobs (default 2; "
                             "0 = all cores)")
    parser.add_argument("--drain-timeout", type=float, default=30.0,
                        metavar="SECS",
                        help="grace for in-flight job chunks on shutdown")
    parser.add_argument("--eviction-interval", type=float, default=None,
                        metavar="SECS",
                        help="periodic idle-session sweep interval "
                             "(default: min(60, idle_ttl/2); 0 disables)")
    parser.add_argument("--http-workers", type=int, default=8, metavar="N",
                        help="handler threads for requests that may "
                             "block, e.g. market builds and job routes "
                             "(default 8)")
    parser.add_argument("--verbose", action="store_true",
                        help="log every request")
    parser.add_argument("--join", default=None, metavar="URL",
                        help="join a coordinator's worker fleet: register "
                             "at URL, heartbeat, and pull job chunks from "
                             "its lease queue")
    parser.add_argument("--capacity", type=int, default=1, metavar="N",
                        help="chunks this worker pulls concurrently when "
                             "joined (default 1)")
    parser.add_argument("--worker-url", default=None, metavar="URL",
                        help="advertised URL for --join (default: the "
                             "bound address); the worker's fleet identity")
    parser.add_argument("--lease-ttl", type=float, default=60.0,
                        metavar="SECS",
                        help="coordinator: seconds a worker owns a leased "
                             "chunk before it becomes stealable "
                             "(default 60)")
    parser.add_argument("--heartbeat-ttl", type=float, default=15.0,
                        metavar="SECS",
                        help="coordinator: seconds without a heartbeat "
                             "before a worker is lost and its leases "
                             "re-queue (default 15)")
