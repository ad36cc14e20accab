"""Cross-host tracing over the fleet: one chunk, one stitched trace.

Two :class:`~repro.fleet.agent.FleetAgent` workers drain a job from a
live ``AsyncMarketplaceServer`` coordinator.  Each leased chunk runs
under a root ``fleet-chunk:`` span; the agent delivers the result under
that span's context, so the completion POST carries the chunk's trace
id in its ``traceparent`` header and the coordinator's dispatch span
joins the same trace.  Agents and coordinator share this process, so
every span lands in ``obs.TRACER`` and the whole tree can be asserted
in one place.
"""

import pytest

from repro import obs
from repro.client import MarketplaceClient
from repro.fleet.agent import FleetAgent
from repro.jobs import JobStore
from repro.service import JobService, MarketPool, SessionManager, SimulationSpec
from repro.service.async_server import AsyncMarketplaceServer

SPEC = SimulationSpec(sessions=60, seed=3, batch_size=32)
N_CHUNKS = 4
COMPLETE_ROUTE = "/v1/workers/{worker_id}/complete"


@pytest.fixture
def coordinator(tmp_path):
    store = JobStore(str(tmp_path / "jobs.sqlite3"))
    with AsyncMarketplaceServer(
        port=0,
        manager=SessionManager(pool=MarketPool()),
        jobs=JobService(store, lease_ttl=30.0, heartbeat_ttl=30.0),
    ) as server:
        yield server.url


def _drain(coordinator, **agent_options):
    """Run one fleet job on two agents; return its spans and workers."""
    seq0 = obs.TRACER.last_seq()
    agents = [
        FleetAgent(coordinator, f"http://worker-{i}.test", poll=0.05,
                   heartbeat_interval=0.2, **agent_options)
        for i in range(2)
    ]
    for agent in agents:
        agent.start()
    try:
        with MarketplaceClient.connect(coordinator) as client:
            job = client.submit_simulation(SPEC, chunks=N_CHUNKS,
                                           fleet=True)["job"]
            assert client.wait_job(job, timeout=120)["status"] == "done"
    finally:
        # Joining the pullers guarantees every delivery (and so its
        # dispatch span) has finished before the ring is read.
        for agent in agents:
            agent.stop()
    spans = obs.TRACER.spans(offset=seq0)
    chunks = [s for s in spans if s["name"] == "fleet-chunk:simulation"]
    assert sorted(s["attrs"]["chunk"] for s in chunks) == list(
        range(N_CHUNKS)
    )
    return spans, chunks, {agent.worker_id for agent in agents}


def _completion_post(spans, chunk):
    [post] = [
        s for s in spans
        if s["parent_id"] == chunk["span_id"]
        and s["name"].startswith("client:POST /v1/workers/")
    ]
    return post


class TestFleetChunkTracing:
    def test_completion_is_stitched_under_its_chunk_span(self, coordinator):
        spans, chunks, workers = _drain(coordinator)
        for chunk in chunks:
            assert chunk["parent_id"] is None
            post = _completion_post(spans, chunk)
            worker = post["name"].split("/")[3]
            assert worker in workers
            assert post["name"] == f"client:POST /v1/workers/{worker}/complete"
            [dispatch] = [
                s for s in spans
                if s["parent_id"] == post["span_id"]
                and s["name"] == "dispatch"
            ]
            assert dispatch["attrs"]["route"] == COMPLETE_ROUTE
            assert (chunk["trace_id"] == post["trace_id"]
                    == dispatch["trace_id"])

    def test_chunk_span_times_the_chunk_alone(self, coordinator):
        """The delivery joins the chunk's trace without widening its
        span: with a per-chunk throttle between the run and the
        report, the completion POST starts a throttle after the chunk
        span has ended."""
        throttle = 0.3
        spans, chunks, _ = _drain(coordinator, throttle=throttle)
        for chunk in chunks:
            post = _completion_post(spans, chunk)
            ended = chunk["start"] + chunk["duration"]
            assert post["start"] - ended >= throttle - 0.05
