"""Cross-host tracing: one RemoteShardExecutor sweep, one stitched trace.

Workers are real ``AsyncMarketplaceServer`` instances on ephemeral ports.  The
coordinator's sweep opens a root span; every chunk POST carries the
trace id in its ``traceparent`` header; the worker-side dispatch and
chunk-runner spans join the same trace.  Because the workers live in
this process, every span lands in the shared ``obs.TRACER`` and the
whole tree can be asserted in one place.
"""

import pytest

from repro import obs
from repro.jobs import JobStore, RemoteShardExecutor
from repro.service import MarketPool, SessionManager, SimulationSpec
from repro.service.async_server import AsyncMarketplaceServer

SPEC = SimulationSpec(sessions=60, seed=3, batch_size=32)
N_CHUNKS = 4


@pytest.fixture
def workers():
    with AsyncMarketplaceServer(
        port=0, manager=SessionManager(pool=MarketPool())
    ) as first, AsyncMarketplaceServer(
        port=0, manager=SessionManager(pool=MarketPool())
    ) as second:
        yield [first.url, second.url]


class TestRemoteSweepTracing:
    def test_every_chunk_span_carries_the_root_trace_id(self, workers,
                                                        tmp_path):
        store = JobStore(str(tmp_path / "jobs.sqlite3"))
        seq0 = obs.TRACER.last_seq()
        executor = RemoteShardExecutor(store, workers)
        record = executor.run(executor.submit(SPEC, chunks=N_CHUNKS).job_id)
        assert record.status == "done"

        spans = obs.TRACER.spans(offset=seq0)
        roots = [s for s in spans if s["name"] == "job:remote-sweep"]
        assert len(roots) == 1
        root = roots[0]
        assert root["parent_id"] is None

        chunk_spans = [s for s in spans if s["name"] == "chunk:simulation"]
        assert len(chunk_spans) == N_CHUNKS
        assert all(s["trace_id"] == root["trace_id"] for s in chunk_spans)

        # The worker-side dispatch spans joined over the wire (the
        # traceparent header is their only link to the coordinator).
        dispatches = [
            s for s in spans
            if s["name"] == "dispatch" and s["attrs"].get("route") == "/v1/chunks"
        ]
        assert len(dispatches) == N_CHUNKS
        assert all(s["trace_id"] == root["trace_id"] for s in dispatches)

        # Both workers served chunks of the same trace.
        client_posts = [s for s in spans if s["name"] == "client:POST /v1/chunks"]
        assert len(client_posts) == N_CHUNKS
        assert all(s["trace_id"] == root["trace_id"] for s in client_posts)

    def test_stitched_trace_is_complete(self, workers, tmp_path):
        """Every chunk span walks parent links back to the sweep root."""
        store = JobStore(str(tmp_path / "jobs2.sqlite3"))
        seq0 = obs.TRACER.last_seq()
        executor = RemoteShardExecutor(store, workers)
        record = executor.run(executor.submit(SPEC, chunks=N_CHUNKS).job_id)
        assert record.status == "done"

        spans = obs.TRACER.spans(offset=seq0)
        by_id = {s["span_id"]: s for s in spans}
        [root] = [s for s in spans if s["name"] == "job:remote-sweep"]
        for chunk in (s for s in spans if s["name"] == "chunk:simulation"):
            # chunk -> dispatch -> client:POST -> job:remote-sweep
            names = []
            current = chunk
            while current["parent_id"] is not None:
                current = by_id[current["parent_id"]]
                names.append(current["name"])
            assert current["span_id"] == root["span_id"]
            assert names == ["dispatch", "client:POST /v1/chunks",
                             "job:remote-sweep"]
