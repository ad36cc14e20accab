"""Multi-host jobs: RemoteShardExecutor vs the single-process digest.

Workers here are real ``AsyncMarketplaceServer`` instances on ephemeral
ports — the same server ``python -m repro serve`` runs — and the
coordinator ships chunks to them over ``POST /v1/chunks``.  The merged
report must digest-match the single-process
:class:`~repro.simulate.pool.SessionPool` path through interruption,
worker death, and resume.
"""

import threading
import time

import pytest

from repro.jobs import JobStore, RemoteShardExecutor
from repro.service import (
    MarketPool,
    SessionManager,
    SimulationSpec,
    run_simulation,
)
from repro.service.async_server import AsyncMarketplaceServer

SPEC = SimulationSpec(sessions=120, seed=11, batch_size=32)


def _worker():
    server = AsyncMarketplaceServer(
        port=0, manager=SessionManager(pool=MarketPool())
    )
    server.start_background()
    return server, server.url


@pytest.fixture
def workers():
    started = [_worker() for _ in range(2)]
    yield [url for _, url in started]
    for server, _ in started:
        server.shutdown()


@pytest.fixture
def store(tmp_path):
    return JobStore(str(tmp_path / "jobs.sqlite3"))


@pytest.fixture(scope="module")
def reference_digest():
    return run_simulation(SPEC)[2].digest()


class TestDigestParity:
    def test_two_workers_match_single_process(self, workers, store,
                                              reference_digest):
        executor = RemoteShardExecutor(store, workers)
        assert {url: h["ok"] for url, h in executor.probe(timeout=10).items()}
        record = executor.run(executor.submit(SPEC, chunks=6).job_id)
        assert record.status == "done"
        assert record.digest == reference_digest

    def test_one_worker_matches_too(self, workers, store, reference_digest):
        executor = RemoteShardExecutor(store, workers[:1])
        record = executor.run(executor.submit(SPEC, chunks=4).job_id)
        assert record.status == "done"
        assert record.digest == reference_digest


class TestKillResume:
    def test_interrupt_then_resume_with_survivor(self, store,
                                                 reference_digest):
        """max_chunks interrupt, kill a worker, resume on the survivor."""
        (w1, u1), (w2, u2) = _worker(), _worker()
        try:
            first = RemoteShardExecutor(store, [u1, u2], max_chunks=2)
            record = first.run(first.submit(SPEC, chunks=6).job_id)
            assert record.status == "interrupted"
            assert 0 < record.done_chunks < record.n_chunks

            # Worker 1 dies; the resume fleet still lists it, so the
            # executor must discover the corpse and finish on the
            # survivor — with only the pending chunks re-run.
            w1.shutdown()
            resumed = RemoteShardExecutor(
                store, [u1, u2],
                client_options={"retries": 0, "timeout": 10},
            )
            record = resumed.run(record.job_id)
            assert record.status == "done"
            assert record.digest == reference_digest
        finally:
            w2.shutdown()

    def test_dead_worker_is_dropped_and_chunks_requeued(self, store,
                                                        reference_digest):
        (alive_server, alive_url), (dead_server, dead_url) = (
            _worker(), _worker()
        )
        try:
            dead_server.shutdown()
            executor = RemoteShardExecutor(
                store, [dead_url, alive_url],
                client_options={"retries": 0, "timeout": 10},
            )
            record = executor.run(executor.submit(SPEC, chunks=4).job_id)
            assert record.status == "done"
            assert record.digest == reference_digest
        finally:
            alive_server.shutdown()

    def test_all_workers_dead_leaves_job_resumable(self, store,
                                                   reference_digest):
        server, url = _worker()
        server.shutdown()
        executor = RemoteShardExecutor(
            store, [url], client_options={"retries": 0, "timeout": 5}
        )
        record = executor.run(executor.submit(SPEC, chunks=4).job_id)
        assert record.status == "interrupted"
        assert record.done_chunks == 0

        live_server, live_url = _worker()
        try:
            resumed = RemoteShardExecutor(store, [live_url])
            record = resumed.run(record.job_id)
            assert record.status == "done"
            assert record.digest == reference_digest
        finally:
            live_server.shutdown()


class TestFailureSemantics:
    def test_worker_error_reply_fails_the_job(self, workers, store):
        """A chunk that *raises* (bad spec) fails the job, not retries."""
        from repro.client import ClientError

        record = store.submit("simulation", {"sessions": "nonsense"},
                              [(0, 1)])
        executor = RemoteShardExecutor(store, workers)
        with pytest.raises(ClientError):
            executor.run(record.job_id)
        assert store.get(record.job_id).status == "failed"

    def test_worker_urls_validated(self, store):
        with pytest.raises(ValueError, match="at least one"):
            RemoteShardExecutor(store, [])
        with pytest.raises(ValueError, match="duplicate"):
            RemoteShardExecutor(store, ["http://a:1", "http://a:1"])
        with pytest.raises(ValueError, match="chunk_timeout"):
            RemoteShardExecutor(store, ["http://a:1"], chunk_timeout=0)


class TestHungWorker:
    """A hung-but-connected worker must not stall the sweep forever.

    Failure-only death detection cannot see this case: the socket stays
    open, so no TransportError ever fires.  The per-chunk wall deadline
    (``chunk_timeout``) is the only guard — past it the chunk re-queues
    to the survivors and the hung worker is dropped.
    """

    def _hung_server(self):
        """Accepts connections and reads forever, never replying."""
        import socket

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        stop = threading.Event()
        conns = []

        def serve():
            listener.settimeout(0.2)
            while not stop.is_set():
                try:
                    conn, _ = listener.accept()
                except OSError:
                    continue
                conn.settimeout(0.2)
                conns.append(conn)

        threading.Thread(target=serve, daemon=True).start()
        url = "http://127.0.0.1:%d" % listener.getsockname()[1]

        def close():
            stop.set()
            for conn in conns:
                conn.close()
            listener.close()

        return url, close

    def test_hung_worker_chunk_requeued_within_wall_deadline(
        self, store, reference_digest
    ):
        hung_url, close_hung = self._hung_server()
        good_server, good_url = _worker()
        try:
            executor = RemoteShardExecutor(
                store, [hung_url, good_url],
                chunk_timeout=1.5,
                # A generous socket timeout proves the *wall* deadline
                # does the catching, not transport-level inactivity.
                client_options={"timeout": 120, "retries": 0},
            )
            t0 = time.monotonic()
            record = executor.run(executor.submit(SPEC, chunks=4).job_id)
            assert record.status == "done"
            assert record.digest == reference_digest
            # The sweep finished promptly after the deadline, not after
            # the 120s socket timeout.
            assert time.monotonic() - t0 < 60
            from repro import obs

            timeouts = obs.REGISTRY.counter(
                "repro_remote_chunks_total",
                "Chunk POSTs per worker URL, by result.",
                ("worker", "result"),
            )
            assert timeouts.value(worker=hung_url, result="timeout") >= 1
        finally:
            close_hung()
            good_server.shutdown()
