"""Elastic fleet end to end: join, pull, steal, adopt — digest-pinned.

Coordinators here are real ``AsyncMarketplaceServer`` instances;
workers are real :class:`~repro.fleet.agent.FleetAgent` threads leasing
over HTTP.
Every sweep must merge to the same digest as the single-process
:class:`~repro.simulate.pool.SessionPool` path, whatever the
join/leave/kill interleaving — that is the tentpole contract.
"""

import threading
import time

import pytest

from repro.client import MarketplaceClient
from repro.fleet.agent import FleetAgent
from repro.jobs.executor import FleetExecutor
from repro.fleet.manager import FleetManager
from repro.jobs import JobStore
from repro.service import (
    JobService,
    MarketPool,
    SessionManager,
    SimulationSpec,
    run_simulation,
)
from repro.service.async_server import AsyncMarketplaceServer

SPEC = SimulationSpec(sessions=120, seed=11, batch_size=32)


def _coordinator(store, *, lease_ttl=30.0, heartbeat_ttl=30.0, port=0):
    server = AsyncMarketplaceServer(
        port=port,
        manager=SessionManager(pool=MarketPool()),
        jobs=JobService(store, lease_ttl=lease_ttl,
                        heartbeat_ttl=heartbeat_ttl),
    )
    server.start_background()
    return server, server.url


def _stop(server):
    server.shutdown()


@pytest.fixture
def store(tmp_path):
    return JobStore(str(tmp_path / "jobs.sqlite3"))


@pytest.fixture(scope="module")
def reference_digest():
    return run_simulation(SPEC)[2].digest()


def _wait_done(client, job_id, timeout=120.0):
    return client.wait_job(job_id, timeout=timeout)


class TestFleetSweep:
    def test_two_joined_workers_drain_to_reference_digest(
        self, store, reference_digest
    ):
        server, url = _coordinator(store)
        agents = [
            FleetAgent(url, f"http://worker-{i}.test", capacity=2,
                       poll=0.05, heartbeat_interval=0.2)
            for i in range(2)
        ]
        try:
            for agent in agents:
                agent.start()
            with MarketplaceClient.connect(url) as client:
                submitted = client.submit_simulation(SPEC, chunks=6,
                                                     fleet=True)
                final = _wait_done(client, submitted["job"])
                assert final["status"] == "done"
                assert final["digest"] == reference_digest
                status = client.fleet_status()
                assert len(status["workers"]) == 2
                assert status["queue"] == 0
        finally:
            for agent in agents:
                agent.stop()
            _stop(server)

    def test_late_joiner_picks_up_a_waiting_queue(self, store,
                                                  reference_digest):
        """Submitting before any worker exists parks the queue; the
        first join drains it."""
        server, url = _coordinator(store)
        agent = FleetAgent(url, "http://late.test", capacity=2,
                           poll=0.05, heartbeat_interval=0.2)
        try:
            with MarketplaceClient.connect(url) as client:
                submitted = client.submit_simulation(SPEC, chunks=4,
                                                     fleet=True)
                time.sleep(0.3)
                assert client.job(submitted["job"])["chunks_done"] == 0
                agent.start()
                final = _wait_done(client, submitted["job"])
                assert final["digest"] == reference_digest
        finally:
            agent.stop()
            _stop(server)

    def test_worker_chunk_error_fails_the_job(self, store):
        """A chunk that *raises* on its worker fails the job (no retry
        loop) — a bad spec raises identically everywhere."""
        server, url = _coordinator(store)
        agent = FleetAgent(url, "http://bad.test", poll=0.05,
                           heartbeat_interval=0.2)
        record = store.submit("simulation", {"sessions": "nonsense"},
                              [(0, 1)])
        try:
            agent.start()
            with MarketplaceClient.connect(url) as client:
                client.resume_job(record.job_id, fleet=True)
                final = _wait_done(client, record.job_id)
                assert final["status"] == "failed"
                assert agent.worker_id in final["error"]
        finally:
            agent.stop()
            _stop(server)


class TestGracefulStop:
    def test_stop_mid_chunk_delivers_the_result(self, store):
        """stop() leases nothing more but delivers what is in flight:
        the chunk ends done by the stopping worker instead of going
        back to the queue for another worker to run again."""
        from repro import obs

        server, url = _coordinator(store)
        agent = FleetAgent(url, "http://leaving.test", poll=0.05,
                           heartbeat_interval=0.2, throttle=0.5)
        chunks = obs.REGISTRY.counter(
            "repro_fleet_agent_chunks_total",
            "Chunks this worker leased, by result.", ("result",),
        )
        done_before = chunks.value(result="done")
        try:
            agent.start()
            with MarketplaceClient.connect(url) as client:
                job_id = client.submit_simulation(SPEC, chunks=1,
                                                  fleet=True)["job"]
                deadline = time.monotonic() + 60
                while not store.leases(active_only=True):
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
                agent.stop()
                assert store.get(job_id).done_chunks == 1
                [lease] = store.leases()
                assert lease["worker"] == agent.worker_id
                assert lease["status"] == "done"
                assert chunks.value(result="done") == done_before + 1
                assert _wait_done(client, job_id)["status"] == "done"
        finally:
            agent.stop()
            _stop(server)


class TestCrashAdoption:
    def test_coordinator_restart_adopts_workers_and_resumes(
        self, store, reference_digest
    ):
        """Kill the coordinator mid-sweep; a fresh one on the same store
        re-adopts the (still-heartbeating) workers from their next pulse
        and the resumed job reaches the reference digest."""
        server, url = _coordinator(store)
        agent = FleetAgent(url, "http://survivor.test", capacity=1,
                           poll=0.05, heartbeat_interval=0.2,
                           throttle=0.1)
        try:
            agent.start()
            with MarketplaceClient.connect(url) as client:
                submitted = client.submit_simulation(SPEC, chunks=6,
                                                     fleet=True)
                job_id = submitted["job"]
                deadline = time.monotonic() + 60
                while client.job(job_id)["chunks_done"] == 0:
                    assert time.monotonic() < deadline
                    time.sleep(0.05)
            # Stop mid-sweep: the drain closes every connection and
            # leaves the job interrupted.  The agent keeps running and
            # rides out the outage on its retry loops.
            _stop(server)

            # Restart "the coordinator" on the same port and store.
            server2, url2 = _coordinator(store, port=server.address[1])
            assert url2 == url
            agent._registered.clear()
            with MarketplaceClient.connect(url2) as client:
                partial = client.job(job_id)
                assert 0 < partial["chunks_done"] < partial["chunks"]
                resumed = client.resume_job(job_id, fleet=True)
                assert resumed["started"]
                final = _wait_done(client, job_id)
                assert final["status"] == "done"
                assert final["digest"] == reference_digest
                # The worker row survived the restart in the store and
                # was re-adopted, not re-created.
                status = client.fleet_status()
                assert [w["worker"] for w in status["workers"]] == [
                    agent.worker_id
                ]
            _stop(server2)
        finally:
            agent.stop(deregister=False)

    def test_lost_worker_chunks_are_stolen_by_survivor(
        self, store, reference_digest
    ):
        """A worker that vanishes mid-chunk loses its lease to the
        survivor once its heartbeat goes stale."""
        server, url = _coordinator(store, lease_ttl=1.0, heartbeat_ttl=0.6)
        doomed = FleetAgent(url, "http://doomed.test", poll=0.05,
                            heartbeat_interval=0.2, throttle=5.0)
        try:
            doomed.start()
            with MarketplaceClient.connect(url) as client:
                submitted = client.submit_simulation(SPEC, chunks=4,
                                                     fleet=True)
                job_id = submitted["job"]
                time.sleep(0.3)  # let the doomed worker grab a lease
                # Vanish without deregistering (kill -9 semantics: the
                # throttle keeps its one chunk in flight forever).
                doomed.stop(deregister=False, timeout=0.1)

                survivor = FleetAgent(url, "http://survivor.test",
                                      capacity=2, poll=0.05,
                                      heartbeat_interval=0.2)
                survivor.start()
                try:
                    final = _wait_done(client, job_id)
                    assert final["status"] == "done"
                    assert final["digest"] == reference_digest
                finally:
                    survivor.stop()
        finally:
            doomed.stop(deregister=False, timeout=0.1)
            _stop(server)


class TestHungWorker:
    def test_hung_worker_chunk_is_rescued_by_lease_expiry(
        self, store, reference_digest
    ):
        """A worker whose chunk never returns in time keeps heartbeating,
        so heartbeat expiry never fires: only lease expiry can hand its
        chunk to a survivor.  Its late completion is a duplicate."""
        from repro import obs

        lease_ttl, throttle = 1.0, 6.0
        server, url = _coordinator(store, lease_ttl=lease_ttl,
                                   heartbeat_ttl=5.0)
        hung = FleetAgent(url, "http://hung.test", poll=0.05,
                          heartbeat_interval=0.2, throttle=throttle)
        leases = obs.REGISTRY.counter(
            "repro_fleet_leases_total", "Chunk lease lifecycle events.",
            ("event",),
        )
        duplicates = leases.value(event="duplicate")
        try:
            hung.start()
            with MarketplaceClient.connect(url) as client:
                job_id = client.submit_simulation(SPEC, chunks=4,
                                                  fleet=True)["job"]
                deadline = time.monotonic() + 60
                while not any(row["worker"] == hung.worker_id
                              for row in client.fleet_status()["leases"]):
                    assert time.monotonic() < deadline
                    time.sleep(0.05)
                t0 = time.monotonic()
                survivor = FleetAgent(url, "http://survivor.test",
                                      capacity=2, poll=0.05,
                                      heartbeat_interval=0.2)
                survivor.start()
                try:
                    final = _wait_done(client, job_id)
                    assert final["status"] == "done"
                    assert final["digest"] == reference_digest
                    assert time.monotonic() - t0 < throttle / 2
                    rows = {row["worker"]: row["status"]
                            for row in client.fleet_status()["workers"]}
                    assert rows[hung.worker_id] == "live"
                    # The throttle ends and the hung worker delivers its
                    # chunk after the job is done: a duplicate
                    # (`first: false`) that moves nothing.
                    deadline = time.monotonic() + throttle + 30
                    while leases.value(event="duplicate") == duplicates:
                        assert time.monotonic() < deadline
                        time.sleep(0.1)
                    assert all(row["worker"] != hung.worker_id
                               for row in store.leases())
                    assert client.job(job_id)["digest"] == reference_digest
                finally:
                    survivor.stop()
        finally:
            hung.stop(deregister=False, timeout=0.1)
            _stop(server)


class TestInterruptResume:
    """The ``repro jobs run --fleet --store S`` shape: a
    :class:`FleetExecutor` over the same store file the coordinator
    serves the lease routes from."""

    def test_interrupt_kill_a_worker_resume_on_the_survivor(
        self, store, reference_digest
    ):
        server, url = _coordinator(store, lease_ttl=30.0, heartbeat_ttl=0.6)
        # The throttle keeps chunks slow enough that the interrupt
        # lands with chunks still pending.
        doomed, survivor = (
            FleetAgent(url, f"http://{name}.test", poll=0.05,
                       heartbeat_interval=0.2, throttle=0.1)
            for name in ("doomed", "survivor")
        )
        try:
            doomed.start()
            survivor.start()
            first = FleetExecutor(store, max_chunks=2, poll=0.02)
            record = first.run(first.submit(SPEC, chunks=6).job_id)
            assert record.status == "interrupted"
            assert 0 < record.done_chunks < record.n_chunks
            # kill -9 semantics: no goodbye, so only its stale heartbeat
            # frees whatever it still holds.
            doomed.stop(deregister=False, timeout=0.1)
            assert store.pending_chunks(record.job_id)

            record = FleetExecutor(store, poll=0.02).run(record.job_id)
            assert record.status == "done"
            assert record.digest == reference_digest
        finally:
            doomed.stop(deregister=False, timeout=0.1)
            survivor.stop()
            _stop(server)

    def test_all_workers_gone_leaves_job_resumable(self, store,
                                                   reference_digest):
        server, url = _coordinator(store, lease_ttl=30.0, heartbeat_ttl=0.6)
        fleet = FleetManager(store, lease_ttl=30.0, heartbeat_ttl=0.6)
        stop = threading.Event()
        executor = FleetExecutor(store, fleet=fleet, stop_event=stop,
                                 poll=0.02)
        record = executor.submit(SPEC, chunks=4)
        doomed = FleetAgent(url, "http://doomed.test", poll=0.05,
                            heartbeat_interval=0.2, throttle=30.0)
        finished = []
        runner = threading.Thread(
            target=lambda: finished.append(executor.run(record.job_id)),
            daemon=True,
        )
        runner.start()
        try:
            doomed.start()
            deadline = time.monotonic() + 60
            while not store.leases(active_only=True):
                assert time.monotonic() < deadline
                time.sleep(0.05)
            doomed.stop(deregister=False, timeout=0.1)
            # The only worker vanished mid-chunk: once its heartbeat is
            # stale the executor's liveness sweep frees its lease, and
            # the queue has nobody working it.
            while store.leases(active_only=True):
                assert time.monotonic() < deadline
                time.sleep(0.05)
            assert store.get(record.job_id).done_chunks == 0
            stop.set()
            runner.join(timeout=60)
            assert not runner.is_alive()
            (record,) = finished
            assert record.status == "interrupted"
            assert record.done_chunks == 0

            with FleetAgent(url, "http://late.test", capacity=2, poll=0.05,
                            heartbeat_interval=0.2):
                record = FleetExecutor(store, poll=0.02).run(record.job_id)
            assert record.status == "done"
            assert record.digest == reference_digest
        finally:
            stop.set()
            runner.join(timeout=60)
            doomed.stop(deregister=False, timeout=0.1)
            _stop(server)


class TestFleetExecutorLocal:
    def test_arguments_are_validated(self, store):
        with pytest.raises(ValueError, match="coordinator"):
            FleetAgent("", "http://a.test")
        with pytest.raises(ValueError, match="capacity"):
            FleetAgent("http://c.test", "http://a.test", capacity=0)
        with pytest.raises(ValueError, match="throttle"):
            FleetAgent("http://c.test", "http://a.test", throttle=-1)
        with pytest.raises(ValueError, match="poll"):
            FleetExecutor(store, poll=0)
        with pytest.raises(ValueError, match="lease_ttl"):
            FleetManager(store, lease_ttl=0)

    def test_idle_timeout_is_not_an_option(self, store):
        """A run with nobody working the queue waits until a stop: there
        is no idle deadline to set."""
        with pytest.raises(TypeError, match="idle_timeout"):
            FleetExecutor(store, idle_timeout=0.1)

    def test_stop_leaves_an_unworked_queue_resumable(self, store):
        stop = threading.Event()
        executor = FleetExecutor(store, stop_event=stop, poll=0.02)
        record = executor.submit(SPEC, chunks=4)
        timer = threading.Timer(0.3, stop.set)
        timer.start()
        try:
            record = executor.run(record.job_id)
        finally:
            timer.cancel()
        assert record.status == "interrupted"
        assert record.done_chunks == 0
        assert len(store.pending_chunks(record.job_id)) == 4

    def test_max_chunks_budget_interrupts(self, store, reference_digest):
        """max_chunks bounds completions per invocation — the CI drill
        hook — and a later unbounded run finishes the job."""
        from repro.jobs.executor import CHUNK_RUNNERS

        fleet = FleetManager(store)
        record = None
        done = threading.Event()

        def inline_worker():
            wid = fleet.register("http://inline.test")["worker"]
            while not done.is_set():
                lease = fleet.lease(wid)["lease"]
                if lease is None:
                    time.sleep(0.02)
                    continue
                payload = CHUNK_RUNNERS[lease["kind"]](
                    lease["spec"], lease["start"], lease["stop"]
                )
                fleet.complete(wid, lease["job"], lease["chunk"], payload)

        thread = threading.Thread(target=inline_worker, daemon=True)
        thread.start()
        try:
            first = FleetExecutor(store, fleet=fleet, max_chunks=2,
                                  poll=0.02)
            record = first.run(first.submit(SPEC, chunks=6).job_id)
            assert record.status == "interrupted"
            assert record.done_chunks >= 2

            second = FleetExecutor(store, fleet=fleet, poll=0.02)
            record = second.run(record.job_id)
            assert record.status == "done"
            assert record.digest == reference_digest
        finally:
            done.set()
            thread.join(timeout=5)
