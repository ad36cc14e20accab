"""A fleet request is one store transaction.

Each ``/v1/workers`` route and each liveness sweep opens exactly one
SQLite connection: the sweep, the worker check and the write they guard
share one ``BEGIN IMMEDIATE``.  An unknown worker is refused inside that
transaction (404 ``not_found``) and moves no row, and the
``repro_fleet_workers`` gauge is set from the same transaction whenever
membership moves.
"""

import sqlite3
from contextlib import closing

import pytest

import repro.jobs.store as store_module
from repro import obs
from repro.fleet import FleetManager
from repro.fleet.manager import worker_id_for
from repro.jobs import JobStore
from repro.jobs.executor import FleetExecutor, run_simulation_chunk, submit_simulation
from repro.service import JobService, SimulationSpec
from repro.service.api import ServiceContext, dispatch
from repro.service.manager import SessionManager
from repro.service.simulation import run_simulation

SPEC = SimulationSpec(sessions=24, seed=3, batch_size=8)
URL = "http://a:1"


@pytest.fixture
def store(tmp_path):
    return JobStore(str(tmp_path / "jobs.sqlite3"))


@pytest.fixture
def service(store):
    return JobService(store, lease_ttl=30.0, heartbeat_ttl=5.0)


@pytest.fixture
def call(service):
    ctx = ServiceContext(manager=SessionManager(), jobs=service)

    def call(method, path, body=None):
        return dispatch(ctx, method, path, body=body)

    return call


@pytest.fixture
def connections(monkeypatch):
    """Counts ``sqlite3.connect`` calls made while it is read."""
    opened = []
    connect = sqlite3.connect

    def spy(*args, **kwargs):
        opened.append(args)
        return connect(*args, **kwargs)

    monkeypatch.setattr(sqlite3, "connect", spy)
    return opened


def _rows(store):
    with closing(sqlite3.connect(store.path)) as conn:
        return {table: conn.execute(f"SELECT * FROM {table}").fetchall()
                for table in ("jobs", "chunks", "workers", "leases")}


def _one_connection(connections, call, method, path, body=None):
    before = len(connections)
    reply = call(method, path, body)
    assert len(connections) - before == 1, (method, path)
    return reply


class TestOneConnectionPerRequest:
    def test_every_worker_route_opens_one_connection(self, store, call,
                                                     connections):
        record = submit_simulation(store, SPEC, chunks=2)
        wid = _one_connection(connections, call, "POST", "/v1/workers",
                              {"url": URL}).payload["worker"]
        base = f"/v1/workers/{wid}"
        _one_connection(connections, call, "POST", f"{base}/heartbeat",
                        {"load": {"sessions": 0, "chunks": 0}})
        first = _one_connection(connections, call, "POST", f"{base}/lease",
                                {}).payload["lease"]
        second = _one_connection(connections, call, "POST", f"{base}/lease",
                                 {}).payload["lease"]
        empty = _one_connection(connections, call, "POST", f"{base}/lease",
                                {})
        assert empty.payload == {"lease": None}
        done = _one_connection(
            connections, call, "POST", f"{base}/complete",
            {"job": first["job"], "chunk": first["chunk"],
             "result": {"start": 0, "stop": 12}, "elapsed": 0.1})
        assert done.status == 200 and done.payload["first"]
        failed = _one_connection(
            connections, call, "POST", f"{base}/complete",
            {"job": second["job"], "chunk": second["chunk"],
             "error": "ValueError('bad')"})
        assert failed.payload["failed"]
        left = _one_connection(connections, call, "DELETE", base)
        assert left.payload == {"worker": wid, "left": True}
        assert store.get(record.job_id).status == "failed"

    def test_a_liveness_sweep_opens_one_connection(self, store, connections):
        fleet = FleetManager(store)
        fleet.register(URL)
        before = len(connections)
        assert fleet.expire() == {"lost": [], "expired": []}
        assert len(connections) - before == 1


class TestUnknownWorker:
    @pytest.mark.parametrize("body", [
        {},
        {"job": "j0", "chunk": 0, "result": {}},
        {"job": "j0", "chunk": 0, "error": "ValueError('bad')"},
    ], ids=["lease", "complete", "fail"])
    def test_is_not_found_and_moves_no_row(self, store, call, body):
        record = submit_simulation(store, SPEC, chunks=2)
        wid = call("POST", "/v1/workers", {"url": URL}).payload["worker"]
        lease = call("POST", f"/v1/workers/{wid}/lease", {}).payload["lease"]
        if "chunk" in body:
            body = {**body, "job": record.job_id, "chunk": lease["chunk"]}
        route = "lease" if not body else "complete"
        before = _rows(store)
        reply = call("POST", f"/v1/workers/w000000000000/{route}", body)
        assert reply.status == 404
        assert reply.payload["error"]["code"] == "not_found"
        assert "w000000000000" in reply.payload["error"]["message"]
        assert _rows(store) == before


class TestWorkerGauge:
    def test_counts_follow_register_lost_readopt_and_leave(
        self, store, monkeypatch
    ):
        gauge = obs.REGISTRY.gauge("repro_fleet_workers")
        now = [1000.0]
        monkeypatch.setattr(store_module, "_wall_now", lambda: now[0])
        fleet = FleetManager(store, heartbeat_ttl=5.0)

        def counts():
            return {state: gauge.value(state=state)
                    for state in ("live", "lost", "left")}

        fleet.register("http://a:1")
        assert counts() == {"live": 1, "lost": 0, "left": 0}
        fleet.register("http://b:1")
        assert counts() == {"live": 2, "lost": 0, "left": 0}
        now[0] += 6.0
        fleet.heartbeat(worker_id_for("http://b:1"))  # its sweep loses a
        assert counts() == {"live": 1, "lost": 1, "left": 0}
        fleet.heartbeat(worker_id_for("http://a:1"))  # re-adopted
        assert counts() == {"live": 2, "lost": 0, "left": 0}
        fleet.deregister(worker_id_for("http://b:1"))
        assert counts() == {"live": 1, "lost": 0, "left": 1}


class TestExecutorTail:
    def test_chunk_results_opens_one_connection(self, store, connections):
        record = submit_simulation(store, SPEC, chunks=2)
        before = len(connections)
        assert store.chunk_results(record.job_id) == {}
        with pytest.raises(KeyError, match="unknown job"):
            store.chunk_results("j-missing")
        assert len(connections) - before == 2

    def test_finishing_a_drained_job_reads_its_record_once(self, store,
                                                          connections):
        """Seven connections: the opening read, ``running``, the drain's
        read, the read after the drain (which ``_finish`` merges from),
        the chunk results, the finish and the final record."""
        record = submit_simulation(store, SPEC, chunks=2)
        for index, (start, stop) in enumerate(record.chunks):
            store.record_chunk(record.job_id, index,
                               run_simulation_chunk(record.spec, start, stop))
        executor = FleetExecutor(store)
        before = len(connections)
        final = executor.run(record.job_id)
        assert len(connections) - before == 7
        assert final.status == "done"
        assert final.digest == run_simulation(SPEC)[2].digest()
