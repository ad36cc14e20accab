"""HTTP jobs + checkpoint/restore over the wire.

``POST /v1/simulations`` submits durable sharded jobs; ``GET /v1/jobs/<id>``
polls their progress; ``GET``/``PUT /v1/sessions/<id>/state`` ship an
in-flight session between two live servers with a bit-identical
remaining trace.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.jobs import JobStore
from repro.service import (
    JobService,
    MarketPool,
    SessionManager,
    SimulationSpec,
    run_simulation,
)
from repro.service.async_server import AsyncMarketplaceServer

SIM = {"sessions": 60, "seed": 9, "batch_size": 16}


def _call(url, method="GET", body=None):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


@pytest.fixture
def service(tmp_path):
    store = JobStore(str(tmp_path / "jobs.sqlite3"))
    manager = SessionManager(pool=MarketPool())
    with AsyncMarketplaceServer(
        port=0, manager=manager, jobs=JobService(store, shards=2)
    ) as server:
        yield {"url": server.url, "store": store, "server": server}


class TestHealthz:
    def test_healthz_reports_liveness(self, service):
        status, payload = _call(f"{service['url']}/v1/healthz")
        assert status == 200
        assert payload["ok"] and not payload["draining"]
        assert payload["pid"] > 0
        assert payload["sessions"]["resident"] == 0
        assert payload["active_jobs"] == 0

    def test_healthz_load_and_capacity_share_the_heartbeat_shape(
        self, service
    ):
        """`load` is the same `{sessions, chunks}` dict fleet heartbeats
        carry; `capacity` is its static counterpart."""
        status, payload = _call(f"{service['url']}/v1/healthz")
        assert status == 200
        assert payload["load"] == {"sessions": 0, "chunks": 0}
        assert set(payload["capacity"]) == {"sessions", "chunks"}
        assert payload["capacity"]["chunks"] == 2  # the service's shards
        assert payload["capacity"]["sessions"] >= 1


class TestSimulationJobs:
    def _wait_done(self, url, job_id, timeout=120.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, payload = _call(f"{url}/v1/jobs/{job_id}")
            assert status == 200, payload
            if payload["status"] in ("done", "failed"):
                return payload
            time.sleep(0.1)
        raise AssertionError(f"job {job_id} did not finish: {payload}")

    def test_submit_poll_report_digest(self, service):
        status, submitted = _call(
            f"{service['url']}/v1/simulations", "POST", {**SIM, "chunks": 3}
        )
        assert status == 202, submitted
        assert submitted["status"] in ("submitted", "running", "done")
        final = self._wait_done(service["url"], submitted["job"])
        assert final["status"] == "done"
        assert final["chunks_done"] == final["chunks"] == 3

        _, _, reference = run_simulation(SimulationSpec.from_dict(SIM))
        assert final["digest"] == reference.digest()
        # The stored report rides along, wire-safe (no NaN tokens).
        assert final["report"]["n_sessions"] == SIM["sessions"]

    def test_resubmit_attaches_to_finished_job(self, service):
        _, submitted = _call(
            f"{service['url']}/v1/simulations", "POST", {**SIM, "chunks": 3}
        )
        self._wait_done(service["url"], submitted["job"])
        status, again = _call(
            f"{service['url']}/v1/simulations", "POST", {**SIM, "chunks": 3}
        )
        assert status == 202
        assert again["job"] == submitted["job"]
        assert again["status"] == "done" and not again["started"]

    def test_jobs_listing_and_unknown_job(self, service):
        _, submitted = _call(
            f"{service['url']}/v1/simulations", "POST", {**SIM, "chunks": 2}
        )
        status, listing = _call(f"{service['url']}/v1/jobs")
        assert status == 200
        assert submitted["job"] in {j["job"] for j in listing["jobs"]}
        status, error = _call(f"{service['url']}/v1/jobs/jdeadbeef")
        assert status == 404 and "unknown job" in error["error"]["message"]

    def test_invalid_spec_rejected(self, service):
        status, error = _call(
            f"{service['url']}/v1/simulations", "POST", {"sessions": -1}
        )
        assert status == 400 and "sessions" in error["error"]["message"]


class TestCheckpointOverTheWire:
    def test_ship_session_between_two_servers(self, service, tmp_path):
        url = service["url"]
        _, opened = _call(
            f"{url}/v1/sessions", "POST",
            {"market": {"dataset": "synthetic", "seed": 2}, "seed": 0},
        )
        sid = opened["session"]
        _call(f"{url}/v1/sessions/{sid}/step", "POST", {"rounds": 2})
        status, checkpoint = _call(f"{url}/v1/sessions/{sid}/state")
        assert status == 200
        assert checkpoint["state"]["round_number"] == 2

        # A second, cold server (fresh pool, fresh store).
        with AsyncMarketplaceServer(
            port=0,
            manager=SessionManager(pool=MarketPool()),
            jobs=JobService(JobStore(str(tmp_path / "other.sqlite3"))),
        ) as other:
            other_url = other.url
            status, restored = _call(
                f"{other_url}/v1/sessions/{sid}/state", "PUT", checkpoint
            )
            assert status == 201, restored
            assert restored["session"] == sid
            assert restored["round"] == 2

            _, final_a = _call(f"{url}/v1/sessions/{sid}/step", "POST",
                               {"until_done": True})
            _, final_b = _call(f"{other_url}/v1/sessions/{sid}/step", "POST",
                               {"until_done": True})
            assert final_a["done"] and final_b["done"]
            assert final_a["outcome"] == final_b["outcome"]

    def test_tampered_checkpoint_rejected_with_400(self, service):
        url = service["url"]
        _, opened = _call(
            f"{url}/v1/sessions", "POST",
            {"market": {"dataset": "synthetic", "seed": 2}, "seed": 1},
        )
        sid = opened["session"]
        _call(f"{url}/v1/sessions/{sid}/step", "POST", {"rounds": 1})
        _, checkpoint = _call(f"{url}/v1/sessions/{sid}/state")
        checkpoint["state"]["quote"]["base"] += 0.5
        status, error = _call(
            f"{url}/v1/sessions/fresh-id/state", "PUT", checkpoint
        )
        assert status == 400 and "digest mismatch" in error["error"]["message"]


class TestDrain:
    def test_drain_interrupts_jobs_resumably(self, service):
        server = service["server"]
        jobs: JobService = server.jobs
        jobs.stop_event.set()  # what SIGTERM triggers before joining
        status, payload = _call(f"{service['url']}/v1/healthz")
        assert payload["draining"]
        # A submit during drain records the job but does not start it.
        status, submitted = _call(
            f"{service['url']}/v1/simulations", "POST", {**SIM, "chunks": 2}
        )
        assert status == 202
        assert not submitted["started"]
        record = service["store"].get(submitted["job"])
        assert not record.finished
        jobs.drain(timeout=5.0)

    def test_resumed_job_reports_running_at_once(self, service,
                                                  monkeypatch):
        """The resume reply, and a stream followed right after it, must
        not show the previous run's terminal `interrupted` status."""
        from repro.jobs import ShardedExecutor

        store = service["store"]
        spec = SimulationSpec(**SIM)
        first = ShardedExecutor(store, shards=1, max_chunks=1)
        record = first.run(first.submit(spec, chunks=3).job_id)
        assert record.status == "interrupted"
        # Hold the resumed run until the reply is in, so the reply
        # cannot depend on how fast the job thread gets going.
        replied = threading.Event()
        run = ShardedExecutor.run

        def held_run(self, job_id):
            replied.wait(30.0)
            return run(self, job_id)

        monkeypatch.setattr(ShardedExecutor, "run", held_run)
        status, resumed = _call(
            f"{service['url']}/v1/jobs/{record.job_id}/resume", "POST"
        )
        replied.set()
        assert status == 202 and resumed["started"]
        assert resumed["status"] == "running"
        deadline = time.monotonic() + 120
        while store.get(record.job_id).status == "running":
            assert time.monotonic() < deadline
            time.sleep(0.05)
        final = store.get(record.job_id)
        assert final.status == "done"
        assert final.digest == run_simulation(spec)[2].digest()
