"""Fleet policy unit tests: registration, heartbeats, the lease queue.

Everything here drives :class:`~repro.fleet.manager.FleetManager`
directly over a store file — no HTTP — so the semantics (content-
addressed identity, crash adoption, deterministic lease order, steal on
expiry, idempotent duplicate completion, fail-fast on chunk errors,
stale failure reports ignored, one grant per chunk under racing
pullers) are pinned independently of any transport.
"""

import threading
import time

import pytest

from repro.fleet.manager import FleetManager, worker_id_for
from repro.jobs import JobStore
from repro.jobs.executor import CHUNK_RUNNERS, submit_simulation
from repro.service.specs import SimulationSpec

SPEC = SimulationSpec(sessions=24, seed=3, batch_size=8)


@pytest.fixture
def store(tmp_path):
    return JobStore(str(tmp_path / "jobs.sqlite3"))


@pytest.fixture
def fleet(store):
    return FleetManager(store, lease_ttl=30.0, heartbeat_ttl=30.0)


def _run(lease):
    return CHUNK_RUNNERS[lease["kind"]](
        lease["spec"], lease["start"], lease["stop"]
    )


class TestIdentity:
    def test_worker_id_is_content_addressed_from_url(self):
        assert worker_id_for("http://a:1") == worker_id_for("http://a:1/")
        assert worker_id_for("http://a:1") != worker_id_for("http://a:2")
        assert worker_id_for("http://a:1").startswith("w")

    def test_reregistration_is_adoption_not_duplication(self, store, fleet):
        first = fleet.register("http://a:1", capacity=1)
        again = fleet.register("http://a:1/", capacity=4,
                               labels={"host": "a"})
        assert first["worker"] == again["worker"]
        assert not first["adopted"] and again["adopted"]
        assert len(store.workers()) == 1
        # The re-registration updated capacity and labels in place.
        assert store.worker(first["worker"])["capacity"] == 4

    def test_reregistration_frees_the_workers_own_leases(self, store,
                                                         fleet):
        """A worker registers once per life, so the active leases its
        row holds at a new registration are a dead predecessor's (a
        restarted process under the same URL): they re-queue at once
        instead of after ``lease_ttl``, and nobody else's are touched."""
        submit_simulation(store, SPEC, chunks=3)
        wid = fleet.register("http://a:1")["worker"]
        other = fleet.register("http://b:1")["worker"]
        assert fleet.lease(wid)["lease"]["chunk"] == 0
        assert fleet.lease(other)["lease"]["chunk"] == 1
        assert store.queue_depth() == 1
        fleet.register("http://a:1")
        assert store.queue_depth() == 2
        assert fleet.lease(wid)["lease"]["chunk"] == 0
        assert [(row["chunk"], row["worker"])
                for row in fleet.status()["leases"]] == [(0, wid), (1, other)]

    def test_register_reply_carries_ttls(self, fleet):
        row = fleet.register("http://a:1")
        assert row["lease_ttl"] == 30.0
        assert row["heartbeat_ttl"] == 30.0


class TestHeartbeats:
    def test_heartbeat_updates_watermark_and_load(self, store, fleet):
        wid = fleet.register("http://a:1")["worker"]
        pulse = fleet.heartbeat(wid, {"sessions": 1, "chunks": 2})
        assert pulse["status"] == "live" and not pulse["adopted"]
        assert pulse["lag"] >= 0.0
        assert store.worker(wid)["load"] == {"sessions": 1, "chunks": 2}

    def test_heartbeat_of_unknown_worker_raises_keyerror(self, fleet):
        with pytest.raises(KeyError):
            fleet.heartbeat("w000000000000", None)

    def test_stale_worker_is_lost_and_heartbeat_readopts(self, store):
        fleet = FleetManager(store, lease_ttl=30.0, heartbeat_ttl=0.05)
        wid = fleet.register("http://a:1")["worker"]
        time.sleep(0.1)
        swept = fleet.expire()
        assert wid in swept["lost"]
        assert store.worker(wid)["status"] == "lost"
        # The next pulse is the crash-adoption path.
        pulse = fleet.heartbeat(wid, None)
        assert pulse["adopted"]
        assert store.worker(wid)["status"] == "live"

    def test_deregister_marks_left_and_is_idempotent(self, store, fleet):
        wid = fleet.register("http://a:1")["worker"]
        assert fleet.deregister(wid)["left"]
        assert store.worker(wid)["status"] == "left"
        assert not fleet.deregister(wid)["left"]
        assert not fleet.deregister("w000000000000")["left"]


class TestLeaseQueue:
    def test_empty_queue_leases_none(self, fleet):
        wid = fleet.register("http://a:1")["worker"]
        assert fleet.lease(wid) == {"lease": None}

    def test_lease_order_is_deterministic(self, store, fleet):
        record = submit_simulation(store, SPEC, chunks=4)
        wid = fleet.register("http://a:1")["worker"]
        granted = [fleet.lease(wid)["lease"]["chunk"] for _ in range(4)]
        assert granted == [0, 1, 2, 3]
        assert fleet.lease(wid)["lease"] is None  # all leased out
        assert record.job_id == fleet.status()["leases"][0]["job"]

    def test_a_job_scoped_lease_skips_other_jobs(self, store):
        """The lease route's ``job`` field (what a local run's agent
        sends) leases that job's chunks only, whatever the queue order."""
        from repro.client import MarketplaceClient, RequestError
        from repro.service import JobService

        first, second = sorted(
            (submit_simulation(store, spec, chunks=2) for spec in
             (SPEC, SimulationSpec(sessions=24, seed=4, batch_size=8))),
            key=lambda record: record.job_id,
        )
        client = MarketplaceClient.local(jobs=JobService(store))
        wid = client.register_worker("http://a:1")["worker"]
        leased = [client.lease_chunk(wid, job=second.job_id)["lease"]
                  for _ in range(3)]
        assert [(row["job"], row["chunk"]) for row in leased[:2]] == [
            (second.job_id, 0), (second.job_id, 1)]
        assert leased[2] is None
        assert client.lease_chunk(wid)["lease"]["job"] == first.job_id
        with pytest.raises(RequestError, match="job"):
            client.lease_chunk(wid, job=7)

    def test_lease_carries_everything_a_worker_needs(self, store, fleet):
        submit_simulation(store, SPEC, chunks=2)
        wid = fleet.register("http://a:1")["worker"]
        lease = fleet.lease(wid)["lease"]
        assert lease["kind"] == "simulation"
        assert lease["spec"] == SPEC.to_dict()
        assert (lease["start"], lease["stop"]) == (0, 12)
        assert lease["ttl"] == 30.0 and lease["deadline"] > 0
        assert lease["stolen_from"] is None

    def test_completion_records_chunk_durably(self, store, fleet):
        record = submit_simulation(store, SPEC, chunks=2)
        wid = fleet.register("http://a:1")["worker"]
        for _ in range(2):
            lease = fleet.lease(wid)["lease"]
            reply = fleet.complete(wid, lease["job"], lease["chunk"],
                                   _run(lease), elapsed=0.01)
            assert reply["first"]
        assert store.pending_chunks(record.job_id) == []
        assert store.queue_depth() == 0

    def test_expired_lease_is_stolen_by_another_worker(self, store):
        fleet = FleetManager(store, lease_ttl=0.05, heartbeat_ttl=30.0)
        submit_simulation(store, SPEC, chunks=1)
        slow = fleet.register("http://slow:1")["worker"]
        fast = fleet.register("http://fast:1")["worker"]
        first = fleet.lease(slow)["lease"]
        assert fleet.lease(fast)["lease"] is None  # still held
        time.sleep(0.1)
        stolen = fleet.lease(fast)["lease"]
        assert stolen["chunk"] == first["chunk"]
        assert stolen["stolen_from"] == slow

    def test_duplicate_completion_of_stolen_chunk_is_harmless(self, store):
        fleet = FleetManager(store, lease_ttl=0.05, heartbeat_ttl=30.0)
        record = submit_simulation(store, SPEC, chunks=1)
        slow = fleet.register("http://slow:1")["worker"]
        fast = fleet.register("http://fast:1")["worker"]
        lease = fleet.lease(slow)["lease"]
        time.sleep(0.1)
        stolen = fleet.lease(fast)["lease"]
        payload = _run(lease)
        assert fleet.complete(fast, stolen["job"], stolen["chunk"],
                              {**payload, "elapsed": 0.5},
                              elapsed=0.5)["first"]
        # The original holder comes back late (its payload differs only
        # in the timing it measured): recorded as a duplicate, and the
        # stored result and the lease row are the first completion's.
        assert not fleet.complete(slow, lease["job"], lease["chunk"],
                                  {**payload, "elapsed": 0.9},
                                  elapsed=0.9)["first"]
        assert store.get(record.job_id).done_chunks == 1
        stored = store.chunk_results(record.job_id)[lease["chunk"]]
        assert stored["elapsed"] == 0.5
        [row] = store.leases()
        assert (row["worker"], row["status"]) == (fast, "done")

    def test_lost_worker_leases_requeue(self, store):
        fleet = FleetManager(store, lease_ttl=30.0, heartbeat_ttl=0.05)
        submit_simulation(store, SPEC, chunks=1)
        wid = fleet.register("http://a:1")["worker"]
        assert fleet.lease(wid)["lease"] is not None
        time.sleep(0.1)
        survivor = fleet.register("http://b:1")["worker"]
        # The sweep inside lease() marks a stale holder lost and frees
        # its lease even though the lease's own deadline is far out.
        lease = fleet.lease(survivor)["lease"]
        assert lease is not None and lease["stolen_from"] == wid

    def test_failed_chunk_fails_the_job_and_frees_the_lease(self, store,
                                                            fleet):
        record = submit_simulation(store, SPEC, chunks=2)
        wid = fleet.register("http://a:1")["worker"]
        lease = fleet.lease(wid)["lease"]
        fleet.fail(wid, lease["job"], lease["chunk"], "ValueError('bad')")
        current = store.get(record.job_id)
        assert current.status == "failed"
        assert "ValueError" in current.error and wid in current.error
        assert fleet.status()["leases"] == []

    def test_stale_failure_report_cannot_fail_a_finished_job(self, store):
        """A fails after its chunk was stolen, completed and merged:
        the report is stale and the finished job keeps its status."""
        from repro.jobs.executor import FleetExecutor

        fleet = FleetManager(store, lease_ttl=0.05, heartbeat_ttl=30.0)
        record = submit_simulation(store, SPEC, chunks=1)
        slow = fleet.register("http://slow:1")["worker"]
        fast = fleet.register("http://fast:1")["worker"]
        lease = fleet.lease(slow)["lease"]
        time.sleep(0.1)
        stolen = fleet.lease(fast)["lease"]
        assert stolen["stolen_from"] == slow
        fleet.complete(fast, stolen["job"], stolen["chunk"], _run(stolen))
        done = FleetExecutor(store, fleet=fleet, poll=0.01).run(record.job_id)
        assert done.status == "done"

        reply = fleet.fail(slow, lease["job"], lease["chunk"],
                           "ValueError('late')")
        assert not reply["failed"] and not reply["recorded"]
        current = store.get(record.job_id)
        assert current.status == "done"
        assert current.digest == done.digest
        assert current.error is None

    def test_stale_failure_report_keeps_the_thiefs_lease(self, store,
                                                         fleet):
        short = FleetManager(store, lease_ttl=0.05, heartbeat_ttl=30.0)
        record = submit_simulation(store, SPEC, chunks=1)
        slow = fleet.register("http://slow:1")["worker"]
        fast = fleet.register("http://fast:1")["worker"]
        lease = short.lease(slow)["lease"]
        time.sleep(0.1)
        stolen = fleet.lease(fast)["lease"]  # held for the full 30 s
        assert stolen["stolen_from"] == slow
        assert not fleet.fail(slow, lease["job"], lease["chunk"],
                              "ValueError('late')")["failed"]
        assert store.get(record.job_id).status == "submitted"
        [active] = fleet.status()["leases"]
        assert active["worker"] == fast

    def test_concurrent_pullers_never_share_a_chunk(self, store, fleet):
        """Racing grants on separate connections: each chunk is leased
        to exactly one worker, and every chunk is leased."""
        for seed in range(3):
            submit_simulation(
                store, SimulationSpec(sessions=24, seed=seed, batch_size=8),
                chunks=8,
            )
        workers = [fleet.register(f"http://w{i}:1")["worker"]
                   for i in range(8)]
        barrier = threading.Barrier(len(workers))
        granted = []

        def pull(wid):
            barrier.wait()
            while (lease := fleet.lease(wid)["lease"]) is not None:
                granted.append((lease["job"], lease["chunk"]))

        threads = [threading.Thread(target=pull, args=(wid,))
                   for wid in workers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert len(granted) == len(set(granted)) == 24
        assert store.queue_depth() == 0

    def test_racing_completions_report_exactly_one_first(self, store,
                                                          fleet):
        record = submit_simulation(store, SPEC, chunks=1)
        workers = [fleet.register(f"http://w{i}:1")["worker"]
                   for i in range(6)]
        lease = fleet.lease(workers[0])["lease"]
        payload = _run(lease)
        barrier = threading.Barrier(len(workers))
        replies = []

        def complete(wid):
            barrier.wait()
            replies.append(fleet.complete(wid, lease["job"], lease["chunk"],
                                          payload))

        threads = [threading.Thread(target=complete, args=(wid,))
                   for wid in workers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert sorted(reply["first"] for reply in replies) == [
            False] * 5 + [True]
        assert store.get(record.job_id).done_chunks == 1

    def test_status_reports_queue_depth(self, store, fleet):
        submit_simulation(store, SPEC, chunks=4)
        wid = fleet.register("http://a:1")["worker"]
        assert fleet.status()["queue"] == 4
        fleet.lease(wid)
        status = fleet.status()
        assert status["queue"] == 3  # leased chunks are off the queue
        assert len(status["leases"]) == 1
        assert len(status["workers"]) == 1
