"""Model-based test of the lease queue.

A Hypothesis state machine drives one :class:`~repro.jobs.JobStore`
file and the :class:`~repro.fleet.FleetManager` over it through every
fleet operation: submit, register and re-register (a restart),
heartbeat, lease (with and without a job scope, and pullers racing for
the write lock), complete (first, duplicate and stale), fail, an agent
that stops with chunks in flight, deregister, and the executor's status
moves and merge, while the clock jumps past either TTL.  After every
step the store is compared with a plain-Python model of the protocol,
and the queue's invariants are checked:

1. a done chunk has exactly one stored result: its first accepted
   completion;
2. no chunk is granted to two pullers at once;
3. active leases sit only on pending chunks;
4. a stale report (duplicate completion, stale failure) changes nothing;
5. a re-registered worker holds no lease;
6. a job-scoped lease never hands out another job's chunk;
7. queue depth equals the pending, unleased chunks;
8. a job is finished only when every chunk is done.

The clock is ``repro.jobs.store._wall_now``, patched for each run.
"""

import os
import shutil
import sqlite3
import tempfile
import threading
import time
from contextlib import closing

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

import repro.jobs.store as store_module
from repro import obs
from repro.client import MarketplaceClient
from repro.fleet import FleetAgent
from repro.fleet.manager import worker_id_for
from repro.jobs import JobStore
from repro.service import JobService
from repro.utils.canonical import stable_json

#: Examples per tier-1 run (a few seconds); ``--hypothesis-profile=ci``
#: (registered in tests/conftest.py) runs ten times as many.
EXAMPLES = 40 * (10 if settings.get_current_profile_name() == "ci" else 1)

LEASE_TTL = 10.0
HEARTBEAT_TTL = 4.0
URLS = ("http://a:1", "http://b:1")
KIND = "simulation"
#: Racing pullers, and how long they wait on a held write lock: long
#: enough for each to reach the store, so they all contend for the grant.
RACERS = 3
RACE_HOLD = 0.01


class LeaseQueueModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.now = 1000.0
        self._dir = tempfile.mkdtemp(prefix="lease-model-")
        self._patch = pytest.MonkeyPatch()
        self._patch.setattr(store_module, "_wall_now", lambda: self.now)
        self.store = JobStore(os.path.join(self._dir, "jobs.sqlite3"))
        self.service = JobService(self.store, lease_ttl=LEASE_TTL,
                                  heartbeat_ttl=HEARTBEAT_TTL)
        self.fleet = self.service.fleet
        # The model: plain dicts keyed like the store's tables.
        self.jobs = {}      # job -> {layout, status, error}
        self.results = {}   # (job, chunk) -> (result, elapsed), first only
        self.workers = {}   # worker -> {url, status, beat}
        self.leases = {}    # (job, chunk) -> {worker, deadline, status}
        self.inflight = {}  # worker -> chunks granted it, not yet reported
        self.serial = 0

    def teardown(self):
        self._patch.undo()
        shutil.rmtree(self._dir, ignore_errors=True)

    # ------------------------------------------------------------------
    # Model helpers
    # ------------------------------------------------------------------
    def _worker(self, data):
        return data.draw(st.sampled_from(sorted(self.workers)))

    def _chunk(self, data):
        return data.draw(st.sampled_from(sorted(
            (job, index) for job, model in self.jobs.items()
            for index in range(len(model["layout"]))
        )))

    def _release(self, worker):
        for lease in self.leases.values():
            if lease["worker"] == worker and lease["status"] == "active":
                lease["status"] = "expired"

    def _sweep(self):
        """The liveness sweep every heartbeat and lease runs first."""
        for worker, model in self.workers.items():
            if (model["status"] == "live"
                    and model["beat"] < self.now - HEARTBEAT_TTL):
                model["status"] = "lost"
                self._release(worker)
        for lease in self.leases.values():
            if lease["status"] == "active" and lease["deadline"] < self.now:
                lease["status"] = "expired"

    def _queued(self, job=None):
        """Pending, unleased chunks of runnable jobs, in lease order."""
        return [
            (name, index)
            for name in sorted(self.jobs)
            if self.jobs[name]["status"] in ("submitted", "running")
            and job in (None, name)
            for index in range(len(self.jobs[name]["layout"]))
            if (name, index) not in self.results
            and self.leases.get((name, index), {}).get("status") != "active"
        ]

    def _grant(self, worker, order, job=None):
        queued = self._queued(job)
        if not queued:
            assert order is None
            return
        key = queued[0]
        assert order is not None and (order["job"], order["chunk"]) == key
        assert job in (None, order["job"])  # invariant 6
        assert [order["start"], order["stop"]] == list(
            self.jobs[key[0]]["layout"][key[1]])
        previous = self.leases.get(key)
        assert order["stolen_from"] == (
            previous["worker"] if previous is not None
            and previous["worker"] != worker else None)
        assert order["deadline"] == self.now + LEASE_TTL
        self.leases[key] = {"worker": worker, "status": "active",
                            "deadline": self.now + LEASE_TTL}
        self.inflight[worker].add(key)

    def _deliver(self, worker, key, result, elapsed, first):
        self.inflight[worker].discard(key)
        assert first == (key not in self.results)
        if first:
            self.results[key] = (result, elapsed)
            if key in self.leases:
                self.leases[key].update(worker=worker, status="done")

    def _leave(self, worker, left):
        model = self.workers[worker]
        assert left == (model["status"] != "left")
        if left:
            model.update(status="left", beat=self.now)
        self._release(worker)
        self.inflight[worker] = set()

    def _snapshot(self):
        """Every row of every table (a stale report must move none)."""
        with closing(sqlite3.connect(self.store.path)) as conn:
            return {
                table: conn.execute(
                    f"SELECT * FROM {table} ORDER BY 1, 2").fetchall()
                for table in ("jobs", "chunks", "workers", "leases")
            }

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------
    @initialize(url=st.sampled_from(URLS), seed=st.integers(0, 2),
                n_chunks=st.integers(1, 3))
    def a_worker_and_a_job(self, url, seed, n_chunks):
        self.register(url)
        self.submit(seed, n_chunks)

    @rule(seed=st.integers(0, 2), n_chunks=st.integers(1, 3))
    def submit(self, seed, n_chunks):
        layout = [(2 * i, 2 * i + 2) for i in range(n_chunks)]
        record = self.store.submit(KIND, {"seed": seed}, layout)
        self.jobs.setdefault(record.job_id, {
            "layout": layout, "status": "submitted", "error": None})

    @rule(url=st.sampled_from(URLS))
    def register(self, url):
        worker = worker_id_for(url)
        reply = self.fleet.register(url)
        assert reply["worker"] == worker
        assert reply["adopted"] == (worker in self.workers)
        # A registration is a new life: the predecessor's leases and
        # the work it had in flight are gone.
        self._release(worker)
        self.workers[worker] = {"url": url, "status": "live",
                                "beat": self.now}
        self.inflight[worker] = set()
        assert worker not in {  # invariant 5
            lease["worker"] for lease in self.store.leases(active_only=True)}

    @precondition(lambda self: self.workers)
    @rule(data=st.data())
    def heartbeat(self, data):
        worker = self._worker(data)
        reply = self.fleet.heartbeat(worker, {"sessions": 0, "chunks": 1})
        self._sweep()
        model = self.workers[worker]
        assert reply["adopted"] == (model["status"] != "live")
        assert reply["lag"] == max(0.0, self.now - model["beat"])
        model.update(status="live", beat=self.now)

    @precondition(lambda self: self.workers)
    @rule(data=st.data(), scoped=st.booleans())
    def lease(self, data, scoped):
        worker = self._worker(data)
        job = (data.draw(st.sampled_from(sorted(self.jobs)))
               if scoped and self.jobs else None)
        order = self.fleet.lease(worker, job)["lease"]
        self._sweep()
        self._grant(worker, order, job)

    @precondition(lambda self: self.workers)
    @rule(data=st.data())
    def racing_leases(self, data):
        """One worker's puller threads (an agent's capacity) all pull at
        once while another connection holds the write lock, so they
        contend for the same grant."""
        worker = self._worker(data)
        orders = []
        threads = [threading.Thread(target=lambda: orders.append(
            self.fleet.lease(worker)["lease"])) for _ in range(RACERS)]
        with closing(sqlite3.connect(self.store.path,
                                     isolation_level=None)) as lock:
            lock.execute("BEGIN IMMEDIATE")
            for thread in threads:
                thread.start()
            time.sleep(RACE_HOLD)
            lock.execute("ROLLBACK")
        for thread in threads:
            thread.join(30)
        self._sweep()
        # However they were serialised, the grants are the head of the
        # queue, one chunk each (invariant 2).
        granted = [order for order in orders if order is not None]
        for order in sorted(granted, key=lambda o: (o["job"], o["chunk"])):
            self._grant(worker, order)
        if len(granted) < RACERS:
            self._grant(worker, None)

    @precondition(lambda self: self.workers and self.jobs)
    @rule(data=st.data())
    def complete(self, data):
        worker, key = self._worker(data), self._chunk(data)
        self.serial += 1
        result, elapsed = {"by": worker, "serial": self.serial}, self.serial / 8
        before = self._snapshot()
        reply = self.fleet.complete(worker, *key, result, elapsed=elapsed)
        self._deliver(worker, key, result, elapsed, reply["first"])
        if not reply["first"]:
            assert self._snapshot() == before  # invariant 4

    @precondition(lambda self: self.workers and self.jobs)
    @rule(data=st.data())
    def fail(self, data):
        worker, key = self._worker(data), self._chunk(data)
        before = self._snapshot()
        reply = self.fleet.fail(worker, *key, "ValueError('boom')")
        self.inflight[worker].discard(key)
        lease = self.leases.get(key)
        counts = (lease is not None and lease["worker"] == worker
                  and lease["status"] == "active" and key not in self.results)
        assert reply["failed"] == counts
        if counts:
            lease["status"] = "expired"
            self.jobs[key[0]].update(
                status="failed",
                error=f"chunk {key[1]} on {worker}: ValueError('boom')")
        else:
            assert self._snapshot() == before  # invariant 4

    @precondition(lambda self: any(self.inflight.values()))
    @rule(data=st.data())
    def stop_agent_with_chunks_in_flight(self, data):
        """A worker's agent stops; its in-flight chunks finish after
        the stop began.  It delivers them all, then leaves."""
        worker = data.draw(st.sampled_from(sorted(
            name for name, keys in self.inflight.items() if keys)))
        agent = FleetAgent(MarketplaceClient.local(jobs=self.service),
                           self.workers[worker]["url"], poll=0.001)
        agent._registered.set()  # registered by an earlier step
        agent._stop.set()        # stop() has begun...
        for key in sorted(self.inflight[worker]):
            self.serial += 1
            payload = {"by": "agent", "serial": self.serial,
                       "elapsed": self.serial / 8}
            first = key not in self.results
            agent._report(KIND, *key, payload, None)  # ...when these land
            self._deliver(worker, key, payload, payload["elapsed"], first)
        agent.stop(timeout=0)
        self._leave(worker, self.workers[worker]["status"] != "left")

    @precondition(lambda self: self.workers)
    @rule(data=st.data())
    def deregister(self, data):
        worker = self._worker(data)
        self._leave(worker, self.fleet.deregister(worker)["left"])

    @rule(step=st.sampled_from((0.25, HEARTBEAT_TTL + 0.25, LEASE_TTL + 0.25)))
    def advance_clock(self, step):
        self.now += step

    @precondition(lambda self: self.jobs)
    @rule(data=st.data(), status=st.sampled_from(("running", "interrupted")))
    def executor_moves_the_job(self, data, status):
        job = data.draw(st.sampled_from(sorted(self.jobs)))
        if self.jobs[job]["status"] != "done":
            self.store.set_status(job, status)
            self.jobs[job].update(status=status, error=None)

    @precondition(lambda self: self.jobs)
    @rule(data=st.data())
    def executor_merges(self, data):
        """What the executor does when its store read shows the job
        complete: finish it."""
        job = data.draw(st.sampled_from(sorted(self.jobs)))
        record = self.store.get(job)
        if record.status in ("done", "failed") or (
                record.done_chunks < record.n_chunks):
            return
        self.store.finish(job, {"chunks": record.n_chunks}, "digest")
        self.jobs[job].update(status="done", error=None)

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    @invariant()
    def store_matches_model(self):
        tables = self._snapshot()
        assert {row[0]: (row[4], row[9]) for row in tables["jobs"]} == {
            job: (model["status"], model["error"])
            for job, model in self.jobs.items()}
        done = {(row[0], row[1]): (row[3], row[4])
                for row in tables["chunks"] if row[2] == "done"}
        assert set(done) == set(self.results)  # invariant 1
        for key, (result, elapsed) in self.results.items():
            assert done[key] == (stable_json(result), elapsed)
        assert {row[0]: (row[4], row[6]) for row in tables["workers"]} == {
            worker: (model["status"], model["beat"])
            for worker, model in self.workers.items()}
        assert {(row[0], row[1]): (row[2], row[4], row[5])
                for row in tables["leases"]} == {
            key: (lease["worker"], lease["deadline"], lease["status"])
            for key, lease in self.leases.items()}
        assert not {  # invariant 3
            (row[0], row[1]) for row in tables["leases"]
            if row[5] == "active"} & set(done)
        assert self.store.queue_depth() == len(self._queued())  # 7
        for row in tables["jobs"]:  # invariant 8
            if row[4] == "done":
                assert all((row[0], index) in done
                           for index in range(len(self.jobs[row[0]]["layout"])))

    @invariant()
    def worker_gauge_counts_the_rows(self):
        gauge = obs.REGISTRY.gauge("repro_fleet_workers")
        if self.workers:
            for state in ("live", "lost", "left"):
                assert gauge.value(state=state) == sum(
                    model["status"] == state
                    for model in self.workers.values())


LeaseQueueModel.TestCase.settings = settings(
    max_examples=EXAMPLES,
    stateful_step_count=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestLeaseQueueModel = LeaseQueueModel.TestCase
