"""ShardedExecutor: bit-identical merges, kill/resume.

The acceptance contract of the jobs subsystem: for a fixed
``SimulationSpec``, the merged report digest from the sharded executor
— any shard count, any chunking, including after an interruption
resumed through the JobStore — equals the single-process
``SessionPool`` digest.
"""

import threading

import pytest

from repro.jobs import JobStore, ShardedExecutor
from repro.service import SimulationSpec, run_simulation

# A mixed population: the strategic data party's pairs ride the
# vectorised kernel, the random-bundle pair runs stepwise through the
# memoised oracle — exercising every merge path, including the
# cross-shard oracle hit accounting.
MIXED = SimulationSpec(
    sessions=120,
    seed=3,
    batch_size=32,
    strategy_mix=(
        ("strategic", "strategic", 0.5),
        ("increase_price", "strategic", 0.3),
        ("strategic", "random_bundle", 0.2),
    ),
    cost_mix=(("none", 0.0, 0.6), ("linear", 0.005, 0.4)),
)


# The same population settled through the batched Paillier path.
# Every shard rebuilds the seed-derived keypair, and the packed
# settlement is value-identical regardless of how accepted sessions
# are grouped into chunks — so the merged digest must not move.
SECURE = SimulationSpec(
    sessions=80,
    seed=3,
    batch_size=32,
    strategy_mix=(
        ("strategic", "strategic", 0.6),
        ("increase_price", "strategic", 0.4),
    ),
    secure=True,
    key_bits=128,
)


@pytest.fixture
def store(tmp_path):
    return JobStore(str(tmp_path / "jobs.sqlite3"))


@pytest.fixture(scope="module")
def reference_digest():
    _, _, report = run_simulation(MIXED)
    return report.digest()


@pytest.fixture(scope="module")
def secure_reference_digest():
    _, _, report = run_simulation(SECURE)
    return report.digest()


class TestShardedBitIdentity:
    @pytest.mark.parametrize("shards,chunks", [(1, 1), (2, 4), (3, 7)])
    def test_merged_digest_equals_single_process(
        self, store, reference_digest, shards, chunks
    ):
        executor = ShardedExecutor(store, shards=shards)
        record = executor.submit(MIXED, chunks=chunks)
        done = executor.run(record.job_id)
        assert done.finished
        assert done.digest == reference_digest
        # Oracle accounting merged exactly, not just the digest field.
        assert done.report["oracle_queries"] >= done.report["oracle_hits"] >= 0

    @pytest.mark.parametrize("shards,chunks", [(1, 1), (3, 5)])
    def test_secure_merged_digest_equals_single_process(
        self, store, secure_reference_digest, shards, chunks
    ):
        executor = ShardedExecutor(store, shards=shards)
        record = executor.submit(SECURE, chunks=chunks)
        done = executor.run(record.job_id)
        assert done.finished
        assert done.digest == secure_reference_digest

    def test_secure_digest_differs_from_plain(self, secure_reference_digest):
        """Quantisation is visible: secure settlement rounds payments
        to the fixed-point grid, so the report is not the plain one."""
        from dataclasses import replace

        _, _, plain = run_simulation(replace(SECURE, secure=False))
        assert plain.digest() != secure_reference_digest

    def test_rerun_of_finished_job_is_a_noop(self, store, reference_digest):
        executor = ShardedExecutor(store, shards=2)
        record = executor.submit(MIXED, chunks=4)
        first = executor.run(record.job_id)
        again = executor.run(record.job_id)
        assert again.digest == first.digest == reference_digest


class TestInterruptionAndResume:
    def test_max_chunks_interrupts_then_resume_completes(
        self, store, reference_digest
    ):
        """Deterministic mid-run stop: only some chunks land, the job is
        'interrupted', and a *fresh executor over a reopened store* (the
        post-crash process) finishes the remainder to the same digest."""
        executor = ShardedExecutor(store, shards=2, max_chunks=2)
        record = executor.submit(MIXED, chunks=6)
        stopped = executor.run(record.job_id)
        assert stopped.status == "interrupted"
        assert 0 < stopped.done_chunks < stopped.n_chunks

        resumed_store = JobStore(store.path)  # simulate a new process
        resumed = ShardedExecutor(resumed_store, shards=2).run(record.job_id)
        assert resumed.finished
        assert resumed.digest == reference_digest

    def test_stop_event_leaves_job_resumable(self, store, reference_digest):
        stop = threading.Event()
        stop.set()  # drain immediately: no chunk may be dispatched
        executor = ShardedExecutor(store, shards=2, stop_event=stop)
        record = executor.submit(MIXED, chunks=4)
        stopped = executor.run(record.job_id)
        assert stopped.status == "interrupted"
        assert stopped.done_chunks == 0
        resumed = ShardedExecutor(store, shards=2).run(record.job_id)
        assert resumed.digest == reference_digest
