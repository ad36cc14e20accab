"""Digest pins for ``jobs/store.py`` and ``simulate/population.py``.

The store writes canonical JSON rows and ``PopulationSpec`` stays inside
the spec contract; neither may move a digest the platform hands out.
These tests pin a spec's digest and the report digest of its
population, which the single-process and sharded paths must both
produce.
"""

import math

import pytest

from repro.jobs.executor import ShardedExecutor
from repro.jobs.store import JobStore
from repro.service.specs import SimulationSpec
from repro.simulate import SessionPool, build_report, sample_population
from repro.simulate.population import PopulationSpec
from repro.utils.canonical import canonical_json, stable_json

#: Digest of SimulationSpec(sessions=120, seed=0, batch_size=32),
#: computed before the store/population fixes.
SPEC_DIGEST = "16774669e7e7d6c2"

#: Report digest of that spec's population, single-process.  The
#: sharded path must merge to the same value.
REPORT_DIGEST = "5019b0e0c477601d"


@pytest.fixture(scope="module")
def spec():
    return SimulationSpec(sessions=120, seed=0, batch_size=32)


class TestDigestPins:
    def test_spec_digest_unchanged(self, spec):
        assert spec.digest() == SPEC_DIGEST

    def test_single_process_report_digest_unchanged(self, spec):
        population = sample_population(spec.population_spec(), 120, seed=0)
        result = SessionPool(population, batch_size=32).run()
        assert build_report(population, result).digest() == REPORT_DIGEST

    def test_sharded_store_path_digest_unchanged(self, spec, tmp_path):
        # Exercises the full fixed surface: canonical_json spec rows,
        # stable_json chunk results and report, _wall_now timestamps.
        store = JobStore(str(tmp_path / "jobs.sqlite3"))
        executor = ShardedExecutor(store, shards=2)
        record = executor.submit(spec, chunks=4)
        record = executor.run(record.job_id)
        assert record.status == "done"
        assert record.digest == REPORT_DIGEST
        # and the durable row round-trips the merged report
        reread = store.get(record.job_id)
        assert reread.digest == REPORT_DIGEST
        assert reread.report == record.report


class TestStoreSerialisation:
    def test_spec_rows_are_canonical(self, tmp_path):
        # Key order in the caller's dict must not leak into the stored
        # row (or the job id): permuted spec dicts are the same job.
        store = JobStore(str(tmp_path / "jobs.sqlite3"))
        a = {"sessions": 10, "seed": 0}
        b = {"seed": 0, "sessions": 10}
        rec_a = store.submit("simulation", a, [(0, 10)])
        rec_b = store.submit("simulation", b, [(0, 10)])
        assert rec_a.job_id == rec_b.job_id
        with store._connect() as conn:
            (raw,) = conn.execute(
                "SELECT spec FROM jobs WHERE job_id = ?", (rec_a.job_id,)
            ).fetchone()
        assert raw == canonical_json(a)

    def test_nan_results_still_round_trip(self, tmp_path):
        # The documented store contract: failed sessions' delta_g may be
        # NaN and must survive the write/read cycle exactly.
        store = JobStore(str(tmp_path / "jobs.sqlite3"))
        record = store.submit("simulation", {"sessions": 1}, [(0, 1)])
        store.record_chunk(record.job_id, 0, {"delta_g": float("nan"), "n": 1})
        results = store.chunk_results(record.job_id)
        assert math.isnan(results[0]["delta_g"])
        assert results[0]["n"] == 1


class TestStableJson:
    def test_sorted_and_compact(self):
        assert stable_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_nan_round_trips(self):
        import json

        decoded = json.loads(stable_json({"x": float("nan"), "y": 1.5}))
        assert math.isnan(decoded["x"]) and decoded["y"] == 1.5

    def test_matches_canonical_on_finite_payloads(self):
        payload = {"z": [1, 2.5, "s"], "a": {"nested": True}}
        assert stable_json(payload) == canonical_json(payload)


class TestPopulationSpecContract:
    def test_round_trip(self):
        spec = PopulationSpec(preset="titanic", n_features=8,
                              cost_mix=(("linear", 0.01, 1.0),))
        clone = PopulationSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.digest() == spec.digest()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown PopulationSpec keys"):
            PopulationSpec.from_dict({"bogus": 1})

    def test_digest_is_content_addressed(self):
        assert PopulationSpec().digest() == PopulationSpec().digest()
        assert PopulationSpec().digest() != PopulationSpec(n_features=13).digest()

    def test_dict_form_is_json_native(self):
        # canonical_json must accept it directly (no tuples, no NaN)
        canonical_json(PopulationSpec().to_dict())
