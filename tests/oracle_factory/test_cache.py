"""Gain-cache behaviour: accounting, invalidation, corruption recovery."""

import json
import os

import pytest

from repro.data import load_titanic
from repro.market.bundle import FeatureBundle
from repro.oracle_factory import GainCache, build_oracle, default_cache_dir
from repro.oracle_factory.cache import dataset_digest

PARAMS = {"n_estimators": 4, "max_depth": 4}


@pytest.fixture(scope="module")
def dataset():
    return load_titanic(300, seed=0).prepare(seed=0)


@pytest.fixture(scope="module")
def bundles():
    return [FeatureBundle.of([0]), FeatureBundle.of([1, 2]), FeatureBundle.of([0, 3])]


def build(dataset, bundles, cache, **overrides):
    kwargs = dict(model_params=PARAMS, seed=0, jobs=1, cache=cache)
    kwargs.update(overrides)
    return build_oracle(dataset, bundles, **kwargs)


class TestAccounting:
    def test_cold_build_is_all_misses(self, dataset, bundles, tmp_path):
        cache = GainCache(str(tmp_path))
        _, report = build(dataset, bundles, cache)
        # one isolated course + one per bundle
        assert report.cache_stats.misses == len(bundles) + 1
        assert report.cache_stats.hits == 0
        assert report.courses_run == len(bundles) + 1
        assert report.courses_cached == 0

    def test_warm_build_is_all_hits(self, dataset, bundles, tmp_path):
        cache = GainCache(str(tmp_path))
        cold, _ = build(dataset, bundles, cache)
        warm, report = build(dataset, bundles, cache)
        assert report.cache_stats.hits == len(bundles) + 1
        assert report.cache_stats.misses == 0
        assert report.courses_run == 0
        assert warm.gains() == cold.gains()
        assert warm.isolated == cold.isolated

    def test_partial_catalogue_extension(self, dataset, bundles, tmp_path):
        """New bundles run; finished ones are served from disk."""
        cache = GainCache(str(tmp_path))
        build(dataset, bundles[:2], cache)
        _, report = build(dataset, bundles, cache)
        assert report.courses_run == 1  # only the new bundle
        assert report.cache_stats.hits == 3  # isolated + two old bundles

    def test_repeat_extension_reuses_prefix(self, dataset, bundles, tmp_path):
        """Raising n_repeats reuses every finished repeat."""
        cache = GainCache(str(tmp_path))
        build(dataset, bundles, cache, n_repeats=1)
        _, report = build(dataset, bundles, cache, n_repeats=2)
        assert report.courses_run == len(bundles) + 1  # repeat 1 only

    def test_no_cache_runs_everything(self, dataset, bundles):
        _, report = build(dataset, bundles, None)
        assert report.cache_stats is None
        assert report.courses_run == len(bundles) + 1


class TestInvalidation:
    def fingerprint(self, dataset, **kw):
        return GainCache.fingerprint(
            dataset,
            base_model=kw.get("base_model", "random_forest"),
            model_params=kw.get("model_params", PARAMS),
            seed=kw.get("seed", 0),
        )

    def test_model_params_change_key(self, dataset):
        a = self.fingerprint(dataset)
        b = self.fingerprint(dataset, model_params={**PARAMS, "max_depth": 5})
        assert a != b

    def test_seed_and_model_change_key(self, dataset):
        assert self.fingerprint(dataset) != self.fingerprint(dataset, seed=1)
        assert self.fingerprint(dataset) != self.fingerprint(
            dataset, base_model="mlp", model_params={}
        )

    def test_dataset_digest_covers_content(self, dataset):
        other = load_titanic(300, seed=1).prepare(seed=1)
        assert dataset_digest(dataset) != dataset_digest(other)
        assert self.fingerprint(dataset) != self.fingerprint(other)

    def test_params_change_forces_recompute(self, dataset, bundles, tmp_path):
        cache = GainCache(str(tmp_path))
        build(dataset, bundles, cache)
        _, report = build(
            dataset, bundles, cache,
            model_params={**PARAMS, "n_estimators": 5},
        )
        assert report.courses_run == len(bundles) + 1
        assert report.cache_stats.hits == 0


class TestRobustness:
    def _entry_files(self, root):
        return [
            os.path.join(dirpath, name)
            for dirpath, _, names in os.walk(root)
            for name in names
            if name.endswith(".json")
        ]

    def test_corrupted_file_recovered(self, dataset, bundles, tmp_path):
        cache = GainCache(str(tmp_path))
        cold, _ = build(dataset, bundles, cache)
        (path,) = self._entry_files(tmp_path)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{ not json !!")
        rebuilt, report = build(dataset, bundles, cache)
        assert report.courses_run == len(bundles) + 1  # cache was unusable
        assert rebuilt.gains() == cold.gains()
        # ...and the rewritten file is valid again.
        with open(path, encoding="utf-8") as fh:
            json.load(fh)

    def test_wrong_schema_treated_as_empty(self, dataset, bundles, tmp_path):
        cache = GainCache(str(tmp_path))
        build(dataset, bundles, cache)
        (path,) = self._entry_files(tmp_path)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"version": 999, "isolated": {}, "bundles": {}}, fh)
        _, report = build(dataset, bundles, cache)
        assert report.courses_run == len(bundles) + 1

    def test_non_numeric_course_values_treated_as_empty(self, dataset, bundles,
                                                        tmp_path):
        """Valid JSON with rotten values must not crash later builds."""
        cache = GainCache(str(tmp_path))
        cold, _ = build(dataset, bundles, cache)
        (path,) = self._entry_files(tmp_path)
        with open(path, encoding="utf-8") as fh:
            entry = json.load(fh)
        label = next(iter(entry["bundles"]))
        entry["bundles"][label]["0"] = "not-a-number"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(entry, fh)
        rebuilt, report = build(dataset, bundles, cache)
        assert report.courses_run == len(bundles) + 1
        assert rebuilt.gains() == cold.gains()

    def test_partial_results_persist_when_a_course_crashes(
        self, dataset, bundles, tmp_path, monkeypatch
    ):
        """An interrupt mid-build must not discard finished courses."""
        from repro.oracle_factory.factory import CourseRunner

        cache = GainCache(str(tmp_path))
        poison = bundles[-1].indices
        original = CourseRunner.joint

        def crashing_joint(self, bundle, repeat):
            if tuple(bundle) == poison:
                raise KeyboardInterrupt
            return original(self, bundle, repeat)

        monkeypatch.setattr(CourseRunner, "joint", crashing_joint)
        with pytest.raises(KeyboardInterrupt):
            build(dataset, bundles, cache)
        monkeypatch.setattr(CourseRunner, "joint", original)
        _, report = build(dataset, bundles, cache)
        # Only the poisoned bundle re-runs; isolated + finished bundles
        # were persisted by the finally-store.
        assert report.courses_run == 1
        assert report.cache_stats.hits == len(bundles)  # isolated + others

    def test_default_cache_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_ORACLE_CACHE", str(tmp_path / "envcache"))
        assert default_cache_dir() == str(tmp_path / "envcache")
        monkeypatch.delenv("REPRO_ORACLE_CACHE")
        assert default_cache_dir().endswith(os.path.join("repro", "oracle"))

    def test_store_merges_with_disk(self, dataset, bundles, tmp_path):
        """Two builds that loaded the entry cold must not clobber each
        other's finished courses: store() merges before replacing."""
        from repro.vfl.runner import resolve_model_params

        cache = GainCache(str(tmp_path))
        build(dataset, bundles[:2], cache)  # process 1 writes its courses
        fp = GainCache.fingerprint(
            dataset,
            base_model="random_forest",
            model_params=resolve_model_params("random_forest", PARAMS),
            seed=0,
        )
        # Process 2 loaded *before* process 1 stored, ran a different
        # bundle, and now stores its stale snapshot.
        stale = {"version": 1, "isolated": {"0": 0.5}, "bundles": {"9,9": {"0": 0.7}}}
        cache.store(fp, stale)
        merged = cache.load(fp)
        labels = set(merged["bundles"])
        assert "9,9" in labels  # process 2's course survived...
        assert {"0", "1,2"} <= labels  # ...and so did process 1's

    def test_float_roundtrip_exact(self, dataset, bundles, tmp_path):
        """JSON float round-trips keep warm oracles bit-identical."""
        cache = GainCache(str(tmp_path))
        cold, _ = build(dataset, bundles, cache)
        warm, _ = build(dataset, bundles, cache)
        for b in bundles:
            assert warm.delta_g(b) == cold.delta_g(b)
