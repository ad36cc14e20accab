"""Factory scheduling: reports, jobs resolution, market integration."""

import pytest

from repro.data import load_titanic
from repro.market.bundle import FeatureBundle
from repro.market.market import Market
from repro.oracle_factory import GainCache, build_oracle
from repro.oracle_factory.factory import resolve_jobs
from repro.service import MarketSpec

PARAMS = {"n_estimators": 4, "max_depth": 4}


@pytest.fixture(scope="module")
def dataset():
    return load_titanic(300, seed=0).prepare(seed=0)


@pytest.fixture(scope="module")
def bundles():
    return [FeatureBundle.of([0]), FeatureBundle.of([1, 2])]


class TestResolveJobs:
    def test_zero_and_none_mean_all_cores(self):
        import os

        assert resolve_jobs(0) == (os.cpu_count() or 1)
        assert resolve_jobs(None) == (os.cpu_count() or 1)

    def test_explicit_values_pass_through(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(-2) == 1


class TestBuildReport:
    def test_report_fields_and_dict(self, dataset, bundles, tmp_path):
        cache = GainCache(str(tmp_path))
        oracle, report = build_oracle(
            dataset, bundles, model_params=PARAMS, seed=0, cache=cache
        )
        assert report.n_bundles == len(bundles)
        assert report.elapsed > 0
        assert set(report.bundle_seconds) == {"0", "1,2"}
        assert all(s >= 0 for s in report.bundle_seconds.values())
        payload = report.to_dict()
        assert payload["courses_run"] == len(bundles) + 1
        assert payload["cache"] == {"hits": 0, "misses": len(bundles) + 1}
        assert "oracle build" in report.summary()
        # the oracle carries its report for CLI surfacing
        assert oracle.build_report is report

    def test_warm_report_timings_zero(self, dataset, bundles, tmp_path):
        cache = GainCache(str(tmp_path))
        build_oracle(dataset, bundles, model_params=PARAMS, seed=0, cache=cache)
        _, warm = build_oracle(
            dataset, bundles, model_params=PARAMS, seed=0, cache=cache
        )
        assert warm.courses_run == 0
        assert all(s == 0.0 for s in warm.bundle_seconds.values())

    def test_invalid_inputs_rejected(self, dataset, bundles):
        with pytest.raises(ValueError, match="at least one bundle"):
            build_oracle(dataset, [], model_params=PARAMS)
        with pytest.raises(ValueError, match="n_repeats"):
            build_oracle(dataset, bundles, model_params=PARAMS, n_repeats=0)
        with pytest.raises(ValueError, match="base_model"):
            build_oracle(dataset, bundles, base_model="svm")


class TestMarketIntegration:
    def test_from_spec_accepts_jobs_and_cache(self, tmp_path):
        spec = MarketSpec(
            dataset="titanic",
            quick=True,
            seed=0,
            n_bundles=4,
            model_params={"n_estimators": 3, "max_depth": 3},
            jobs=1,
            cache_dir=str(tmp_path),
        )
        market = Market.from_spec(spec)
        assert len(market.oracle) >= 2
        report = market.oracle.build_report
        assert report.courses_run > 0
        # A second build with the same cache replays from disk.
        market2 = Market.from_spec(spec)
        assert market2.oracle.build_report.courses_run == 0
        assert market2.oracle.gains() == market.oracle.gains()
