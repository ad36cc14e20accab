"""Tests for the VFL course runner (ΔG measurement)."""

import numpy as np
import pytest

from repro.data import load_titanic
from repro.vfl import run_vfl
from repro.vfl.runner import isolated_performance


@pytest.fixture(scope="module")
def dataset():
    return load_titanic(seed=0).prepare(seed=0)


class TestIsolatedPerformance:
    def test_beats_chance(self, dataset):
        m0 = isolated_performance(dataset, base_model="random_forest", seed=0)
        assert m0 > 0.55

    def test_deterministic(self, dataset):
        a = isolated_performance(dataset, base_model="random_forest", seed=1)
        b = isolated_performance(dataset, base_model="random_forest", seed=1)
        assert a == b

    def test_bad_model_rejected(self, dataset):
        with pytest.raises(ValueError, match="base_model"):
            isolated_performance(dataset, base_model="svm")


class TestRunVFL:
    def test_full_bundle_gains_rf(self, dataset):
        result = run_vfl(dataset, range(dataset.d_data), base_model="random_forest", seed=0)
        assert result.delta_g > 0.05
        assert result.performance_joint > result.performance_isolated

    def test_full_bundle_gains_mlp(self, dataset):
        result = run_vfl(
            dataset,
            range(dataset.d_data),
            base_model="mlp",
            model_params={"epochs": 30},
            seed=0,
        )
        assert result.delta_g > 0.03

    def test_m0_cache_respected(self, dataset):
        result = run_vfl(
            dataset, (0, 1), base_model="random_forest", seed=0, m0=0.6
        )
        assert result.performance_isolated == 0.6

    def test_each_course_reports_its_own_traffic(self, dataset):
        first = run_vfl(dataset, (0, 1), base_model="random_forest", seed=0, m0=0.6)
        again = run_vfl(dataset, (0, 1), base_model="random_forest", seed=0, m0=0.6)
        assert first.channel_stats["messages"] > 0
        assert again.channel_stats == first.channel_stats

    def test_empty_bundle_rejected(self, dataset):
        with pytest.raises(ValueError, match="at least one feature"):
            run_vfl(dataset, (), base_model="random_forest")

    def test_unknown_model_param_rejected(self, dataset):
        with pytest.raises(ValueError, match="unknown model params"):
            run_vfl(dataset, (0,), model_params={"bogus": 1})

    def test_result_fields(self, dataset):
        result = run_vfl(dataset, (0, 1, 2), base_model="random_forest", seed=0, m0=0.6)
        assert result.bundle == (0, 1, 2)
        assert result.base_model == "random_forest"
        assert result.channel_stats["messages"] > 0

    def test_bigger_informative_bundle_not_worse(self, dataset):
        """Full bundle should (weakly) dominate a tiny one on average."""
        gains_small, gains_full = [], []
        for seed in range(3):
            m0 = isolated_performance(dataset, base_model="random_forest", seed=seed)
            gains_small.append(
                run_vfl(dataset, (0,), base_model="random_forest", seed=seed, m0=m0).delta_g
            )
            gains_full.append(
                run_vfl(
                    dataset, range(dataset.d_data),
                    base_model="random_forest", seed=seed, m0=m0,
                ).delta_g
            )
        assert np.mean(gains_full) > np.mean(gains_small)
