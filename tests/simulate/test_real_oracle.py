"""Oracle-backed populations: the simulator over a real VFL substrate."""

import numpy as np
import pytest

from repro.market import FeatureBundle, PerformanceOracle
from repro.simulate import PopulationSpec, SessionPool, build_report, sample_population
from repro.simulate.kernel import STATUS_ACCEPTED


def toy_oracle(n_features=6, n_bundles=10, scale=0.2, seed=0):
    """A stand-in for a factory-built oracle (real ones carry the same
    interface; tests use synthetic gains to stay fast)."""
    rng = np.random.default_rng(seed)
    gains = {}
    seen = set()
    while len(gains) < n_bundles:
        size = int(rng.integers(1, n_features + 1))
        combo = tuple(sorted(rng.choice(n_features, size=size, replace=False)))
        if combo in seen:
            continue
        seen.add(combo)
        gains[FeatureBundle.of(combo)] = scale * (len(combo) / n_features) ** 0.7
    return PerformanceOracle.from_gains(gains)


class TestOracleBackedPopulation:
    def test_catalogue_comes_from_oracle(self):
        oracle = toy_oracle()
        spec = PopulationSpec(preset="titanic", n_features=99, n_bundles=99)
        population = sample_population(spec, 50, seed=0, oracle=oracle)
        assert population.bundles == oracle.bundles
        assert population.oracle is oracle
        expected = oracle.gains()
        for b, g in zip(population.bundles, population.gains):
            assert g == expected[b]

    def test_targets_are_positive_oracle_gains(self):
        oracle = toy_oracle()
        spec = PopulationSpec(preset="titanic")
        population = sample_population(spec, 80, seed=1, oracle=oracle)
        gains = set(float(g) for g in population.gains if g > 0)
        assert all(float(t) in gains for t in population.target)
        assert (population.target > 0).all()

    def test_negative_gain_bundles_never_targeted(self):
        gains = {
            FeatureBundle.of([0]): -0.05,
            FeatureBundle.of([1]): -0.01,
            FeatureBundle.of([0, 1]): 0.15,
            FeatureBundle.of([1, 2]): 0.18,
        }
        oracle = PerformanceOracle.from_gains(gains)
        spec = PopulationSpec(preset="titanic", target_quantile_range=(0.1, 1.0))
        population = sample_population(spec, 60, seed=2, oracle=oracle)
        assert (population.target > 0).all()

    def test_all_negative_catalogue_rejected(self):
        oracle = PerformanceOracle.from_gains(
            {FeatureBundle.of([0]): -0.1, FeatureBundle.of([1]): -0.2}
        )
        with pytest.raises(ValueError, match="positive-gain bundle"):
            sample_population(PopulationSpec(preset="titanic"), 10, oracle=oracle)

    def test_pool_runs_end_to_end_on_oracle(self):
        oracle = toy_oracle()
        spec = PopulationSpec(preset="titanic")
        population = sample_population(spec, 120, seed=3, oracle=oracle)
        result = SessionPool(population, batch_size=64).run()
        report = build_report(population, result)
        assert report.n_sessions == 120
        assert (result.status == STATUS_ACCEPTED).any()

    def test_synthetic_sampling_unchanged_without_oracle(self):
        """oracle=None must leave the PR-1 sampling path bit-identical."""
        spec = PopulationSpec(preset="synthetic")
        a = sample_population(spec, 40, seed=4)
        b = sample_population(spec, 40, seed=4, oracle=None)
        assert a.bundles == b.bundles
        np.testing.assert_array_equal(a.gains, b.gains)
        np.testing.assert_array_equal(a.target, b.target)
        np.testing.assert_array_equal(a.reserved_rate, b.reserved_rate)
