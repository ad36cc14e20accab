"""Tests for the vectorised population sampler."""

import numpy as np
import pytest

from repro.market.config import MarketConfig
from repro.simulate import PopulationSpec, sample_population


class TestSpecValidation:
    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="preset"):
            PopulationSpec(preset="mnist")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="task strategy"):
            PopulationSpec(strategy_mix=(("greedy", "strategic", 1.0),))

    def test_unknown_cost_rejected(self):
        with pytest.raises(ValueError, match="cost kind"):
            PopulationSpec(cost_mix=(("quadratic", 1.0, 1.0),))

    def test_bad_quantile_range_rejected(self):
        with pytest.raises(ValueError, match="quantile"):
            PopulationSpec(target_quantile_range=(0.9, 0.2))

    def test_cost_param_constraints_enforced_at_spec_time(self):
        """Invalid schedules must fail at construction, not mid-run —
        and never diverge between the kernel and stepwise paths."""
        with pytest.raises(ValueError, match="exponential"):
            PopulationSpec(cost_mix=(("exponential", 0.5, 1.0),))
        with pytest.raises(ValueError, match="linear"):
            PopulationSpec(cost_mix=(("linear", 0.0, 1.0),))


class TestSampledPopulation:
    def test_every_session_config_is_valid(self):
        """Each sampled session must satisfy MarketConfig's invariants."""
        pop = sample_population(PopulationSpec(preset="titanic"), 60, seed=0)
        for i in range(pop.n_sessions):
            config = pop.config(i)  # __post_init__ validates
            assert isinstance(config, MarketConfig)
            opening_cap = config.initial_base + config.initial_rate * config.target_gain
            assert opening_cap <= config.budget + 1e-9
            assert config.target_gain > 0

    def test_targets_are_catalogue_gains(self):
        """Targets snap to order statistics so a bundle can settle there."""
        pop = sample_population(PopulationSpec(), 100, seed=1)
        gains = set(float(g) for g in pop.gains)
        assert all(float(t) in gains for t in pop.target)

    def test_heterogeneity(self):
        """Sessions genuinely differ — that is the point of a population."""
        pop = sample_population(PopulationSpec(), 100, seed=2)
        assert np.unique(pop.utility_rate).size > 90
        assert np.unique(pop.budget).size > 90
        assert np.unique(np.round(pop.reserved_rate, 12), axis=0).shape[0] > 90

    def test_mix_assignment_matches_weights(self):
        spec = PopulationSpec(
            strategy_mix=(("strategic", "strategic", 0.8),
                          ("increase_price", "strategic", 0.2)),
        )
        pop = sample_population(spec, 800, seed=3)
        share = float((pop.mix_idx == 0).mean())
        assert 0.7 < share < 0.9
        # Both pairs play the strategic data party: all on the kernel.
        assert pop.kernel_eligible().all()

    def test_reserved_tables_match_arrays(self):
        pop = sample_population(PopulationSpec(), 5, seed=4)
        table = pop.reserved(2)
        for j, bundle in enumerate(pop.bundles):
            assert table[bundle].rate == pytest.approx(pop.reserved_rate[2, j])
            assert table[bundle].base == pytest.approx(pop.reserved_base[2, j])

    def test_build_engine_runs(self):
        pop = sample_population(PopulationSpec(), 4, seed=5)
        outcome = pop.build_engine(0).run()
        assert outcome.status in ("accepted", "failed", "max_rounds")

    def test_cost_models_follow_mix(self):
        spec = PopulationSpec(cost_mix=(("linear", 0.05, 1.0),))
        pop = sample_population(spec, 3, seed=6)
        model = pop.cost_model(0)
        assert model is not None
        assert model(10) == pytest.approx(0.5)
