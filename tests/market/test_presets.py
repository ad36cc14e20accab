"""Tests for the per-dataset market presets (calibration invariants)."""

import pytest

from repro.market import MARKET_PRESETS
from repro.market.pricing import QuotedPrice, ReservedPrice
from repro.service import registry


class TestPresetLookups:
    def test_all_paper_datasets_present(self):
        assert set(MARKET_PRESETS) == {"titanic", "credit", "adult"}

    def test_registry_serves_the_presets(self):
        for name, preset in MARKET_PRESETS.items():
            assert registry.DATASETS.get(name).preset is preset

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown dataset 'mnist'"):
            registry.DATASETS.get("mnist")


@pytest.mark.parametrize("name", ["titanic", "credit", "adult"])
class TestPresetInvariants:
    def test_individual_rationality(self, name):
        config = MARKET_PRESETS[name].config
        assert config.utility_rate > config.initial_rate

    def test_budget_headroom(self, name):
        config = MARKET_PRESETS[name].config
        assert config.budget > config.initial_base

    def test_opening_quote_affords_cheapest_bundle(self, name):
        """The cheapest possible bundle must clear at the opening quote.

        Otherwise every game dies with Case 1 in round 1.  'Cheapest
        possible' = one feature, zero quality premium, zero noise.
        """
        preset = MARKET_PRESETS[name]
        params = preset.reserved_price_params
        cheapest = ReservedPrice(
            rate=params["rate_floor"] + params["rate_per_feature"],
            base=params["base_floor"] + params["base_per_feature"],
        )
        opening = QuotedPrice(
            rate=preset.config.initial_rate,
            base=preset.config.initial_base,
            cap=preset.config.budget,
        )
        assert cheapest.satisfied_by(opening), (
            f"{name}: opening quote cannot afford the cheapest bundle"
        )

    def test_quick_samples_bounded_by_full(self, name):
        preset = MARKET_PRESETS[name]
        assert preset.quick_n_samples <= preset.full_n_samples

    def test_paper_utility_rate_magnitudes(self, name):
        """The calibrated u values implied by the paper's Tables (DESIGN.md §6)."""
        expected = {"titanic": 1000.0, "credit": 550.0, "adult": 80.0}
        assert MARKET_PRESETS[name].config.utility_rate == expected[name]

    def test_tolerances_below_gain_scale(self, name):
        # eps must be far below the targeted gains or Case 2 fires on junk.
        config = MARKET_PRESETS[name].config
        typical_gain = {"titanic": 0.19, "credit": 0.04, "adult": 0.028}[name]
        assert config.eps_d < typical_gain / 10
        assert config.eps_t < typical_gain / 10
