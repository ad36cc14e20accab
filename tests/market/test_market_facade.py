"""Integration tests for the Market facade on a real (quick) dataset."""

import numpy as np
import pytest

from repro.market import LinearCost, Market, NoCost, PerformanceOracle, ScaledCost
from repro.market.bundle import FeatureBundle
from repro.market.pricing import ReservedPrice
from repro.market.config import MarketConfig
from repro.service import MarketSpec


@pytest.fixture(scope="module")
def titanic_market():
    return Market.from_spec(MarketSpec(
        dataset="titanic",
        base_model="random_forest",
        quick=True,
        seed=0,
        n_bundles=12,
        model_params={"n_estimators": 8, "max_depth": 6},
        no_cache=True,
    ))


class TestFromSpec:
    def test_builds_complete_stack(self, titanic_market):
        market = titanic_market
        assert len(market.oracle) == 12
        assert market.config.target_gain is not None
        assert market.config.target_gain > 0
        assert set(market.oracle.bundles) == set(market.reserved_prices)

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            Market.from_spec(MarketSpec(dataset="mnist"))

    def test_config_overrides_applied(self):
        market = Market(
            oracle=PerformanceOracle.from_gains({FeatureBundle.of([0]): 0.1}),
            reserved_prices={FeatureBundle.of([0]): ReservedPrice(1.0, 0.1)},
            config=MarketConfig(
                utility_rate=100.0, budget=5.0, initial_rate=2.0,
                initial_base=0.2, target_gain=0.1,
            ),
        )
        out = market.bargain(seed=0, config_overrides={"max_rounds": 3})
        assert out.n_rounds <= 3


class TestBargainVariants:
    def test_strategic_accepts_and_beats_baseline(self, titanic_market):
        strategic = titanic_market.bargain_many(6, base_seed=0)
        increase = titanic_market.bargain_many(
            6, base_seed=0, task="increase_price"
        )
        net_s = np.mean([o.net_profit for o in strategic if o.accepted])
        net_i = np.mean([o.net_profit for o in increase if o.accepted])
        assert net_s > net_i

    def test_random_bundle_fails_more(self, titanic_market):
        strategic = titanic_market.bargain_many(6, base_seed=1)
        random_b = titanic_market.bargain_many(6, base_seed=1, data="random_bundle")
        fails_s = sum(not o.accepted for o in strategic)
        fails_r = sum(not o.accepted for o in random_b)
        assert fails_r >= fails_s

    def test_costs_reduce_final_revenue(self, titanic_market):
        out = titanic_market.bargain(
            seed=0, cost_task=LinearCost(0.05), cost_data=LinearCost(0.05)
        )
        assert out.net_profit_after_cost < out.net_profit
        assert out.payment_after_cost < out.payment

    def test_no_cost_model_bargains_like_a_zero_cost(self, titanic_market):
        """Table 3's no-cost row passes no cost model (``build_cost("none")``
        is ``None``); that plays every game exactly as a zero-valued
        scaled cost does, Eq. 6-7 checks included."""
        zero = ScaledCost(NoCost(), 0.1)
        for task in ("strategic", "increase_price"):
            free = titanic_market.bargain_many(6, base_seed=2, task=task)
            costed = titanic_market.bargain_many(
                6, base_seed=2, task=task, cost_task=zero, cost_data=zero
            )
            assert [o.to_dict() for o in free] == [o.to_dict() for o in costed]

    def test_imperfect_information_runs(self, titanic_market):
        out = titanic_market.bargain(
            seed=0,
            information="imperfect",
            config_overrides={"exploration_rounds": 15, "max_rounds": 120},
        )
        assert out.n_rounds > 15
        assert out.status in ("accepted", "failed", "max_rounds")

    def test_unknown_strategy_rejected(self, titanic_market):
        with pytest.raises(ValueError, match="unknown task strategy"):
            titanic_market.bargain(task="oracle_cheat")
        with pytest.raises(ValueError, match="information"):
            titanic_market.bargain(information="partial")

    def test_outcome_reserved_price_reporting(self, titanic_market):
        out = titanic_market.bargain(seed=2)
        if out.accepted:
            assert out.reserved_of_bundle is not None
            # Table 4's delta columns: final price should clear the floor.
            assert out.quote.rate >= out.reserved_of_bundle.rate - 1e-9

    def test_bargain_many_distinct_seeds(self, titanic_market):
        outs = titanic_market.bargain_many(5, base_seed=3)
        assert len({o.n_rounds for o in outs}) > 1
