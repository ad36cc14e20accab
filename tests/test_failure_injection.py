"""Failure injection: adversarial strategies, protocol desync, edge inputs.

The engine and substrates must fail loudly and precisely — not corrupt
state — when fed malformed or hostile inputs.
"""

import numpy as np
import pytest

from repro.market import (
    BargainingEngine,
    Decision,
    FeatureBundle,
    MarketConfig,
    PerformanceOracle,
    QuotedPrice,
    ReservedPrice,
)
from repro.market.strategies.base import (
    DataResponse,
    DataStrategy,
    TaskDecision,
    TaskStrategy,
)
from repro.ml import DecisionTreeClassifier, RandomForestClassifier
from repro.ml.tree import quantile_bin
from repro.vfl import Channel, Message


def tiny_market():
    gains = {FeatureBundle.of([0]): 0.05, FeatureBundle.of([0, 1]): 0.1}
    reserved = {b: ReservedPrice(rate=2.0, base=0.5) for b in gains}
    config = MarketConfig(
        utility_rate=100.0, budget=3.0, initial_rate=2.5,
        initial_base=0.6, target_gain=0.1, max_rounds=20,
    )
    return gains, reserved, config


class StallingTask(TaskStrategy):
    """Never accepts, never fails — must hit the round cap."""

    def __init__(self, config):
        self.config = config

    def initial_quote(self):
        return QuotedPrice(2.5, 0.6, 0.85)

    def decide(self, quote, delta_g, round_number):
        return TaskDecision(
            Decision.CONTINUE, QuotedPrice(quote.rate, quote.base, quote.cap + 0.001)
        )


class HonestSeller(DataStrategy):
    def __init__(self, gains):
        self.gains = gains

    def respond(self, quote, round_number):
        bundle = max(self.gains, key=lambda b: self.gains[b])
        return DataResponse(Decision.CONTINUE, bundle)


class OffCatalogueSeller(DataStrategy):
    """Offers a bundle the oracle never priced — must be rejected."""

    def respond(self, quote, round_number):
        return DataResponse(Decision.CONTINUE, FeatureBundle.of([99]))


class TestEngineRobustness:
    def test_stalling_parties_hit_round_cap(self):
        gains, reserved, config = tiny_market()
        engine = BargainingEngine(
            StallingTask(config),
            HonestSeller(gains),
            PerformanceOracle.from_gains(gains),
            utility_rate=config.utility_rate,
            max_rounds=config.max_rounds,
        )
        outcome = engine.run()
        assert outcome.status == "max_rounds"
        assert outcome.n_rounds == config.max_rounds

    def test_off_catalogue_offer_rejected_loudly(self):
        gains, reserved, config = tiny_market()
        engine = BargainingEngine(
            StallingTask(config),
            OffCatalogueSeller(),
            PerformanceOracle.from_gains(gains),
            utility_rate=config.utility_rate,
        )
        with pytest.raises(ValueError, match="not in catalogue"):
            engine.run()

    def test_invalid_utility_rate_rejected(self):
        gains, reserved, config = tiny_market()
        with pytest.raises(ValueError, match="utility_rate"):
            BargainingEngine(
                StallingTask(config), HonestSeller(gains),
                PerformanceOracle.from_gains(gains), utility_rate=0.0,
            )


class TestChannelDesync:
    def test_wrong_receiver_blocks(self):
        ch = Channel()
        ch.send(Message("task_party", "data_party", "x", 1))
        with pytest.raises(ValueError, match="no pending"):
            ch.receive("task_party")

    def test_out_of_order_protocol_detected(self):
        ch = Channel()
        ch.send(Message("task_party", "data_party", "hist_request", 1))
        ch.send(Message("task_party", "data_party", "split_request", 2))
        ch.receive("data_party", "hist_request")
        with pytest.raises(ValueError, match="desync"):
            ch.receive("data_party", "eval_request")


class TestDegenerateMLInputs:
    def test_tree_on_single_repeated_row(self):
        X = np.tile([[1.0, 2.0]], (10, 1))
        y = np.array([0.0, 1.0] * 5)
        tree = DecisionTreeClassifier(rng=0).fit(X, y)
        # No split possible: predicts the prior everywhere.
        assert tree.n_nodes_ == 1
        np.testing.assert_allclose(tree.predict_proba(X), 0.5)

    def test_forest_on_constant_labels(self):
        X = np.random.default_rng(0).normal(size=(20, 3))
        forest = RandomForestClassifier(3, rng=0).fit(X, np.ones(20))
        assert np.all(forest.predict(X) == 1)

    def test_binning_single_row(self):
        design = quantile_bin(np.array([[3.14]]))
        assert design.n_samples == 1
        assert design.codes[0, 0] == 0

    def test_tree_rejects_nan_labels(self):
        X = np.zeros((4, 1))
        with pytest.raises(ValueError, match="binary"):
            DecisionTreeClassifier(rng=0).fit(X, np.array([0.0, 1.0, np.nan, 0.0]))


class TestHostilePrices:
    def test_zero_headroom_quote_payment_constant(self):
        q = QuotedPrice(rate=1.0, base=2.0, cap=2.0)
        for dg in (-1.0, 0.0, 0.5, 100.0):
            assert q.payment(dg) == 2.0

    def test_extreme_gains_clamped(self):
        q = QuotedPrice(rate=10.0, base=1.0, cap=3.0)
        assert q.payment(1e12) == 3.0
        assert q.payment(-1e12) == 1.0
