"""End-to-end integration: data -> ML -> VFL -> market -> outcome.

One small Titanic market exercises every subsystem in sequence and
checks the economic invariants that tie them together.
"""

import numpy as np
import pytest

from repro.market import Market, is_equilibrium_price
from repro.security import encrypted_gain, generate_keypair, secure_payment
from repro.service import MarketSpec


@pytest.fixture(scope="module")
def market():
    return Market.from_spec(MarketSpec(
        dataset="titanic",
        base_model="random_forest",
        quick=True,
        seed=4,
        n_bundles=14,
        model_params={"n_estimators": 8, "max_depth": 6},
        no_cache=True,
    ))


class TestFullPipeline:
    def test_market_invariants(self, market):
        # The oracle's catalogue and the reserved prices line up, and
        # the target is achievable within the budget.
        assert set(market.oracle.bundles) == set(market.reserved_prices)
        assert 0 < market.config.target_gain <= market.oracle.max_gain + 1e-12

    def test_strategic_outcome_economically_consistent(self, market):
        outcome = market.bargain(seed=0)
        assert outcome.accepted
        # Net profit identity (Eq. 3).
        expected = market.config.utility_rate * outcome.delta_g - outcome.payment
        assert outcome.net_profit == pytest.approx(expected)
        # The payment respects the quote's bounds (Def. 2.3).
        assert outcome.quote.base - 1e-9 <= outcome.payment <= outcome.quote.cap + 1e-9
        # The transacted bundle's reserved price is satisfied.
        assert outcome.reserved_of_bundle.satisfied_by(outcome.quote)

    def test_settlement_near_equilibrium(self, market):
        outcome = market.bargain(seed=1)
        if outcome.accepted:
            # Eq. 5 within the quantisation of the bundle ladder.
            assert is_equilibrium_price(
                outcome.quote, outcome.delta_g, tolerance=0.02
            )

    def test_history_payments_match_quotes(self, market):
        outcome = market.bargain(seed=2)
        for record in outcome.history:
            if record.bundle is not None:
                assert record.payment == pytest.approx(
                    record.quote.payment(record.delta_g)
                )

    def test_secure_settlement_layer(self, market):
        """The §3.6 mitigation plugs onto a real outcome unchanged."""
        outcome = market.bargain(seed=3)
        if not outcome.accepted:
            pytest.skip("no transaction this seed")
        pub, priv = generate_keypair(bits=256, rng=0)
        enc = encrypted_gain(outcome.delta_g, pub, rng=1)
        paid = secure_payment(enc, outcome.quote, priv, rng=2)
        assert paid == pytest.approx(outcome.payment, abs=1e-6)

    def test_strategy_ranking_holds(self, market):
        """The paper's headline comparison on a fresh market."""
        strategic = market.bargain_many(8, base_seed=11)
        increase = market.bargain_many(8, base_seed=11, task="increase_price")
        acc_s = [o for o in strategic if o.accepted]
        acc_i = [o for o in increase if o.accepted]
        assert acc_s, "strategic bargaining should transact"
        if acc_i:
            assert np.mean([o.net_profit for o in acc_s]) >= np.mean(
                [o.net_profit for o in acc_i]
            )
