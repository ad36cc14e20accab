"""Integration: auditing a real bargaining outcome end to end."""

import pytest

from repro.market import Market, TrustedEvaluator, under_report
from repro.service import MarketSpec


@pytest.fixture(scope="module")
def market_and_evaluator():
    market = Market.from_spec(MarketSpec(
        dataset="titanic",
        base_model="random_forest",
        quick=True,
        seed=6,
        n_bundles=10,
        model_params={"n_estimators": 10, "max_depth": 6},
        no_cache=True,
    ))
    evaluator = TrustedEvaluator(
        market.dataset,
        base_model="random_forest",
        model_params={"n_estimators": 10, "max_depth": 6},
        n_repeats=4,
        seed=6,
    )
    return market, evaluator


class TestOutcomeAuditing:
    def test_honest_settlement_passes_audit(self, market_and_evaluator):
        market, evaluator = market_and_evaluator
        outcome = market.bargain(seed=0)
        if not outcome.accepted:
            pytest.skip("no transaction this seed")
        result = evaluator.audit(outcome.bundle, outcome.delta_g)
        assert result.verified, (
            f"honest report flagged: reported {outcome.delta_g:.4f} vs "
            f"measured {result.measured_mean:.4f}±{result.measured_std:.4f}"
        )

    def test_fraudulent_settlement_flagged(self, market_and_evaluator):
        market, evaluator = market_and_evaluator
        outcome = market.bargain(seed=1)
        if not outcome.accepted:
            pytest.skip("no transaction this seed")
        fraud = under_report(outcome.delta_g, fraction=0.0)
        result = evaluator.audit(outcome.bundle, fraud)
        assert not result.verified

    def test_fraud_would_have_cut_the_payment(self, market_and_evaluator):
        """The economic motive the audit exists to block (paper §6)."""
        market, _ = market_and_evaluator
        outcome = market.bargain(seed=2)
        if not outcome.accepted:
            pytest.skip("no transaction this seed")
        honest_payment = outcome.quote.payment(outcome.delta_g)
        fraud_payment = outcome.quote.payment(under_report(outcome.delta_g, 0.2))
        assert fraud_payment < honest_payment
