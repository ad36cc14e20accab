"""Tests for the §6 future-work extensions: auditing and learned offers."""

import numpy as np
import pytest

from repro.data import load_titanic
from repro.market import (
    BargainingEngine,
    Decision,
    FeatureBundle,
    LearnedTaskParty,
    MarketConfig,
    PerformanceOracle,
    QuotedPrice,
    ReservedPrice,
    StrategicDataParty,
    StrategicTaskParty,
    TrustedEvaluator,
    under_report,
)
from repro.market.verification import _MIN_TOLERANCE
from repro.utils import spawn


@pytest.fixture(scope="module")
def audit_setting():
    dataset = load_titanic(800, seed=0).prepare(seed=0)
    evaluator = TrustedEvaluator(
        dataset,
        base_model="random_forest",
        model_params={"n_estimators": 15, "max_depth": 6},
        n_repeats=4,
        seed=0,
    )
    bundle = FeatureBundle.of(range(dataset.d_data))
    return evaluator, bundle


class TestTrustedEvaluator:
    def test_honest_report_verified(self, audit_setting):
        evaluator, bundle = audit_setting
        mean, _ = evaluator.measure(bundle)
        result = evaluator.audit(bundle, mean)
        assert result.verified
        assert abs(result.discrepancy) < 1e-9

    def test_under_reporting_detected(self, audit_setting):
        evaluator, bundle = audit_setting
        mean, std = evaluator.measure(bundle)
        # Report a fraction small enough to sit > _Z_THRESHOLD sigmas
        # below the measurement (training stochasticity is real, so the
        # evaluator can only police fraud beyond the noise floor).
        dishonest = under_report(mean, fraction=0.0)
        result = evaluator.audit(bundle, dishonest)
        assert not result.verified
        assert result.discrepancy < 0

    def test_mild_noise_tolerated(self, audit_setting):
        """Reports within training stochasticity must not be flagged."""
        evaluator, bundle = audit_setting
        mean, std = evaluator.measure(bundle)
        wobble = mean - 0.5 * max(std, _MIN_TOLERANCE)
        assert evaluator.audit(bundle, wobble).verified

    def test_over_reporting_not_policed(self, audit_setting):
        # Over-reports raise the reporter's own payment; one-sided test.
        evaluator, bundle = audit_setting
        mean, _ = evaluator.measure(bundle)
        assert evaluator.audit(bundle, mean * 2).verified

    def test_measurement_cached(self, audit_setting):
        evaluator, bundle = audit_setting
        first = evaluator.measure(bundle)
        second = evaluator.measure(bundle)
        assert first == second

    def test_under_report_validation(self):
        with pytest.raises(ValueError):
            under_report(0.1, fraction=1.5)

    def test_needs_two_repeats(self, audit_setting):
        evaluator, _ = audit_setting
        with pytest.raises(ValueError, match=">= 2"):
            TrustedEvaluator(evaluator.dataset, n_repeats=1)


def ladder_market(seed=0):
    rng = np.random.default_rng(seed)
    bundles = [FeatureBundle.of(range(i + 1)) for i in range(10)]
    gains, reserved = {}, {}
    for i, b in enumerate(bundles):
        q = (i + 1) / 10
        gains[b] = 0.2 * q
        reserved[b] = ReservedPrice(
            rate=5.0 + 4.0 * q + rng.uniform(0, 0.1),
            base=0.8 + 0.6 * q + rng.uniform(0, 0.02),
        )
    config = MarketConfig(
        utility_rate=500.0, budget=6.0, initial_rate=5.6, initial_base=0.95,
        target_gain=0.2, eps_d=1e-3, eps_t=1e-3, n_price_samples=64, max_rounds=400,
    )
    return gains, reserved, config


class TestLearnedTaskParty:
    def run(self, task_cls, seed):
        gains, reserved, config = ladder_market()
        oracle = PerformanceOracle.from_gains(gains)
        task = task_cls(config, list(gains.values()), rng=spawn(seed, "t"))
        data = StrategicDataParty(gains, reserved, config)
        return BargainingEngine(
            task, data, oracle,
            utility_rate=config.utility_rate,
            reserved_prices=reserved,
            max_rounds=config.max_rounds,
        ).run()

    def test_reaches_agreement(self):
        outcome = self.run(LearnedTaskParty, seed=0)
        assert outcome.accepted
        assert outcome.delta_g == pytest.approx(0.2)

    def test_quotes_remain_eq5_consistent(self):
        outcome = self.run(LearnedTaskParty, seed=1)
        for record in outcome.history:
            assert record.quote.turning_point == pytest.approx(0.2, abs=1e-9)

    def test_profit_comparable_to_strategic(self):
        learned = [self.run(LearnedTaskParty, seed=s) for s in range(5)]
        strategic = [self.run(StrategicTaskParty, seed=s) for s in range(5)]
        net_l = np.mean([o.net_profit for o in learned if o.accepted])
        net_s = np.mean([o.net_profit for o in strategic if o.accepted])
        assert net_l >= 0.9 * net_s

    def test_bandit_state_updates(self):
        gains, reserved, config = ladder_market()
        party = LearnedTaskParty(config, list(gains.values()), rng=spawn(3, "t"))
        quote = party.initial_quote()
        bundle = FeatureBundle.of([0])
        party.observe(quote, bundle, 0.02)
        decision = party.decide(quote, 0.02, 1)
        assert decision.decision.value == "continue"
        party.observe(decision.quote, bundle, 0.04)
        assert party._arm_count.sum() >= 1

    @pytest.mark.parametrize("gap,decision", [(1e-10, Decision.CONTINUE),
                                              (1e-13, Decision.ACCEPT)])
    def test_budget_stop_matches_the_strategic_buyer(self, gap, decision):
        """Both buyers stop on Algorithm 1's budget rule
        (``termination.budget_exhausted``, 1e-12): a cap 1e-10 under the
        budget still escalates, one 1e-13 under it accepts."""
        gains, _, config = ladder_market()
        cap = config.budget - gap
        rate = config.initial_rate
        quote = QuotedPrice(rate=rate, base=cap - rate * 0.2, cap=cap)
        for cls in (LearnedTaskParty, StrategicTaskParty):
            party = cls(config, list(gains.values()), rng=spawn(0, "t"))
            assert party.decide(quote, 0.02, 1).decision is decision, cls
