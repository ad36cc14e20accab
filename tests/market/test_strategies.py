"""Tests for bargaining strategies over synthetic oracles (no VFL)."""

import numpy as np
import pytest

from repro.market import (
    FeatureBundle,
    MarketConfig,
    QuotedPrice,
    ReservedPrice,
    StrategicDataParty,
    StrategicTaskParty,
)
from repro.market.strategies.baselines import (
    IncreasePriceTaskParty,
    RandomBundleDataParty,
)
from repro.market.strategies.data_party import affordable_bundles, floor_rows
from repro.market.termination import Decision
from repro.utils import spawn


def _live_state(rng):
    """Bit-generator state minus the stale ``uinteger`` slot, which is
    only read while ``has_uint32`` is set."""
    state = rng.bit_generator.state
    return {**state, "uinteger": state["uinteger"] if state["has_uint32"] else 0}


def toy_market():
    """Three bundles: cheap/weak, mid, expensive/strong."""
    b1, b2, b3 = (
        FeatureBundle.of([0]),
        FeatureBundle.of([0, 1]),
        FeatureBundle.of([0, 1, 2]),
    )
    gains = {b1: 0.05, b2: 0.12, b3: 0.20}
    reserved = {
        b1: ReservedPrice(rate=5.0, base=0.8),
        b2: ReservedPrice(rate=7.0, base=1.0),
        b3: ReservedPrice(rate=9.0, base=1.3),
    }
    config = MarketConfig(
        utility_rate=500.0,
        budget=5.0,
        initial_rate=5.5,
        initial_base=0.9,
        target_gain=0.20,
        eps_d=1e-3,
        eps_t=1e-3,
        n_price_samples=64,
    )
    return gains, reserved, config


class TestStrategicDataParty:
    def test_empty_catalogue_rejected(self):
        _, reserved, config = toy_market()
        with pytest.raises(ValueError):
            StrategicDataParty({}, reserved, config)

    def test_affordability_filter(self):
        gains, reserved, _ = toy_market()
        bundles = list(gains)
        cheap_quote = QuotedPrice(rate=5.5, base=0.9, cap=2.0)
        affordable = affordable_bundles(
            bundles, floor_rows([reserved[b] for b in bundles]), cheap_quote
        )
        assert [gains[b] for b in affordable] == [0.05]

    def test_case1_fail(self):
        gains, reserved, config = toy_market()
        party = StrategicDataParty(gains, reserved, config)
        response = party.respond(QuotedPrice(rate=1.0, base=0.1, cap=0.5), 1)
        assert response.decision is Decision.FAIL

    def test_case3_offers_best_below_tp(self):
        gains, reserved, config = toy_market()
        party = StrategicDataParty(gains, reserved, config)
        quote = QuotedPrice(rate=8.0, base=1.1, cap=1.1 + 8.0 * 0.20)
        response = party.respond(quote, 1)
        assert response.decision is Decision.CONTINUE
        assert gains[response.bundle] == 0.12  # best affordable below 0.20

    def test_case2_accepts_at_turning_point(self):
        gains, reserved, config = toy_market()
        party = StrategicDataParty(gains, reserved, config)
        quote = QuotedPrice(rate=10.0, base=1.5, cap=1.5 + 10.0 * 0.20)
        response = party.respond(quote, 1)
        assert response.decision is Decision.ACCEPT
        assert gains[response.bundle] == 0.20


class TestStrategicTaskParty:
    def test_initial_quote_satisfies_eq5(self):
        gains, _, config = toy_market()
        party = StrategicTaskParty(config, list(gains.values()), rng=spawn(0, "t"))
        q = party.initial_quote()
        assert q.turning_point == pytest.approx(0.20)
        assert q.rate == config.initial_rate
        assert q.base == config.initial_base

    def test_case5_accept(self):
        gains, _, config = toy_market()
        party = StrategicTaskParty(config, list(gains.values()), rng=spawn(0, "t"))
        q = party.initial_quote()
        decision = party.decide(q, 0.1995, 1)
        assert decision.decision is Decision.ACCEPT

    def test_case4_fail_on_regression_below_break_even(self):
        """A below-break-even offer fails only after better offers were seen."""
        gains, _, config = toy_market()
        party = StrategicTaskParty(config, list(gains.values()), rng=spawn(0, "t"))
        q = party.initial_quote()
        be = config.initial_base / (config.utility_rate - config.initial_rate)
        bundle = FeatureBundle.of([0])
        # Opening low offer: tolerated (no regression yet).
        party.observe(q, bundle, be / 2)
        assert party.decide(q, be / 2, 1).decision is Decision.CONTINUE
        # A good offer arrives, then the seller regresses below
        # break-even: the buyer walks away (Case 4).
        party.observe(q, bundle, 0.12)
        party.observe(q, bundle, be / 2)
        assert party.decide(q, be / 2, 3).decision is Decision.FAIL

    def test_case6_escalates_cap_and_keeps_eq5(self):
        gains, _, config = toy_market()
        party = StrategicTaskParty(config, list(gains.values()), rng=spawn(0, "t"))
        q = party.initial_quote()
        decision = party.decide(q, 0.05, 1)
        assert decision.decision is Decision.CONTINUE
        assert decision.quote.cap > q.cap
        assert decision.quote.turning_point == pytest.approx(0.20)
        assert decision.quote.rate >= config.initial_rate
        assert decision.quote.base >= config.initial_base - 1e-9

    def test_budget_exhaustion_accepts(self):
        gains, _, config = toy_market()
        # Budget exactly equals the opening cap: no escalation possible.
        config = config.with_overrides(budget=0.9 + 5.5 * 0.2)
        party = StrategicTaskParty(config, list(gains.values()), rng=spawn(0, "t"))
        decision = party.decide(party.initial_quote(), 0.05, 1)
        assert decision.decision is Decision.ACCEPT

    def test_opening_cap_above_budget_rejected(self):
        gains, _, config = toy_market()
        with pytest.raises(ValueError, match="budget"):
            StrategicTaskParty(
                config.with_overrides(budget=1.0), list(gains.values())
            )

    @pytest.mark.parametrize("lead_integers", [False, True])
    def test_block_escalation_matches_scalar_stream(self, lead_integers):
        # The block path must leave the generator where the scalar
        # loop does, including a half-word buffered by ``integers``.
        gains, _, config = toy_market()
        fast, ref = (
            StrategicTaskParty(config, list(gains.values()), rng=spawn(4, "t"))
            for _ in range(2)
        )
        quote = fast.initial_quote()
        for _ in range(12):
            if lead_integers:
                assert int(fast.rng.integers(0, 7)) == int(ref.rng.integers(0, 7))
            got = fast._best_escalation(quote)
            assert got == ref._best_escalation_scalar(quote)
            if got is None:
                break
            quote = got
        assert _live_state(fast.rng) == _live_state(ref.rng)

    def test_target_quantile_used_when_no_target(self):
        gains, _, config = toy_market()
        config = config.with_overrides(target_gain=None, target_quantile=0.5)
        party = StrategicTaskParty(config, list(gains.values()), rng=spawn(0, "t"))
        assert party.target == pytest.approx(0.12)


class TestBaselines:
    def test_increase_price_inflates_all_components(self):
        gains, _, config = toy_market()
        party = IncreasePriceTaskParty(config, list(gains.values()), rng=spawn(0, "b"))
        q = party.initial_quote()
        decision = party.decide(q, 0.05, 1)
        assert decision.decision is Decision.CONTINUE
        new = decision.quote
        assert new.rate >= q.rate and new.base >= q.base and new.cap >= q.cap

    def test_increase_price_does_not_keep_eq5(self):
        gains, _, config = toy_market()
        party = IncreasePriceTaskParty(config, list(gains.values()), rng=spawn(1, "b"))
        q = party.initial_quote()
        quotes = []
        for r in range(10):
            decision = party.decide(q, 0.05, r + 1)
            q = decision.quote
            quotes.append(q.turning_point)
        assert any(abs(tp - 0.20) > 1e-6 for tp in quotes)

    def test_random_bundle_offers_affordable(self):
        gains, reserved, config = toy_market()
        party = RandomBundleDataParty(gains, reserved, config, rng=spawn(0, "r"))
        quote = QuotedPrice(rate=8.0, base=1.1, cap=2.8)
        for _ in range(20):
            response = party.respond(quote, 1)
            assert response.decision in (Decision.CONTINUE, Decision.ACCEPT)
            assert reserved[response.bundle].satisfied_by(quote)

    def test_random_bundle_case1(self):
        gains, reserved, config = toy_market()
        party = RandomBundleDataParty(gains, reserved, config, rng=spawn(0, "r"))
        assert party.respond(QuotedPrice(1.0, 0.1, 0.2), 1).decision is Decision.FAIL
