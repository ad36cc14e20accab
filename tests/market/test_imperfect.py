"""Tests for the imperfect-information strategies (§3.5) on synthetic ladders."""

import hashlib
import math

import numpy as np
import pytest

from repro.market import (
    BargainingEngine,
    FeatureBundle,
    ImperfectDataParty,
    ImperfectTaskParty,
    MarketConfig,
    PerformanceOracle,
    QuotedPrice,
    ReservedPrice,
    TaskGainEstimator,
)
from repro.market.strategies.base import TaskDecision
from repro.market.termination import Decision, task_accepts, task_fails_regression
from repro.utils import spawn


def ladder(n=10, top_gain=0.2, seed=0):
    rng = np.random.default_rng(seed)
    bundles = [FeatureBundle.of(range(i + 1)) for i in range(n)]
    gains, reserved = {}, {}
    for i, b in enumerate(bundles):
        quality = (i + 1) / n
        gains[b] = top_gain * quality
        reserved[b] = ReservedPrice(
            rate=5.0 + 4.0 * quality + rng.uniform(0, 0.1),
            base=0.8 + 0.6 * quality + rng.uniform(0, 0.02),
        )
    config = MarketConfig(
        utility_rate=500.0,
        budget=6.0,
        initial_rate=5.6,
        initial_base=0.95,
        target_gain=top_gain,
        eps_d=5e-3,
        eps_t=5e-3,
        n_price_samples=48,
        max_rounds=300,
        exploration_rounds=40,
    )
    return bundles, gains, reserved, config


class TestImperfectTaskParty:
    def test_needs_explicit_target(self):
        _, _, _, config = ladder()
        with pytest.raises(ValueError, match="target"):
            ImperfectTaskParty(config.with_overrides(target_gain=None), rng=0)

    def test_explores_without_terminating(self):
        _, _, _, config = ladder()
        party = ImperfectTaskParty(config, rng=spawn(0, "t"))
        q = party.initial_quote()
        # Below break-even would normally fail; exploration ignores it.
        decision = party.decide(q, 0.00001, round_number=5)
        assert decision.decision is Decision.CONTINUE

    def test_terminates_after_exploration(self):
        _, _, _, config = ladder()
        party = ImperfectTaskParty(config, rng=spawn(0, "t"))
        q = party.initial_quote()
        bundle = FeatureBundle.of([0])
        # A good offer was seen; the regressed junk offer now fails
        # Case IV once exploration is over.
        party.observe(q, bundle, 0.15)
        party.observe(q, bundle, 0.00001)
        decision = party.decide(q, 0.00001, round_number=100)
        assert decision.decision is Decision.FAIL

    def test_accepts_near_turning_point_after_exploration(self):
        _, _, _, config = ladder()
        party = ImperfectTaskParty(config, rng=spawn(0, "t"))
        q = party.initial_quote()
        decision = party.decide(q, q.turning_point, round_number=100)
        assert decision.decision is Decision.ACCEPT

    def test_estimator_observes(self):
        _, _, _, config = ladder()
        party = ImperfectTaskParty(config, rng=spawn(0, "t"))
        party.observe(party.initial_quote(), FeatureBundle.of([0]), 0.05)
        assert party.estimator.n_observations == 1


class TestImperfectDataParty:
    def test_exploration_keeps_game_alive_when_unaffordable(self):
        bundles, gains, reserved, config = ladder()
        party = ImperfectDataParty(bundles, reserved, config, 10, rng=spawn(0, "d"))
        response = party.respond(QuotedPrice(1.0, 0.01, 0.02), round_number=3)
        assert response.decision is Decision.CONTINUE

    def test_fails_when_unaffordable_after_exploration(self):
        bundles, gains, reserved, config = ladder()
        party = ImperfectDataParty(bundles, reserved, config, 10, rng=spawn(0, "d"))
        response = party.respond(QuotedPrice(1.0, 0.01, 0.02), round_number=100)
        assert response.decision is Decision.FAIL

    def test_exploration_offers_random_affordable(self):
        bundles, gains, reserved, config = ladder()
        party = ImperfectDataParty(bundles, reserved, config, 10, rng=spawn(0, "d"))
        quote = QuotedPrice(9.5, 1.5, 4.0)
        seen = {party.respond(quote, 2).bundle for _ in range(30)}
        assert len(seen) > 3  # random exploration, not a fixed pick


class TestImperfectBargainingEndToEnd:
    def run_game(self, seed):
        bundles, gains, reserved, config = ladder(seed=0)
        oracle = PerformanceOracle.from_gains(gains)
        task = ImperfectTaskParty(config, rng=spawn(seed, "task"))
        data = ImperfectDataParty(
            bundles, reserved, config, n_features=10, rng=spawn(seed, "data")
        )
        engine = BargainingEngine(
            task, data, oracle,
            utility_rate=config.utility_rate,
            reserved_prices=reserved,
            max_rounds=config.max_rounds,
        )
        return engine.run(), task, data

    def test_converges_to_reasonable_outcome(self):
        outcome, task, data = self.run_game(seed=1)
        assert outcome.accepted
        assert outcome.n_rounds > 40  # at least the exploration window
        # Settlements under imperfect information are noisy (the paper's
        # Table 4 shows large stds); require a sane, profitable landing.
        assert outcome.delta_g >= 0.04
        assert outcome.net_profit > 0

    def test_estimators_trained_during_bargaining(self):
        outcome, task, data = self.run_game(seed=2)
        assert task.estimator.n_observations >= 40
        assert data.estimator.n_observations >= 40
        # Learning converged: buffer MSE is small relative to gains^2.
        assert task.estimator.mse_history[-1] < 0.01
        assert data.estimator.mse_history[-1] < 0.01

    def test_comparable_to_perfect_information(self):
        """Imperfect payoff should be within a reasonable band of perfect."""
        from repro.market import StrategicDataParty, StrategicTaskParty

        bundles, gains, reserved, config = ladder(seed=0)
        oracle = PerformanceOracle.from_gains(gains)
        perfect = BargainingEngine(
            StrategicTaskParty(config, list(gains.values()), rng=spawn(0, "t")),
            StrategicDataParty(gains, reserved, config),
            oracle,
            utility_rate=config.utility_rate,
            max_rounds=config.max_rounds,
        ).run()
        imperfect, _, _ = self.run_game(seed=3)
        assert perfect.accepted and imperfect.accepted
        assert imperfect.net_profit >= 0.4 * perfect.net_profit


# ---------------------------------------------------------------------------
# The vectorised task party against a frozen scalar reference.
#
# ``_ScalarTaskParty`` keeps the pre-vectorisation ``_sample_box`` (one
# validated ``QuotedPrice`` per candidate from scalar ``uniform`` draws)
# and ``decide`` (per-candidate qualify/profit, ``max``) verbatim.  The
# vectorised party must pick the same quote and leave its generator in
# the same state every round, including the exploration rounds, whose
# ``integers`` pick follows the replayed block.
# ---------------------------------------------------------------------------


class _ScalarTaskParty(ImperfectTaskParty):
    def _sample_box(self, n):
        cfg = self.config
        cap_low = cfg.initial_base + cfg.initial_rate * self.target
        cap_high = min(cfg.budget, 0.95 * cfg.utility_rate * self.target)
        if cap_high <= cap_low:
            cap_high = min(cfg.budget, cap_low * 1.25)
        quotes = []
        for _ in range(n):
            cap = float(self.rng.uniform(cap_low, cap_high))
            rate_high = min(cfg.utility_rate, (cap - cfg.initial_base) / self.target)
            if rate_high <= cfg.initial_rate:
                continue
            rate = float(self.rng.uniform(cfg.initial_rate, rate_high))
            base = cap - rate * self.target
            quotes.append(QuotedPrice(rate=rate, base=base, cap=cap))
        return quotes

    def _predicted_profit(self, quote, predicted_gain):
        gain = max(predicted_gain, 0.0)
        return self.config.utility_rate * gain - quote.payment(gain)

    def decide(self, quote, delta_g, round_number):
        cfg = self.config
        if not self.exploring(round_number):
            if task_fails_regression(
                delta_g, self._break_even,
                self._trail.best_dominated_previous(quote),
            ):
                return TaskDecision(Decision.FAIL)
            if task_accepts(quote.turning_point, delta_g, cfg.eps_t):
                return TaskDecision(Decision.ACCEPT)
        candidates = self._sample_box(cfg.n_price_samples)
        if not candidates:
            return TaskDecision(Decision.ACCEPT)
        if self.exploring(round_number + 1):
            pick = candidates[int(self.rng.integers(0, len(candidates)))]
            return TaskDecision(Decision.CONTINUE, pick)
        predictions = self.estimator.predict(candidates)
        qualified = [
            (q, g) for q, g in zip(candidates, predictions)
            if g >= q.turning_point - cfg.eps_t
        ]
        pool = qualified if qualified else list(zip(candidates, predictions))
        best, _ = max(pool, key=lambda pair: self._predicted_profit(*pair))
        return TaskDecision(Decision.CONTINUE, best)


def _live_state(rng):
    """Bit-generator state minus the stale ``uinteger`` slot, which is
    only read while ``has_uint32`` is set."""
    state = rng.bit_generator.state
    return {**state, "uinteger": state["uinteger"] if state["has_uint32"] else 0}


def _play(task_cls, seed):
    bundles, gains, reserved, config = ladder(seed=0)
    task = task_cls(config, rng=spawn(seed, "task"))
    data = ImperfectDataParty(
        bundles, reserved, config, n_features=10, rng=spawn(seed, "data")
    )
    engine = BargainingEngine(
        task, data, PerformanceOracle.from_gains(gains),
        utility_rate=config.utility_rate, reserved_prices=reserved,
        max_rounds=config.max_rounds,
    )
    return engine.run(), task


class TestVectorisedMatchesScalarReference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_whole_session_identical(self, seed):
        fast, fast_task = _play(ImperfectTaskParty, seed)
        ref, ref_task = _play(_ScalarTaskParty, seed)
        assert fast.to_dict() == ref.to_dict()
        assert [r.to_dict() for r in fast.history] == [
            r.to_dict() for r in ref.history
        ]
        assert _live_state(fast_task.rng) == _live_state(ref_task.rng)
        assert fast_task.estimator.mse_history == ref_task.estimator.mse_history

    def test_every_decision_and_generator_state_identical(self):
        _, _, _, config = ladder(seed=0)
        fast = ImperfectTaskParty(config, rng=spawn(9, "task"))
        ref = _ScalarTaskParty(config, rng=spawn(9, "task"))
        draw = np.random.default_rng(3)
        quote = fast.initial_quote()
        for round_number in range(1, 70):
            gain = float(draw.uniform(0.0, 0.25))
            for party in (fast, ref):
                party.observe(quote, None, gain)
            got = fast.decide(quote, gain, round_number)
            want = ref.decide(quote, gain, round_number)
            assert got == want
            assert _live_state(fast.rng) == _live_state(ref.rng)
            if want.decision is not Decision.CONTINUE:
                break
            quote = want.quote

    @pytest.mark.parametrize("nan_at", [(0,), (3,), (1, 5, 40)])
    def test_nan_predictions_select_like_max(self, nan_at):
        # A diverged estimator: ``max`` keeps its first key unless a later
        # one is strictly greater, so NaN keys never win after position 0.
        # No prediction reaches the 0.2 target, so every candidate (NaNs
        # included) is in the pool.
        _, _, _, config = ladder(seed=0)
        parties = [cls(config, rng=spawn(2, "task"))
                   for cls in (ImperfectTaskParty, _ScalarTaskParty)]

        def predictions(n):
            out = np.linspace(0.15, 0.0, n)
            out[[i for i in nan_at if i < n]] = np.nan
            return out

        fast, ref = parties
        fast.estimator.predict_features = lambda raw: predictions(raw.shape[0])
        ref.estimator.predict = lambda quotes: predictions(len(quotes))
        quote = fast.initial_quote()
        got = fast.decide(quote, 0.05, config.exploration_rounds + 1)
        assert got == ref.decide(quote, 0.05, config.exploration_rounds + 1)
        assert got.decision is Decision.CONTINUE

    def test_scalar_fallback_for_generators_without_exact_advance(self):
        _, _, _, config = ladder(seed=0)
        for make in (np.random.MT19937, np.random.Philox):
            # ``spawn`` splits only PCG64-style states: bring estimators.
            fast, ref = (
                cls(config, estimator=TaskGainEstimator(rng=0),
                    rng=np.random.Generator(make(4)))
                for cls in (ImperfectTaskParty, _ScalarTaskParty)
            )
            quote = fast.initial_quote()
            for round_number in range(1, 45):
                assert fast.decide(quote, 0.1, round_number) == ref.decide(
                    quote, 0.1, round_number
                )
            assert np.array_equal(fast.rng.random(8), ref.rng.random(8))

    def test_skipped_candidates_replay_the_tape_sequentially(self):
        # cap_low is 1 + 0.5*0.25 = 1.125 exactly, so a zero cap draw
        # leaves rate_high == initial_rate and the candidate is skipped
        # after one double: every later draw shifts along the tape.
        config = MarketConfig(
            utility_rate=10.0, budget=2.0, initial_rate=0.5, initial_base=1.0,
            target_gain=0.25, eps_d=1e-3, eps_t=1e-3, n_price_samples=6,
            max_rounds=50, exploration_rounds=5,
        )
        party = ImperfectTaskParty(config, rng=0)
        tape = np.array([0.3, 0.7, 0.0, 0.5, 0.9, 0.0, 0.0, 0.2, 0.4, 0.6, 0.8, 0.1])

        class Scripted:
            def __init__(self):
                self.pos = 0

            def uniform(self, low, high):
                self.pos += 1
                return low + (high - low) * tape[self.pos - 1]

        scripted = Scripted()
        ref = _ScalarTaskParty(config, rng=0)
        ref.rng = scripted
        want = ref._sample_box(6)
        (rates, caps), used = party._candidates(tape, 6, 1.125, 2.0)
        assert used == scripted.pos == 9
        assert rates.tolist() == [q.rate for q in want]
        assert caps.tolist() == [q.cap for q in want]

    def test_invalid_candidate_still_raises(self, monkeypatch):
        # Eq. 5 keeps every sampled base >= P0^0 up to rounding, so force
        # a bad block: the first invalid candidate raises QuotedPrice's
        # own error.
        _, _, _, config = ladder(seed=0)
        party = ImperfectTaskParty(config, rng=1)
        party.target = 0.2
        block = (np.array([6.0, 7.0, 8.0]), np.array([2.0, 1.0, 0.5]))
        monkeypatch.setattr(party, "_candidates", lambda *args: (block, 6))
        with pytest.raises(ValueError, match=r"P0 must be >= 0, got -0\.4"):
            party._sample_box(3)


def _digest(values):
    h = hashlib.sha256()
    for v in values:
        h.update(float(v).hex().encode() + b",")
    return h.hexdigest()[:16]


#: Captured before the vectorisation: outcome, and both estimators'
#: ``mse_history`` (hex floats hashed), on the synthetic market.
_SESSION_PINS = {
    0: ("accepted", 101, "0x1.089bf6c2a869dp-3", "0x1.75a7b170e8715p+1",
        [0, 1, 2, 4, 6, 7, 8, 9, 10], "934d55d3932f8d42", "210e56fe17ab171f"),
    1: ("accepted", 101, "0x1.f088389e69156p-3", "0x1.6cae5b43a6154p+2",
        [0, 1, 3, 4, 5, 7, 8, 9, 10, 11], "07bc97650705680d", "585349c7a38f9b25"),
    3: ("accepted", 102, "0x1.f088389e69156p-3", "0x1.16cfe58145709p+2",
        [0, 1, 3, 4, 5, 7, 8, 9, 10, 11], "76ed18b75ec62aaa", "bddf6dea7478a9ad"),
}


@pytest.fixture(scope="module")
def synthetic_market():
    from repro.market.market import Market
    from repro.service.specs import MarketSpec

    return Market.from_spec(MarketSpec(dataset="synthetic", seed=0))


@pytest.mark.parametrize("seed", sorted(_SESSION_PINS))
def test_imperfect_session_pinned(synthetic_market, seed):
    engine = synthetic_market.build_engine(information="imperfect", seed=seed)
    outcome = engine.run()
    assert not math.isnan(outcome.delta_g)
    assert (
        outcome.status, outcome.n_rounds, float(outcome.delta_g).hex(),
        float(outcome.payment).hex(), list(outcome.bundle.indices),
        _digest(engine.task.estimator.mse_history),
        _digest(engine.data.estimator.mse_history),
    ) == _SESSION_PINS[seed]
