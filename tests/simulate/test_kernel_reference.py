"""The kernel's strategic rows against the stepwise engine, bit for bit.

Every kernel session must return exactly the record of
``population.build_engine(i).run()``, NaNs included: on pool batches,
strided index sets, every built-in cost kind, every
``(n_price_samples, max_rounds)`` shape below, rows whose smallest
candidate cap is unusable (resolved by the engine's own scan), and
games long enough to grow the offer trail and refill the
tape many times.
"""

import dataclasses

import numpy as np
import pytest
from engine_records import (
    assert_kernel_equals_engine,
    assert_rows_equal,
    engine_records,
    pool_records,
)

from repro.simulate import SessionPool, kernel
from repro.simulate.kernel import (
    STATUS_ACCEPTED,
    STATUS_FAILED,
    STATUS_MAX_ROUNDS,
    simulate_strategic_batch,
)
from repro.simulate.population import PopulationSpec, sample_population

ALL_COSTS = (("none", 0.0, 1.0), ("constant", 0.5, 1.0),
             ("linear", 0.01, 1.0), ("exponential", 1.01, 1.0))
#: ``(n_price_samples, max_rounds)`` shapes, one population each.
SHAPES = ((1, 500), (3, 50), (31, 2), (120, 1), (3, 500), (1, 2), (120, 50),
          (31, 500))


def _population(seed, n_sessions=60, **spec):
    return sample_population(PopulationSpec(preset="synthetic", **spec),
                             n_sessions, seed=seed)


def _check(pop, indices=None):
    """Run ``pop``'s sessions at ``indices`` (all by default) through the
    kernel and compare each with its engine."""
    if indices is None:
        indices = np.arange(pop.n_sessions)
    out = simulate_strategic_batch(pop, indices)
    assert_kernel_equals_engine(out, pop, indices)
    return out


@pytest.fixture
def scans(monkeypatch):
    """Count the rows the kernel handed to the engine's own scan."""
    calls = []
    real = kernel._min_cap_scan

    def spy(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(kernel, "_min_cap_scan", spy)
    return calls


class TestAgainstEngine:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_pool_batches(self, seed):
        pop = _population(seed, n_sessions=120,
                          cost_mix=(("none", 0.0, 1.0), ("linear", 0.001, 1.0),
                                    ("exponential", 1.001, 1.0)))
        result = SessionPool(pop, batch_size=32).run()
        assert result.kernel_sessions == pop.n_sessions
        rows = np.arange(pop.n_sessions)
        assert_rows_equal(pool_records(result), engine_records(pop, rows), rows)

    def test_every_cost_kind(self):
        out = _check(_population(7, n_sessions=160, cost_mix=ALL_COSTS))
        assert set(np.unique(out["status"])) >= {STATUS_ACCEPTED, STATUS_FAILED}

    def test_a_cost_is_only_evaluated_while_its_sessions_run(self):
        """``1e10 ** T`` overflows a float from round 31; the exponential
        sessions end sooner, the frictionless ones bargain on, and none
        of their engines evaluates that cost — nor may the kernel."""
        pop = _population(1, cost_mix=(("none", 0.0, 1.0),
                                       ("exponential", 1e10, 1.0)))
        out = _check(pop)
        assert out["n_rounds"].max() > 31

    def test_strided_indices(self):
        pop = _population(8, n_sessions=160, cost_mix=ALL_COSTS)
        _check(pop, np.arange(3, pop.n_sessions, 7))

    @pytest.mark.parametrize(
        "j, n_price_samples, max_rounds",
        [(j, ns, mr) for j, (ns, mr) in enumerate(SHAPES)],
        ids=[f"ns{ns}-mr{mr}" for ns, mr in SHAPES],
    )
    def test_sampling_depths_and_round_caps(self, j, n_price_samples, max_rounds):
        out = _check(_population(20 + j, n_sessions=30, n_bundles=8 + 8 * j,
                                 n_price_samples=n_price_samples,
                                 max_rounds=max_rounds, cost_mix=ALL_COSTS))
        assert (out["n_rounds"] <= max_rounds).all()
        if max_rounds <= 2:
            assert (out["status"] == STATUS_MAX_ROUNDS).any()

    @pytest.mark.parametrize("n_price_samples", [1, 3, 31])
    def test_unusable_smallest_cap_replays_the_scan(self, scans, n_price_samples):
        """A budget 5e-12 above the opening cap puts a fifth of the
        candidate caps within the 1e-12 "raises the cap" margin, so the
        smallest even cap is often unusable and the engine's scan reads
        caps and rates out of their alternating places."""
        pop = _population(9, n_sessions=80, n_price_samples=n_price_samples,
                          cost_mix=ALL_COSTS)
        pop = dataclasses.replace(
            pop, budget=pop.initial_base + pop.initial_rate * pop.target + 5e-12,
        )
        _check(pop)
        assert sum(scans) > 0

    def test_long_games_grow_the_trail_and_refill_the_tape(self):
        pop = _population(5, n_sessions=400, n_price_samples=240)
        out = _check(pop)
        # Past 64 rounds the offer trail grows; past 8 tape windows the
        # tape has been refilled at least 8 times.
        assert out["n_rounds"].max() > max(64, 8 * kernel._TAPE_ROUNDS)

    @pytest.mark.parametrize("n_price_samples, strategy_mix", [
        (120, (("strategic", "strategic", 1.0),)),
        (1, (("strategic", "strategic", 0.6),
             ("increase_price", "strategic", 0.4))),
    ], ids=["strategic", "one-sample-increase-price"])
    def test_single_round_budget_tape(self, monkeypatch, n_price_samples,
                                      strategy_mix):
        """A one-round tape refills on every sampling round; with one
        candidate per round it must still hold an Increase-Price round's
        three doubles."""
        monkeypatch.setattr(kernel, "_TAPE_BYTES", 1)
        _check(_population(6, n_sessions=80, cost_mix=ALL_COSTS,
                           n_price_samples=n_price_samples,
                           strategy_mix=strategy_mix))
