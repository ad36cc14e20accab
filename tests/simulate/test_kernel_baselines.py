"""Increase-Price sessions on the kernel against the stepwise engine.

``increase_price``/``strategic`` sessions run on the vectorised kernel,
reading the engine's own ``spawn(seed, "session", i, "task")`` stream in
the engine's order (rate, base, cap draws per continuation).  Every
such session's record must equal ``population.build_engine(i).run()``
on all eleven :class:`~repro.simulate.pool.PoolResult` fields, NaNs
included — for every built-in cost kind, the saturated-price-box
accept, every batch size, catalogue width, sampling depth and round
cap, and in batches shared with strategic rows, which must equal their
engines too.
"""

import dataclasses

import numpy as np
import pytest
from engine_records import assert_rows_equal, engine_records, pool_records

from repro.simulate import PopulationSpec, SessionPool, sample_population
from repro.simulate.kernel import (
    BY_TASK,
    STATUS_ACCEPTED,
    STATUS_MAX_ROUNDS,
    simulate_strategic_batch,
)

ALL_COSTS = (("none", 0.0, 1.0), ("constant", 0.5, 1.0),
             ("linear", 0.01, 1.0), ("exponential", 1.01, 1.0))


def _population(seed, n_sessions, *, increase_share=1.0, cost_mix=ALL_COSTS,
                **spec):
    mix = (("increase_price", "strategic", increase_share),)
    if increase_share < 1.0:
        mix += (("strategic", "strategic", 1.0 - increase_share),)
    return sample_population(
        PopulationSpec(preset="synthetic", strategy_mix=mix, cost_mix=cost_mix,
                       **spec),
        n_sessions, seed=seed,
    )


def _increase_rows(pop):
    task = np.array([t for t, _, _ in pop.spec.strategy_mix])[pop.mix_idx]
    return np.flatnonzero(task == "increase_price")


class TestEveryCostKind:
    @pytest.mark.parametrize("cost", ALL_COSTS, ids=lambda c: c[0])
    def test_pool_matches_engine(self, cost):
        pop = _population(11, 40, cost_mix=(cost,))
        assert pop.kernel_eligible().all()
        result = SessionPool(pop, batch_size=16).run()
        assert result.stepped_sessions == 0
        assert result.oracle_queries == 0
        rows = np.arange(pop.n_sessions)
        assert_rows_equal(pool_records(result), engine_records(pop, rows), rows)

    def test_exponential_rows_hit_the_numpy_power_trap(self):
        """numpy's ``**`` rounds some of these costs differently from the
        engine's ``float ** int``, so the exact comparison above guards
        the scalar power path."""
        pop = _population(11, 40, cost_mix=(ALL_COSTS[3],))
        result = SessionPool(pop, batch_size=16).run()
        a = pop.spec.cost_mix[0][1]
        assert any(
            (np.full(pop.n_sessions, a)**T != a**T).any()
            for T in range(1, int(result.n_rounds.max()) + 2)
        )


class TestSaturatedPriceBox:
    def test_saturated_price_box_accepts(self):
        """A catalogue of losing bundles keeps every game going until the
        cap sits at the budget, the base has grown into the cap and the
        rate into ``u/2``: the price box saturates and the task party
        accepts, on both paths."""
        pop = _population(2, 6, cost_mix=(ALL_COSTS[0],), max_rounds=2000)
        n, width = pop.n_sessions, len(pop.bundles)
        pop = dataclasses.replace(
            pop,
            gains=-0.5 - 0.01 * np.arange(width),
            reserved_rate=np.full((n, width), 1.0),
            reserved_base=np.full((n, width), 0.1),
            budget=pop.initial_base + pop.initial_rate * pop.target,
            oracle=None,  # rebuilt from the new gains
        )
        result = SessionPool(pop).run()
        assert (result.status == STATUS_ACCEPTED).all()
        assert (result.terminated_by == BY_TASK).all()
        assert (result.final_base == result.final_cap).all()
        assert (result.final_cap == pop.budget).all()
        assert (result.final_rate == pop.utility_rate * 0.5).all()
        rows = np.arange(n)
        assert_rows_equal(pool_records(result), engine_records(pop, rows), rows)


class TestBatchSizes:
    @pytest.fixture(scope="class")
    def world(self):
        """1100 sessions, ~10% Increase Price, every cost kind, and each
        session's engine record."""
        pop = _population(5, 1100, increase_share=0.1)
        return pop, engine_records(pop, range(pop.n_sessions))

    @pytest.mark.parametrize("batch_size, n_run",
                             [(1, 160), (7, 160), (64, 1100), (1024, 1100)])
    def test_pool_matches_engine(self, world, batch_size, n_run):
        pop, engine = world
        result = SessionPool(pop, batch_size=batch_size).run(
            indices=np.arange(n_run)
        )
        assert result.kernel_sessions == n_run
        inc = _increase_rows(pop)
        assert (inc < n_run).sum() >= 10
        # Strategic rows sharing the batch equal their engines too.
        assert_rows_equal(pool_records(result), engine, np.arange(n_run))


class TestPopulationShapes:
    @pytest.mark.parametrize("seed, shape", [
        (20, dict(n_bundles=8)),
        (21, dict(n_bundles=30, n_price_samples=3, max_rounds=25)),
        (22, dict(n_bundles=16, n_price_samples=1)),
    ], ids=["narrow", "capped", "one-sample"])
    def test_half_increase_price_matches_engine(self, seed, shape):
        """Half Increase Price, over catalogue widths, sampling depths and
        round caps: every row, of either strategy, equals its engine."""
        pop = _population(seed, 40, increase_share=0.5, **shape)
        rows = np.arange(pop.n_sessions)
        out = simulate_strategic_batch(pop, rows)
        assert_rows_equal(out, engine_records(pop, rows), rows)
        if pop.spec.max_rounds == 25:  # the cap binds some of these games
            inc = _increase_rows(pop)
            assert (out["status"][inc] == STATUS_MAX_ROUNDS).any()
