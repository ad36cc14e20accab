"""Increase-Price sessions on the kernel against the stepwise engine.

``increase_price``/``strategic`` sessions run on the vectorised kernel,
reading the engine's own ``spawn(seed, "session", i, "task")`` stream in
the engine's order (rate, base, cap draws per continuation).  Every
such session's record must equal ``population.build_engine(i).run()``
on all eleven :class:`~repro.simulate.pool.PoolResult` fields, NaNs
included — for every built-in cost kind, the saturated-price-box
accept, every batch size, catalogue width, sampling depth and round
cap, and in batches shared with strategic rows, whose records must stay
exactly what the kernel gives them on their own.
"""

import dataclasses

import numpy as np
import pytest

from repro.simulate import PopulationSpec, SessionPool, sample_population
from repro.simulate.kernel import (
    BY_TASK,
    STATUS_ACCEPTED,
    STATUS_MAX_ROUNDS,
    simulate_strategic_batch,
)
from repro.simulate.pool import session_record_arrays

ALL_COSTS = (("none", 0.0, 1.0), ("constant", 0.5, 1.0),
             ("linear", 0.01, 1.0), ("exponential", 1.01, 1.0))
FIELDS = tuple(session_record_arrays(0))


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


def _engine_records(pop, indices):
    """Each session played alone by the stepwise engine."""
    arrays = session_record_arrays(pop.n_sessions)
    for i in indices:
        SessionPool._record(arrays, int(i), pop.build_engine(int(i)).run())
    return arrays


def _assert_rows_equal(got, want, rows_got, rows_want=None):
    rows_want = rows_got if rows_want is None else rows_want
    for key in FIELDS:
        a, b = np.asarray(got[key])[rows_got], np.asarray(want[key])[rows_want]
        assert a.dtype == b.dtype, key
        assert np.array_equal(a, b, equal_nan=True), key


def _pool_arrays(result):
    return {key: getattr(result, key) for key in FIELDS}


class TestEveryCostKind:
    @pytest.mark.parametrize("cost", ALL_COSTS, ids=lambda c: c[0])
    def test_pool_matches_engine(self, cost):
        pop = _population(11, 40, cost_mix=(cost,))
        assert pop.kernel_eligible().all()
        result = SessionPool(pop, batch_size=16).run()
        assert result.stepped_sessions == 0
        assert result.oracle_queries == 0
        rows = np.arange(pop.n_sessions)
        _assert_rows_equal(_pool_arrays(result), _engine_records(pop, rows), rows)

    def test_exponential_rows_hit_the_numpy_power_trap(self):
        """numpy's ``**`` rounds some of these costs differently from the
        engine's ``float ** int``, so the exact comparison above guards
        the scalar power path."""
        pop = _population(11, 40, cost_mix=(ALL_COSTS[3],))
        result = SessionPool(pop, batch_size=16).run()
        a = float(pop.cost_a[0])
        assert any(
            (pop.cost_a**T != a**T).any()
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
        _assert_rows_equal(_pool_arrays(result), _engine_records(pop, rows), rows)


class TestBatchSizes:
    @pytest.fixture(scope="class")
    def world(self):
        """1100 sessions, ~10% Increase Price, every cost kind: the
        engine's record for each Increase-Price row, and the kernel's
        record for each strategic row run without them."""
        pop = _population(5, 1100, increase_share=0.1)
        inc = _increase_rows(pop)
        strategic = np.setdiff1d(np.arange(pop.n_sessions), inc)
        alone = simulate_strategic_batch(pop, strategic)
        return pop, inc, _engine_records(pop, inc), strategic, alone

    @pytest.mark.parametrize("batch_size, n_run",
                             [(1, 160), (7, 160), (64, 1100), (1024, 1100)])
    def test_pool_matches_engine(self, world, batch_size, n_run):
        pop, inc, engine, strategic, alone = world
        result = SessionPool(pop, batch_size=batch_size).run(
            indices=np.arange(n_run)
        )
        assert result.kernel_sessions == n_run
        got = _pool_arrays(result)
        inc_run = inc[inc < n_run]
        assert inc_run.size >= 10
        _assert_rows_equal(got, engine, inc_run)
        # Strategic rows sharing the batch keep their own records.
        mine = strategic < n_run
        _assert_rows_equal(got, alone, strategic[mine], np.flatnonzero(mine))


class TestPopulationShapes:
    @pytest.mark.parametrize("seed, shape", [
        (20, dict(n_bundles=8)),
        (21, dict(n_bundles=30, n_price_samples=3, max_rounds=25)),
        (22, dict(n_bundles=16, n_price_samples=1)),
    ], ids=["narrow", "capped", "one-sample"])
    def test_half_increase_price_matches_engine_and_strategic_alone(
            self, seed, shape):
        """Half Increase Price, over catalogue widths, sampling depths and
        round caps: every Increase-Price row equals the engine, every
        strategic row what the kernel gives it without them."""
        pop = _population(seed, 40, increase_share=0.5, **shape)
        out = simulate_strategic_batch(pop, np.arange(pop.n_sessions))
        inc = _increase_rows(pop)
        strategic = np.setdiff1d(np.arange(pop.n_sessions), inc)
        _assert_rows_equal(out, _engine_records(pop, inc), inc)
        _assert_rows_equal(out, simulate_strategic_batch(pop, strategic),
                           strategic, np.arange(strategic.size))
        if pop.spec.max_rounds == 25:  # the cap binds some of these games
            assert (out["status"][inc] == STATUS_MAX_ROUNDS).any()
