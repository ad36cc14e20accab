"""Tests for the SessionPool scheduler and the vectorised kernel.

The load-bearing property: the batch kernel is the *same game* as the
scalar engine — identical decision rules, identical RNG streams read in
the same order — so on a common population every session's record
equals the naive engine's, bit for bit.
"""

import numpy as np
import pytest
from engine_records import assert_rows_equal, engine_records, pool_records

from repro.simulate import PopulationSpec, SessionPool, build_report, sample_population
from repro.simulate.kernel import (
    BY_DATA,
    BY_ENGINE,
    BY_TASK,
    STATUS_ACCEPTED,
    simulate_strategic_batch,
)


class TestKernelMatchesEngine:
    def test_every_session_equals_its_naive_engine(self):
        pop = sample_population(PopulationSpec(preset="synthetic"), 60, seed=11)
        result = SessionPool(pop, batch_size=32).run()
        rows = np.arange(pop.n_sessions)
        assert_rows_equal(pool_records(result), engine_records(pop, rows), rows)

    def test_accepted_sessions_settle_at_the_cap(self):
        """Eq. 5 equilibrium: accepted payments sit at the final cap."""
        pop = sample_population(PopulationSpec(), 50, seed=12)
        result = SessionPool(pop).run()
        acc = result.accepted & (result.terminated_by == BY_DATA)
        if acc.any():
            np.testing.assert_allclose(
                result.payment[acc], result.final_cap[acc], rtol=0.05
            )

    def test_accounting_identity(self):
        """net profit == u * dG - payment for every accepted session."""
        pop = sample_population(PopulationSpec(), 80, seed=13)
        result = SessionPool(pop).run()
        acc = result.accepted
        np.testing.assert_allclose(
            result.net_profit[acc],
            pop.utility_rate[acc] * result.delta_g[acc] - result.payment[acc],
            rtol=1e-9,
        )

    def test_costs_accumulate_with_rounds(self):
        spec = PopulationSpec(cost_mix=(("linear", 0.01, 1.0),))
        pop = sample_population(spec, 40, seed=14)
        result = SessionPool(pop).run()
        np.testing.assert_allclose(
            result.cost_task, 0.01 * result.n_rounds, rtol=1e-9
        )


class TestPoolScheduling:
    def test_every_session_terminates(self):
        spec = PopulationSpec(
            strategy_mix=(("strategic", "strategic", 0.6),
                          ("increase_price", "strategic", 0.25),
                          ("strategic", "random_bundle", 0.15)),
        )
        pop = sample_population(spec, 90, seed=15)
        result = SessionPool(pop, batch_size=32).run()
        assert (result.status > 0).all()
        assert (result.n_rounds >= 1).all()
        assert set(np.unique(result.terminated_by)) <= {BY_DATA, BY_TASK, BY_ENGINE}
        assert result.kernel_sessions + result.stepped_sessions == pop.n_sessions
        assert result.kernel_sessions == int(pop.kernel_eligible().sum())

    def test_memoised_oracle_dedupes_platform_queries(self):
        # random_bundle sessions run on the stepwise engine path.
        spec = PopulationSpec(
            strategy_mix=(("strategic", "random_bundle", 1.0),),
        )
        pop = sample_population(spec, 20, seed=16)
        result = SessionPool(pop, batch_size=8).run()
        assert result.stepped_sessions == 20
        assert result.oracle_queries > 0
        # One miss per distinct bundle at most; everything else cached.
        assert result.oracle_queries - result.oracle_hits <= len(pop.bundles)

    def test_failed_sessions_have_no_payment(self):
        pop = sample_population(PopulationSpec(), 120, seed=17)
        result = SessionPool(pop).run()
        failed_by_data = (result.status == 2) & (result.terminated_by == BY_DATA)
        assert (result.payment[failed_by_data] == 0.0).all()
        assert np.isnan(result.delta_g[failed_by_data]).all()


class TestKernelDirect:
    def test_subset_invocation_matches_pool(self):
        """Running a sub-batch directly reproduces the pool's rows."""
        pop = sample_population(PopulationSpec(), 30, seed=18)
        pool_result = SessionPool(pop, batch_size=30).run()
        out = simulate_strategic_batch(pop, np.arange(10, 20))
        np.testing.assert_array_equal(out["status"],
                                      pool_result.status[10:20])
        np.testing.assert_array_equal(out["n_rounds"],
                                      pool_result.n_rounds[10:20])
        np.testing.assert_array_equal(out["payment"],
                                      pool_result.payment[10:20])


class TestReport:
    def test_report_counts_are_consistent(self):
        pop = sample_population(PopulationSpec(), 70, seed=19)
        result = SessionPool(pop).run()
        report = build_report(pop, result)
        assert report.accepted + report.failed + report.max_rounds == 70
        assert report.accepted == int((result.status == STATUS_ACCEPTED).sum())
        assert report.acceptance_rate == pytest.approx(report.accepted / 70)
        text = report.to_text()
        assert "sessions" in text and "Outcomes" in text
        assert report.digest() in text

    def test_histograms_cover_all_accepted(self):
        pop = sample_population(PopulationSpec(), 70, seed=20)
        result = SessionPool(pop).run()
        report = build_report(pop, result, n_bins=8)
        if report.accepted:
            assert sum(report.payment_hist[1]) == report.accepted
            assert len(report.payment_hist[0]) == 9
