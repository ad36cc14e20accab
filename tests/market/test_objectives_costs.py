"""Tests for objectives (Eqs. 3-4) and bargaining-cost models (§3.4.4)."""

import pytest

from repro.market import (
    ConstantCost,
    ExponentialCost,
    LinearCost,
    NoCost,
    QuotedPrice,
    ScaledCost,
    break_even_gain,
    data_revenue_gap,
    make_cost,
    task_net_profit,
)


class TestObjectives:
    def quote(self):
        return QuotedPrice(rate=10.0, base=1.0, cap=3.0)

    def test_net_profit_at_break_even_is_zero(self):
        q = self.quote()
        be = break_even_gain(q.rate, q.base, utility_rate=100.0)
        assert task_net_profit(q, be, 100.0) == pytest.approx(0.0)

    def test_net_profit_monotone_in_gain(self):
        q = self.quote()
        profits = [task_net_profit(q, dg, 100.0) for dg in (0.0, 0.1, 0.2, 0.5)]
        assert profits == sorted(profits)

    def test_break_even_formula(self):
        q = self.quote()
        assert break_even_gain(q.rate, q.base, 101.0) == pytest.approx(1.0 / 91.0)

    def test_break_even_requires_rationality(self):
        with pytest.raises(ValueError, match="u > p"):
            break_even_gain(10.0, 1.0, utility_rate=5.0)

    def test_revenue_gap_zero_at_turning_point(self):
        q = self.quote()
        assert data_revenue_gap(q, q.turning_point) == pytest.approx(0.0)

    def test_revenue_gap_positive_away_from_turning_point(self):
        q = self.quote()
        assert data_revenue_gap(q, 0.0) == pytest.approx(2.0)
        assert data_revenue_gap(q, q.turning_point / 2) > 0


class TestCostModels:
    def test_no_cost(self):
        assert NoCost()(100) == 0.0

    def test_constant(self):
        assert ConstantCost(3.0)(1) == 3.0
        assert ConstantCost(3.0)(500) == 3.0

    def test_linear(self):
        assert LinearCost(0.5)(10) == pytest.approx(5.0)

    def test_exponential(self):
        assert ExponentialCost(1.1)(2) == pytest.approx(1.21)

    def test_exponential_needs_a_gt_one(self):
        with pytest.raises(ValueError, match="a > 1"):
            ExponentialCost(0.9)

    def test_scaled(self):
        assert ScaledCost(LinearCost(1.0), 0.1)(10) == pytest.approx(1.0)

    def test_negative_round_rejected(self):
        with pytest.raises(ValueError):
            LinearCost(1.0)(-1)

    def test_monotone_in_rounds(self):
        for model in (LinearCost(0.3), ExponentialCost(1.05)):
            values = [model(t) for t in range(1, 20)]
            assert values == sorted(values)

    def test_factory(self):
        assert isinstance(make_cost("none"), NoCost)
        assert isinstance(make_cost("constant", 1.0), ConstantCost)
        assert isinstance(make_cost("linear", 0.1), LinearCost)
        assert isinstance(make_cost("exponential", 1.01), ExponentialCost)
        assert isinstance(make_cost("linear", 0.1, scale=0.1), ScaledCost)
        # The paper's Table 3 scaling: C_t = C_d = C(T)/10.
        assert make_cost("linear", 1.0, scale=0.1)(10) == pytest.approx(1.0)

    def test_factory_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown cost kind"):
            make_cost("quadratic", 1.0)

    def test_factory_missing_a(self):
        with pytest.raises(ValueError, match="needs a"):
            make_cost("linear")
