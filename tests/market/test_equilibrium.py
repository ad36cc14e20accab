"""Tests for Theorem 3.1, Lemma 3.1 and Propositions 3.1-3.2.

These are the paper's theory results made executable; the property
tests check them over randomly drawn prices and gains.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.market import (
    QuotedPrice,
    ReservedPrice,
    epsilon_d_from_cost_tolerance,
    epsilon_t_from_cost_tolerance,
    equivalent_quote,
    is_equilibrium_price,
    select_dominant_quote,
    task_net_profit,
)
from repro.market.termination import (
    data_accepts,
    data_accepts_with_cost,
    task_accepts,
    task_accepts_with_cost,
)
from repro.market.costs import ConstantCost


class TestTheorem31:
    def test_transformed_quote_satisfies_eq5(self):
        q = QuotedPrice(rate=10.0, base=1.0, cap=5.0)
        q_star = equivalent_quote(q, delta_g=0.2)
        assert is_equilibrium_price(q_star, 0.2)

    def test_outcome_invariance(self):
        """Same payment and same net profit after the transform."""
        q = QuotedPrice(rate=10.0, base=1.0, cap=5.0)
        dg = 0.2
        q_star = equivalent_quote(q, dg)
        assert q_star.payment(dg) == pytest.approx(q.payment(dg))
        assert task_net_profit(q_star, dg, 100.0) == pytest.approx(
            task_net_profit(q, dg, 100.0)
        )

    def test_transform_rejects_gain_beyond_turning_point(self):
        q = QuotedPrice(rate=10.0, base=1.0, cap=2.0)  # TP = 0.1
        with pytest.raises(ValueError, match="cap"):
            equivalent_quote(q, delta_g=0.5)

    def test_transform_rejects_negative_gain(self):
        with pytest.raises(ValueError, match="non-negative"):
            equivalent_quote(QuotedPrice(1.0, 1.0, 2.0), -0.1)


@settings(max_examples=200, deadline=None)
@given(
    rate=st.floats(min_value=0.5, max_value=50),
    base=st.floats(min_value=0.0, max_value=5),
    headroom=st.floats(min_value=0.0, max_value=10),
    frac=st.floats(min_value=0.0, max_value=1.0),
)
def test_theorem_31_invariance_property(rate, base, headroom, frac):
    """Theorem 3.1 holds for any quote and any ΔG below the turning point."""
    q = QuotedPrice(rate, base, base + headroom)
    dg = frac * q.turning_point
    q_star = equivalent_quote(q, dg)
    assert q_star.cap <= q.cap + 1e-9
    assert q_star.payment(dg) == pytest.approx(q.payment(dg), abs=1e-9)
    u = rate + 1.0
    assert task_net_profit(q_star, dg, u) == pytest.approx(
        task_net_profit(q, dg, u), abs=1e-9
    )


class TestLemma31:
    def test_dominant_quote_maximises_profit(self):
        candidates = [
            QuotedPrice(10.0, 1.0, 4.0),
            QuotedPrice(12.0, 1.5, 4.5),
            QuotedPrice(8.0, 0.5, 3.0),
        ]
        dg = 0.2
        chosen = select_dominant_quote(candidates, dg, utility_rate=100.0)
        best_profit = max(task_net_profit(q, dg, 100.0) for q in candidates)
        assert task_net_profit(chosen, dg, 100.0) == pytest.approx(best_profit)
        assert is_equilibrium_price(chosen, min(dg, chosen.turning_point), tolerance=1e-9)

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            select_dominant_quote([], 0.1, 10.0)


class TestProposition32:
    """Constant-cost Eq. 7 acceptance == Case-5 with ε_t = ε_tc/(u−p)."""

    @settings(max_examples=200, deadline=None)
    @given(
        rate=st.floats(min_value=0.5, max_value=20),
        base=st.floats(min_value=0.0, max_value=3),
        headroom=st.floats(min_value=0.01, max_value=5),
        frac=st.floats(min_value=0.0, max_value=1.2),
        eps_tc=st.floats(min_value=0.0, max_value=2.0),
        round_number=st.integers(min_value=1, max_value=100),
    )
    def test_equivalence_property(self, rate, base, headroom, frac, eps_tc, round_number):
        q = QuotedPrice(rate, base, base + headroom)
        u = rate + 5.0
        dg = frac * q.turning_point
        cost = ConstantCost(1.7)
        eps_t = epsilon_t_from_cost_tolerance(eps_tc, u, rate)
        tp = q.turning_point
        assert task_accepts_with_cost(
            q.rate, q.base, q.cap, tp, dg, u,
            cost(round_number), cost(round_number + 1), eps_tc,
        ) == task_accepts(tp, dg, eps_t)


class TestProposition31:
    """Constant-cost Eq. 6 acceptance == Case-2 with the derived ε_d."""

    @settings(max_examples=200, deadline=None)
    @given(
        rate=st.floats(min_value=0.5, max_value=20),
        base=st.floats(min_value=0.0, max_value=3),
        headroom=st.floats(min_value=0.01, max_value=5),
        frac=st.floats(min_value=0.0, max_value=1.0),
        eps_dc=st.floats(min_value=0.0, max_value=2.0),
        r_rate=st.floats(min_value=0.1, max_value=25),
        r_base=st.floats(min_value=0.0, max_value=4),
        round_number=st.integers(min_value=1, max_value=100),
    )
    def test_equivalence_property(
        self, rate, base, headroom, frac, eps_dc, r_rate, r_base, round_number
    ):
        from hypothesis import assume

        q = QuotedPrice(rate, base, base + headroom)
        reserved = ReservedPrice(rate=r_rate, base=r_base)
        dg = frac * q.turning_point
        cost = ConstantCost(0.9)
        eps_d = epsilon_d_from_cost_tolerance(eps_dc, q, reserved)
        # The two formulations are algebraically identical; skip draws
        # that land within float rounding of the decision boundary.
        margin = (q.base + q.rate * dg) - (
            max(reserved.base, q.base)
            + max(reserved.rate, q.rate) * q.turning_point
            - eps_dc
        )
        assume(abs(margin) > 1e-7)
        tp = q.turning_point
        assert data_accepts_with_cost(
            q.rate, q.base, tp, dg, reserved.rate, reserved.base,
            cost(round_number), cost(round_number + 1), eps_dc,
        ) == data_accepts(tp, dg, eps_d)


class TestEquilibriumPredicate:
    def test_exact_equilibrium(self):
        q = QuotedPrice(10.0, 1.0, 3.0)
        assert is_equilibrium_price(q, 0.2, tolerance=1e-12)
        assert not is_equilibrium_price(q, 0.21, tolerance=1e-3)
