"""Property-based hardening of the equilibrium layer (Theorem 3.1, Props. 3.1/3.2).

The population simulator leans on these invariants for every session it
schedules, so they are pinned over *randomly drawn* quotes rather than
the handful of examples in ``test_equilibrium.py``:

* :func:`equivalent_quote` preserves payment and net profit and lands
  on the Eq. 5 equilibrium criterion for any valid ``(quote, ΔG)`` —
  including large-magnitude (real-currency) quotes, where the old
  absolute ``1e-9`` cap slack spuriously rejected the turning point;
* the ε conversions of Props. 3.1/3.2 round-trip: the derived
  tolerance makes the cost-aware acceptance rules (Eqs. 6/7) agree
  with the ε-termination Cases 2/5 decision-for-decision, and the
  closed forms invert back to the cost tolerance.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.market import (
    QuotedPrice,
    ReservedPrice,
    epsilon_d_from_cost_tolerance,
    epsilon_t_from_cost_tolerance,
    equivalent_quote,
    is_equilibrium_price,
    task_net_profit,
)
from repro.market.costs import ConstantCost
from repro.market.termination import (
    data_accepts,
    data_accepts_with_cost,
    task_accepts,
    task_accepts_with_cost,
)

# Spans 9 orders of magnitude: unit-payment toy markets through
# cent-denominated real-currency quotes.
quote_scales = st.sampled_from([1.0, 1e3, 1e6, 1e9])


@st.composite
def quotes(draw, scale=None):
    if scale is None:
        scale = draw(quote_scales)
    rate = draw(st.floats(min_value=0.5, max_value=50))
    base = draw(st.floats(min_value=0.0, max_value=0.5)) * scale
    headroom = draw(st.floats(min_value=0.01, max_value=1.0)) * scale
    return QuotedPrice(rate=rate, base=base, cap=base + headroom)


class TestTheorem31Property:
    """equivalent_quote over random valid inputs, at every magnitude."""

    @settings(max_examples=300, deadline=None)
    @given(quote=quotes(), frac=st.floats(min_value=0.0, max_value=1.0))
    def test_outcome_preserving_and_equilibrium(self, quote, frac):
        dg = frac * quote.turning_point
        star = equivalent_quote(quote, dg)
        # Tolerances must scale with the quantities compared: the
        # arithmetic itself carries ~|x|·eps rounding error.
        pay_tol = 1e-9 * max(1.0, abs(quote.cap))
        assert star.cap <= quote.cap
        assert star.payment(dg) == pytest.approx(quote.payment(dg), abs=pay_tol)
        u = quote.rate + 5.0
        assert task_net_profit(star, dg, u) == pytest.approx(
            task_net_profit(quote, dg, u), abs=pay_tol
        )
        tp_tol = 1e-9 * max(1.0, abs(quote.cap)) / quote.rate
        assert is_equilibrium_price(star, dg, tolerance=tp_tol)

    @settings(max_examples=300, deadline=None)
    @given(quote=quotes())
    def test_turning_point_is_always_admissible(self, quote):
        """ΔG = the quote's own turning point must never be rejected.

        Regression for the absolute ``1e-9`` cap slack:
        ``base + rate * ((cap - base) / rate)`` overshoots ``cap`` by
        up to ``~cap * eps``, which exceeds any absolute slack once
        caps reach ~1e7.
        """
        star = equivalent_quote(quote, quote.turning_point)
        assert star.cap <= quote.cap

    def test_large_magnitude_regression(self):
        """A concrete quote the pre-fix absolute slack rejected."""
        quote = QuotedPrice(
            rate=8.769119974722473,
            base=19884246356.571533,
            cap=112301707953.58179,
        )
        tp = quote.turning_point
        # The raw transform overshoots the cap by far more than the old
        # absolute slack allowed...
        assert quote.base + quote.rate * tp > quote.cap + 1e-9
        # ...yet Theorem 3.1 applies: the transformed quote exists and
        # preserves the outcome exactly (cap clamp).
        star = equivalent_quote(quote, tp)
        assert star.cap == quote.cap
        assert star.payment(tp) == quote.payment(tp)

    def test_beyond_turning_point_still_rejected(self):
        """The relative slack must not let genuinely invalid gains through."""
        quote = QuotedPrice(rate=10.0, base=1.0, cap=2.0)  # TP = 0.1
        with pytest.raises(ValueError, match="cap"):
            equivalent_quote(quote, 0.2)
        big = QuotedPrice(rate=10.0, base=1e9, cap=1e9 + 2.0)
        # At |cap| ~ 1e9 the slack is ~1.0, so the overshoot must beat
        # it by a real margin, not a rounding one.
        with pytest.raises(ValueError, match="cap"):
            equivalent_quote(big, big.turning_point * 3.0)


class TestProposition32RoundTrip:
    """ε_t = ε_tc / (u − p): decision equivalence and inversion."""

    @settings(max_examples=300, deadline=None)
    @given(
        quote=quotes(scale=1.0),
        frac=st.floats(min_value=0.0, max_value=1.3),
        eps_tc=st.floats(min_value=0.0, max_value=2.0),
        u_margin=st.floats(min_value=0.5, max_value=20.0),
        cost=st.floats(min_value=0.0, max_value=3.0),
        round_number=st.integers(min_value=1, max_value=400),
    )
    def test_decision_equivalence(self, quote, frac, eps_tc, u_margin, cost,
                                  round_number):
        u = quote.rate + u_margin
        dg = frac * quote.turning_point
        eps_t = epsilon_t_from_cost_tolerance(eps_tc, u, quote.rate)
        # Skip draws within float rounding of the decision boundary —
        # the two forms are algebraically identical, not bitwise.
        margin = (u - quote.rate) * (dg - quote.turning_point) + eps_tc
        assume(abs(margin) > 1e-9)
        model = ConstantCost(cost)
        tp = quote.turning_point
        assert task_accepts_with_cost(
            quote.rate, quote.base, quote.cap, tp, dg, u,
            model(round_number), model(round_number + 1), eps_tc,
        ) == task_accepts(tp, dg, eps_t)

    @settings(max_examples=200, deadline=None)
    @given(
        eps_t=st.floats(min_value=0.0, max_value=5.0),
        rate=st.floats(min_value=0.5, max_value=50.0),
        u_margin=st.floats(min_value=0.5, max_value=20.0),
    )
    def test_inversion(self, eps_t, rate, u_margin):
        """ε_t -> ε_tc -> ε_t is the identity (up to rounding)."""
        u = rate + u_margin
        eps_tc = eps_t * (u - rate)
        back = epsilon_t_from_cost_tolerance(eps_tc, u, rate)
        assert back == pytest.approx(eps_t, rel=1e-12, abs=1e-15)


class TestProposition31RoundTrip:
    """ε_d from ε_dc: decision equivalence and inversion."""

    @settings(max_examples=300, deadline=None)
    @given(
        quote=quotes(scale=1.0),
        frac=st.floats(min_value=0.0, max_value=1.0),
        eps_dc=st.floats(min_value=0.0, max_value=2.0),
        r_rate=st.floats(min_value=0.1, max_value=60.0),
        r_base=st.floats(min_value=0.0, max_value=4.0),
        cost=st.floats(min_value=0.0, max_value=3.0),
        round_number=st.integers(min_value=1, max_value=400),
    )
    def test_decision_equivalence(self, quote, frac, eps_dc, r_rate, r_base,
                                  cost, round_number):
        reserved = ReservedPrice(rate=r_rate, base=r_base)
        dg = frac * quote.turning_point
        eps_d = epsilon_d_from_cost_tolerance(eps_dc, quote, reserved)
        margin = (quote.base + quote.rate * dg) - (
            max(reserved.base, quote.base)
            + max(reserved.rate, quote.rate) * quote.turning_point
            - eps_dc
        )
        assume(abs(margin) > 1e-9)
        model = ConstantCost(cost)
        tp = quote.turning_point
        assert data_accepts_with_cost(
            quote.rate, quote.base, tp, dg, reserved.rate, reserved.base,
            model(round_number), model(round_number + 1), eps_dc,
        ) == data_accepts(tp, dg, eps_d)

    @settings(max_examples=200, deadline=None)
    @given(
        quote=quotes(scale=1.0),
        r_rate=st.floats(min_value=0.1, max_value=60.0),
        r_base=st.floats(min_value=0.0, max_value=4.0),
        eps_d=st.floats(min_value=0.0, max_value=2.0),
    )
    def test_inversion(self, quote, r_rate, r_base, eps_d):
        """ε_d -> ε_dc -> ε_d is the identity where ε_dc is valid."""
        reserved = ReservedPrice(rate=r_rate, base=r_base)
        conservative_next = (
            max(reserved.base, quote.base)
            + max(reserved.rate, quote.rate) * quote.turning_point
        )
        eps_dc = eps_d * quote.rate + (conservative_next - quote.cap)
        assume(eps_dc >= 0)
        back = epsilon_d_from_cost_tolerance(eps_dc, quote, reserved)
        assert back == pytest.approx(eps_d, rel=1e-9, abs=1e-9)
