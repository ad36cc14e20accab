"""The termination rules on numbers and on rows.

Each §3.4.3 rule is one function that the engine's parties call with
Python floats and the population kernel calls on numpy rows:

* Case 2 :func:`data_accepts` and Eq. 6 :func:`data_accepts_with_cost`;
* Case 4's bar :func:`break_even_gain` and :func:`task_fails_regression`;
* the Case-4 trail's dominance test, :func:`meets_floors` on floors
  from :func:`purchase_floor` (also Case 1's affordability);
* Case 5 :func:`task_accepts` and Eq. 7 :func:`task_accepts_with_cost`;
* Algorithm 1's budget stop :func:`budget_exhausted`;
* Increase Price's Case-6 step :func:`increase_price_step`.

On generated rows every result must equal the element-wise call on
Python floats bit for bit.  The rows sit on the rules' edges: gaps
exactly at a tolerance and one ulp either side, Eq. 6 with the reserved
components equal to the quote's, Increase-Price draws of 0.0 and a
saturated price box, trail entries exactly 1e-12 apart.  The boundary
pins at the end fix which side of each edge a rule falls on.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.market import QuotedPrice
from repro.market.objectives import break_even_gain
from repro.market.pricing import meets_floors, purchase_floor
from repro.market.strategies.baselines import (
    BASE_STEP,
    CAP_STEP,
    RATE_STEP,
    increase_price_step,
)
from repro.market.termination import (
    OfferTrail,
    budget_exhausted,
    data_accepts,
    data_accepts_with_cost,
    task_accepts,
    task_accepts_with_cost,
    task_fails_regression,
)

values = st.floats(min_value=1e-6, max_value=1e4)
unit = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0,
                                         exclude_max=True))
ulps = st.integers(min_value=-1, max_value=1)


def shift(x: float, k: int) -> float:
    """``x`` moved ``k`` ulps (``k`` in -1, 0, 1)."""
    return math.nextafter(x, math.copysign(math.inf, k)) if k else x


def bits(x) -> object:
    """A result as its bit pattern: bools as bools, floats as 8 bytes."""
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    return struct.pack("<d", float(x))


def assert_rows_match(rule, rows):
    """``rule`` on the rows' columns equals ``rule`` on each row's floats."""
    columns = [np.array(col, dtype=float) for col in zip(*rows)]
    on_rows = rule(*columns)
    on_rows = on_rows if isinstance(on_rows, tuple) else (on_rows,)
    for i, row in enumerate(rows):
        one = rule(*row)
        one = one if isinstance(one, tuple) else (one,)
        assert [bits(r[i]) for r in on_rows] == [bits(o) for o in one], row


def rows_of(row):
    return st.lists(row, min_size=1, max_size=16)


# ----------------------------------------------------------------------
# Row generators, each around its rule's edge.
# ----------------------------------------------------------------------
@st.composite
def case2_rows(draw):
    tp, gain = draw(values), draw(values)
    return (tp, gain, shift(tp - gain, draw(ulps)))  # eps at the gap


@st.composite
def case5_rows(draw):
    tp, eps = draw(values), draw(st.floats(min_value=0.0, max_value=1.0))
    return (tp, shift(tp - eps, draw(ulps)), eps)  # gain at tp - eps


@st.composite
def case4_rows(draw):
    gain = draw(values)
    best = draw(st.one_of(st.just(math.inf), st.just(-math.inf),
                          ulps.map(lambda k: shift(gain, k))))
    return (gain, shift(gain, draw(ulps)), best)  # bar at the gain


@st.composite
def break_even_rows(draw):
    rate, base = draw(values), draw(st.floats(min_value=0.0, max_value=1e4))
    return (rate, base, rate + draw(values))


@st.composite
def trail_rows(draw):
    prev_rate, prev_base = draw(values), draw(values)
    # Current quote exactly 1e-12 under the earlier one, +-1 ulp.
    rate = shift(prev_rate - 1e-12, draw(ulps))
    base = shift(prev_base - 1e-12, draw(ulps))
    return (rate, base, prev_rate, prev_base)


@st.composite
def budget_rows(draw):
    budget = draw(values)
    return (shift(budget - 1e-12, draw(ulps)), budget)


@st.composite
def eq6_rows(draw):
    rate, base, tp, gain = (draw(values) for _ in range(4))
    if draw(st.booleans()):
        reserved_rate, reserved_base = rate, base  # reserved == quote
    else:
        reserved_rate, reserved_base = draw(values), draw(values)
    cost_now = draw(st.floats(min_value=0.0, max_value=10.0))
    cost_next = cost_now + draw(st.floats(min_value=0.0, max_value=10.0))
    lhs = base + rate * gain - cost_now
    rhs = (max(reserved_base, base) + max(reserved_rate, rate) * tp
           - cost_next)
    eps = shift(rhs - lhs, draw(ulps))  # margin at zero, +-1 ulp
    return (rate, base, tp, gain, reserved_rate, reserved_base,
            cost_now, cost_next, eps)


@st.composite
def eq7_rows(draw):
    rate, base, gain = draw(values), draw(values), draw(values)
    cap = base + draw(values)
    tp = (cap - base) / rate
    u = rate + draw(values)
    cost_now = draw(st.floats(min_value=0.0, max_value=10.0))
    cost_next = cost_now + draw(st.floats(min_value=0.0, max_value=10.0))
    lhs = u * gain - (base + rate * gain) - cost_now
    rhs = u * tp - cap - cost_next
    eps = shift(rhs - lhs, draw(ulps))
    return (rate, base, cap, tp, gain, u, cost_now, cost_next, eps)


@st.composite
def step_rows(draw):
    u, budget = draw(values), draw(values)
    if draw(st.booleans()):  # saturated price box
        rate, cap = u * 0.5, budget
        base = cap
    else:
        rate, base = draw(values), draw(values)
        cap = base + draw(values)
    return (rate, base, cap, draw(unit), draw(unit), draw(unit), u, budget)


# ----------------------------------------------------------------------
# Rows equal element-wise floats, bit for bit.
# ----------------------------------------------------------------------
SETTINGS = settings(max_examples=150, deadline=None)


@SETTINGS
@given(rows=rows_of(case2_rows()))
def test_case2_rows(rows):
    assert_rows_match(data_accepts, rows)


@SETTINGS
@given(rows=rows_of(case5_rows()))
def test_case5_rows(rows):
    assert_rows_match(task_accepts, rows)


@SETTINGS
@given(rows=rows_of(case4_rows()))
def test_case4_regression_rows(rows):
    assert_rows_match(task_fails_regression, rows)


@SETTINGS
@given(rows=rows_of(break_even_rows()))
def test_break_even_rows(rows):
    assert_rows_match(break_even_gain, rows)


@SETTINGS
@given(rows=rows_of(trail_rows()))
def test_trail_dominance_rows(rows):
    def dominates(rate, base, prev_rate, prev_base):
        return meets_floors(rate, base, purchase_floor(prev_rate),
                            purchase_floor(prev_base))

    assert_rows_match(dominates, rows)


@SETTINGS
@given(rows=rows_of(budget_rows()))
def test_budget_stop_rows(rows):
    assert_rows_match(budget_exhausted, rows)


@SETTINGS
@given(rows=rows_of(eq6_rows()))
def test_eq6_rows(rows):
    assert_rows_match(data_accepts_with_cost, rows)


@SETTINGS
@given(rows=rows_of(eq7_rows()))
def test_eq7_rows(rows):
    assert_rows_match(task_accepts_with_cost, rows)


@SETTINGS
@given(rows=rows_of(step_rows()))
def test_increase_price_step_rows(rows):
    assert_rows_match(increase_price_step, rows)


@SETTINGS
@given(
    first=st.tuples(values, values),
    trail=st.lists(st.tuples(st.integers(-1, 1), st.integers(-1, 1), values),
                   min_size=1, max_size=8),
)
def test_offer_trail_equals_trail_rows(first, trail):
    """:class:`OfferTrail` (the parties' list) picks what the kernel's
    trail columns pick: the best gain among earlier quotes the current
    one meets as floors, entries exactly 1e-12 apart."""
    rate, base = first
    party = OfferTrail()
    quotes = []
    for k_rate, k_base, gain in trail:
        quote = QuotedPrice(rate=shift(rate + 1e-12, k_rate),
                            base=shift(base + 1e-12, k_base), cap=1e9)
        party.observe(quote, gain)
        quotes.append((quote.rate, quote.base, gain))
    party.observe(QuotedPrice(rate=rate, base=base, cap=1e9), 0.0)
    prev_rate, prev_base, gains = (np.array(c) for c in zip(*quotes))
    dom = meets_floors(np.array([[rate]]), np.array([[base]]),
                       purchase_floor(prev_rate)[None], purchase_floor(prev_base)[None])
    on_rows = np.where(dom, gains, -np.inf).max(axis=1)[0]
    assert bits(on_rows) == bits(party.best_dominated_previous(
        QuotedPrice(rate=rate, base=base, cap=1e9)))


def test_numpy_free_rules_return_python_scalars():
    """On floats the rules without a max or min stay off numpy, so the
    serving path pays no numpy call for them."""
    assert type(data_accepts(0.2, 0.1995, 1e-3)) is bool
    assert type(task_accepts(0.2, 0.1995, 1e-3)) is bool
    assert type(task_fails_regression(0.005, 0.011, math.inf)) is bool
    assert type(meets_floors(7.0, 1.0, 6.0, 1.0)) is bool
    assert type(budget_exhausted(3.0, 4.0)) is bool
    assert type(task_accepts_with_cost(2.0, 1.0, 3.0, 1.0, 0.5, 8.0, 0.25, 0.5,
                                       2.75)) is bool


# ----------------------------------------------------------------------
# Boundary pins: which side of each edge a rule falls on.
# ----------------------------------------------------------------------
class TestBoundaries:
    def test_case2_gap_at_eps_accepts(self):
        assert data_accepts(0.5, 0.25, 0.25)
        assert not data_accepts(0.5, 0.25, math.nextafter(0.25, 0.0))

    def test_case5_gain_at_bar_accepts(self):
        assert task_accepts(0.5, 0.25, 0.25)
        assert not task_accepts(0.5, math.nextafter(0.25, 0.0), 0.25)

    def test_case4_strict_on_both_bars(self):
        assert not task_fails_regression(0.25, 0.25, math.inf)
        assert task_fails_regression(math.nextafter(0.25, 0.0), 0.25, math.inf)
        assert not task_fails_regression(0.125, 0.25, 0.125)
        assert task_fails_regression(0.125, 0.25, math.nextafter(0.125, 1.0))

    def test_break_even_bar(self):
        assert break_even_gain(10.0, 1.0, 101.0) == 1.0 / 91.0
        np.testing.assert_array_equal(
            break_even_gain(np.array([10.0, 2.0]), np.array([1.0, 3.0]),
                            np.array([101.0, 5.0])), [1.0 / 91.0, 1.0])
        with pytest.raises(ValueError, match="u > p"):
            break_even_gain(10.0, 1.0, 10.0)
        with pytest.raises(ValueError, match="u > p"):
            break_even_gain(np.array([1.0, 10.0]), 1.0, np.array([5.0, 10.0]))

    def test_floor_slack_is_1e_12(self):
        assert meets_floors(7.0 - 1e-12, 1.0, purchase_floor(7.0), purchase_floor(1.0))
        below = math.nextafter(7.0 - 1e-12, 0.0)
        assert not meets_floors(below, 1.0, purchase_floor(7.0), purchase_floor(1.0))
        base_below = math.nextafter(1.0 - 1e-12, 0.0)
        assert not meets_floors(7.0, base_below, purchase_floor(7.0),
                                purchase_floor(1.0))

    def test_trail_entry_1e_12_above_is_dominated(self):
        trail = OfferTrail()
        trail.observe(QuotedPrice(rate=2.0 + 1e-12, base=1.0, cap=9.0), 0.5)
        trail.observe(QuotedPrice(rate=3.0, base=1.0 + 1e-12, cap=9.0), 0.75)
        trail.observe(QuotedPrice(rate=2.0, base=1.0, cap=9.0), 0.1)
        # The first entry is within the slack of the standing quote,
        # the second is not (its rate is a whole unit higher).
        assert trail.best_dominated_previous(QuotedPrice(2.0, 1.0, 9.0)) == 0.5
        assert trail.best_dominated_previous(QuotedPrice(3.0, 1.0, 9.0)) == 0.75

    def test_budget_stop_slack_is_1e_12(self):
        assert budget_exhausted(4.0 - 1e-12, 4.0)
        assert not budget_exhausted(math.nextafter(4.0 - 1e-12, 0.0), 4.0)

    def test_eq6_margin_at_zero_accepts(self):
        # lhs = 1 + 2*0.5 - 0.25 = 1.75; rhs = max(2, 1) + max(3, 2)*1
        # - 0.5 - eps, so eps = 2.75 puts the margin at exactly zero.
        args = (2.0, 1.0, 1.0, 0.5, 3.0, 2.0, 0.25, 0.5)
        assert data_accepts_with_cost(*args, 2.75)
        assert not data_accepts_with_cost(*args, math.nextafter(2.75, 0.0))
        # The quote's own components win the max when above the reserved.
        assert data_accepts_with_cost(2.0, 1.0, 1.0, 0.5, 1.0, 0.5, 0.25, 0.5, 0.75)
        assert not data_accepts_with_cost(2.0, 1.0, 1.0, 0.5, 1.0, 0.5, 0.25, 0.5, 0.5)

    def test_eq7_margin_at_zero_accepts(self):
        # lhs = 8*0.5 - (1 + 2*0.5) - 0.25 = 1.75; rhs = 8*1 - 3 - 0.5 - eps.
        args = (2.0, 1.0, 3.0, 1.0, 0.5, 8.0, 0.25, 0.5)
        assert task_accepts_with_cost(*args, 2.75)
        assert not task_accepts_with_cost(*args, math.nextafter(2.75, 0.0))

    def test_increase_price_step(self):
        rate, base, cap, saturated = increase_price_step(
            1.0, 1.0, 2.0, 0.5, 0.5, 0.5, 100.0, 10.0)
        assert (rate, base, cap) == (1.0 + RATE_STEP * 0.5, 1.0 + BASE_STEP * 0.5,
                                     2.0 * (1.0 + CAP_STEP * 0.5))
        assert not saturated
        # Draws of 0.0 concede nothing: the box is saturated.
        *_, saturated = increase_price_step(1.0, 1.0, 2.0, 0.0, 0.0, 0.0, 100.0, 10.0)
        assert saturated
        # Clipped at u/2, the budget and the new cap.
        rate, base, cap, saturated = increase_price_step(
            5.0, 4.0, 4.0, 0.9, 0.9, 0.9, 10.0, 4.0)
        assert (rate, base, cap) == (5.0, 4.0, 4.0) and saturated
        *_, saturated = increase_price_step(5.0, 1.0, 4.0, 0.9, 0.0, 0.0, 10.0, 4.0)
        assert saturated
        *_, saturated = increase_price_step(4.0, 1.0, 4.0, 0.9, 0.0, 0.0, 10.0, 4.0)
        assert not saturated
