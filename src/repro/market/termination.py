"""Termination rules: Cases 1-6 (§3.4.3) and their cost-aware forms.

Each rule is one function over numbers: quote components (rate, base,
cap, turning point), gains, tolerances and the two cost values
``C(T)`` and ``C(T+1)`` — never a :class:`QuotedPrice` or a cost
model.  The rules use only arithmetic and comparisons (``&``, not
``and``), so the same function takes Python floats or numpy rows and
gives bit-identical answers element by element
(``tests/market/test_rule_rows.py``):

* the engine's parties (:mod:`repro.market.strategies`) call them with
  Python floats, once per round;
* the population kernel (:mod:`repro.simulate.kernel`) calls them on
  every live row of a batch.

The other rules live next to the quantity they test: Case 4's
break-even bar is :func:`repro.market.objectives.break_even_gain`, the
trail's dominance test is :func:`repro.market.pricing.meets_floors`
and Increase Price's Case-6 step is
:func:`repro.market.strategies.baselines.increase_price_step`.

Imperfect-information Cases I-VII (§3.5.4) reuse the same predicates
on *estimated* gains plus the exploration-round relaxation, which lives
in the strategies.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.market.pricing import QuotedPrice, meets_floors, purchase_floor

__all__ = [
    "Decision",
    "OfferTrail",
    "budget_exhausted",
    "data_accepts",
    "data_accepts_with_cost",
    "no_affordable_bundle",
    "task_accepts",
    "task_accepts_with_cost",
    "task_fails_regression",
]


class Decision(enum.Enum):
    """Outcome of a party's termination check for the current round."""

    CONTINUE = "continue"
    ACCEPT = "accept"
    FAIL = "fail"


def no_affordable_bundle(affordable_count: int) -> bool:
    """Case 1 / Case I: every bundle's reserved price exceeds the quote."""
    return affordable_count == 0


def data_accepts(turning_point, gain_of_selected, eps_d):
    """Case 2 / Case II-1: the selected bundle sits within ``ε_d`` of the
    turning point, so the data party's payment is (near-)maximal."""
    return turning_point - gain_of_selected <= eps_d


def task_fails_regression(delta_g, break_even, best_previous):
    """Case 4 as the walk-away rule the paper's experiments exhibit.

    Two refinements over the literal predicate ``ΔG < P0/(u − p)``,
    both forced by the paper's own evidence (see DESIGN.md):

    * ``break_even`` (:func:`~repro.market.objectives.break_even_gain`)
      anchors to the **opening** quote — the buyer's outside option is
      fixed at game start, otherwise its own concessions would raise
      its walk-away bar mid-game;
    * an offer below break-even only kills the game when it **regresses
      below the best gain already offered** (``best_previous``, from
      :meth:`OfferTrail.best_dominated_previous`; ``-inf`` when none) —
      the paper's Figure 2(k) shows strategic bargaining surviving
      early below-break-even rounds, while Random Bundle's junk
      re-offers (the regression case) are reported as Case-4 failures.
    """
    return (delta_g < break_even) & (delta_g < best_previous)


class OfferTrail:
    """The quotes and ``ΔG`` of every observed round, for
    :func:`task_fails_regression`'s ``best_previous``.

    Each round's rate and base are kept as :func:`purchase_floor`s, so
    the dominance test is :func:`meets_floors`.
    """

    def __init__(self) -> None:
        self._rounds: list[tuple[float, float, float]] = []

    def observe(self, quote: QuotedPrice, delta_g: float) -> None:
        """Record the round ``quote`` obtained ``delta_g`` in."""
        self._rounds.append(
            (purchase_floor(quote.rate), purchase_floor(quote.base), float(delta_g))
        )

    def best_dominated_previous(self, quote: QuotedPrice) -> float:
        """Best gain among earlier rounds whose quote the current one dominates.

        If the standing quote is component-wise at least as generous as
        the quote that obtained some earlier gain, a rational seller's
        affordable set can only have grown — so offering less than that
        gain now is genuine regression, not an artefact of the buyer's
        own price path.  The latest round (the offer under test) is
        left out.
        """
        best = float("-inf")
        for floor_rate, floor_base, gain in self._rounds[:-1]:
            if meets_floors(quote.rate, quote.base, floor_rate, floor_base):
                best = max(best, gain)
        return best


def task_accepts(turning_point, delta_g, eps_t):
    """Case 5 / Case V: realised gain within ``ε_t`` of the turning point."""
    return delta_g >= turning_point - eps_t


def budget_exhausted(cap, budget):
    """Algorithm 1's budget stop: the cap has reached the budget (to
    ``1e-12``), so Case 6 has no escalated quote left to offer."""
    return cap >= budget - 1e-12


def data_accepts_with_cost(rate, base, turning_point, gain_of_selected,
                           reserved_rate, reserved_base, cost_now, cost_next, eps_dc):
    """Eq. 6: accept when this round's revenue beats a conservative
    estimate of next round's, net of the growing bargaining cost.

    LHS — revenue now:   ``P0 + p·ΔG_i − C_d(T)``.
    RHS — next round's *lowest* revenue if the target bundle ``F_j``
    (the one at the turning point, reserved at ``(p_l, P_l)``)
    transacts: the quote can only rise, so it is bounded below by
    ``max{P_l, P0} + max{p_l, p}·ΔG_j``, minus ``C_d(T+1)`` and the
    tolerance ``ε_dc``.
    """
    lhs = base + rate * gain_of_selected - cost_now
    rhs = (np.maximum(reserved_base, base) + np.maximum(reserved_rate, rate)
           * turning_point - cost_next - eps_dc)
    return lhs >= rhs


def task_accepts_with_cost(rate, base, cap, turning_point, delta_g,
                           utility_rate, cost_now, cost_next, eps_tc):
    """Eq. 7: accept when this round's net profit beats the *upper bound*
    of next round's.

    LHS — profit now: ``u·ΔG − (P0 + p·ΔG) − C_t(T)``.
    RHS — best possible next round: gain at the current turning point,
    paid at today's cap (next round's cap only rises), minus
    ``C_t(T+1)`` and the tolerance ``ε_tc``.
    """
    lhs = utility_rate * delta_g - (base + rate * delta_g) - cost_now
    rhs = utility_rate * turning_point - cap - cost_next - eps_tc
    return lhs >= rhs
