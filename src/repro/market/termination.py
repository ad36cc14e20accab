"""Termination predicates: Cases 1-6 (§3.4.3) and their cost-aware forms.

The bargaining engine consults these pure functions; keeping them free
of strategy state makes the paper's case analysis directly unit- and
property-testable.  Imperfect-information Cases I-VII (§3.5.4) reuse
the same predicates on *estimated* gains plus the exploration-round
relaxation, which lives in the engine.
"""

from __future__ import annotations

import enum

from repro.market.costs import CostModel
from repro.market.objectives import break_even_gain
from repro.market.pricing import QuotedPrice, ReservedPrice

__all__ = [
    "Decision",
    "OfferTrail",
    "data_accepts",
    "data_accepts_with_cost",
    "no_affordable_bundle",
    "task_accepts",
    "task_accepts_with_cost",
    "task_fails",
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


def data_accepts(quote: QuotedPrice, gain_of_selected: float, eps_d: float) -> bool:
    """Case 2 / Case II-1: the selected bundle sits within ``ε_d`` of the
    turning point, so the data party's payment is (near-)maximal."""
    return quote.turning_point - gain_of_selected <= eps_d


def task_fails(quote: QuotedPrice, delta_g: float, utility_rate: float) -> bool:
    """Case 4 / Case IV: realised gain below break-even ``P0/(u − p)``."""
    return delta_g < break_even_gain(quote, utility_rate)


def task_fails_regression(
    opening_quote: QuotedPrice,
    delta_g: float,
    best_previous: float,
    utility_rate: float,
) -> bool:
    """Case 4 as the walk-away rule the paper's experiments exhibit.

    Two refinements over the literal predicate, both forced by the
    paper's own evidence (see DESIGN.md):

    * the break-even threshold anchors to the **opening** quote — the
      buyer's outside option is fixed at game start, otherwise its own
      concessions would raise its walk-away bar mid-game;
    * an offer below break-even only kills the game when it **regresses
      below the best gain already offered** — the paper's Figure 2(k)
      shows strategic bargaining surviving early below-break-even
      rounds, while Random Bundle's junk re-offers (the regression
      case) are reported as Case-4 failures.
    """
    below_break_even = delta_g < break_even_gain(opening_quote, utility_rate)
    return below_break_even and delta_g < best_previous


class OfferTrail:
    """The ``(rate, base, ΔG)`` of every observed round, for
    :func:`task_fails_regression`'s ``best_previous``."""

    def __init__(self) -> None:
        self._rounds: list[tuple[float, float, float]] = []

    def observe(self, quote: QuotedPrice, delta_g: float) -> None:
        """Record the round ``quote`` obtained ``delta_g`` in."""
        self._rounds.append((quote.rate, quote.base, float(delta_g)))

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
        for rate, base, gain in self._rounds[:-1]:
            if quote.rate >= rate - 1e-12 and quote.base >= base - 1e-12:
                best = max(best, gain)
        return best


def task_accepts(quote: QuotedPrice, delta_g: float, eps_t: float) -> bool:
    """Case 5 / Case V: realised gain within ``ε_t`` of the turning point."""
    return delta_g >= quote.turning_point - eps_t


def data_accepts_with_cost(
    quote: QuotedPrice,
    gain_of_selected: float,
    reserved_of_target: ReservedPrice,
    cost_model: CostModel,
    round_number: int,
    eps_dc: float,
) -> bool:
    """Eq. 6: accept when this round's revenue beats a conservative
    estimate of next round's, net of the growing bargaining cost.

    LHS — revenue now:   ``P0 + p·ΔG_i − C_d(T)``.
    RHS — next round's *lowest* revenue if the target bundle ``F_j``
    (the one at the turning point) transacts: the quote can only rise,
    so it is bounded below by ``max{P_l, P0} + max{p_l, p}·ΔG_j``,
    minus ``C_d(T+1)`` and the tolerance ``ε_dc``.
    """
    lhs = quote.base + quote.rate * gain_of_selected - cost_model(round_number)
    next_payment = (
        max(reserved_of_target.base, quote.base)
        + max(reserved_of_target.rate, quote.rate) * quote.turning_point
    )
    rhs = next_payment - cost_model(round_number + 1) - eps_dc
    return lhs >= rhs


def task_accepts_with_cost(
    quote: QuotedPrice,
    delta_g: float,
    utility_rate: float,
    cost_model: CostModel,
    round_number: int,
    eps_tc: float,
) -> bool:
    """Eq. 7: accept when this round's net profit beats the *upper bound*
    of next round's.

    LHS — profit now: ``u·ΔG − (P0 + p·ΔG) − C_t(T)``.
    RHS — best possible next round: gain at the current turning point,
    paid at today's cap (next round's cap only rises), minus
    ``C_t(T+1)`` and the tolerance ``ε_tc``.
    """
    lhs = (
        utility_rate * delta_g
        - (quote.base + quote.rate * delta_g)
        - cost_model(round_number)
    )
    rhs = (
        utility_rate * quote.turning_point
        - quote.cap
        - cost_model(round_number + 1)
        - eps_tc
    )
    return lhs >= rhs
