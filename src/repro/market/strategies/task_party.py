"""The strategic task party under perfect performance information (§3.4.2).

Opening move: target a performance gain ΔG* and quote
``(p0, P0^0, Ph^0)`` satisfying the equilibrium criterion
``(Ph − P0)/p = ΔG*`` (Eq. 5).  On each Case-6 continuation it samples
a finite candidate set of *escalated* quotes that keep satisfying
Eq. 5 and picks the one with the lowest cap — the cheapest quote that
could still unlock the target bundle (Algorithm 1, lines 16-17).

The Eq. 5 constraint is what produces the paper's headline behaviour:
because every quote's turning point *is* the target, the rate can never
inflate past ``(Ph − P0^0)/ΔG*``, so final rates land just above the
data party's reserved rate instead of overshooting (Figure 2 d/i/n).
"""

from __future__ import annotations

import numpy as np

from repro.market.config import MarketConfig
from repro.market.costs import CostModel, NoCost
from repro.market.objectives import break_even_gain
from repro.market.pricing import QuotedPrice
from repro.market.strategies.base import TaskDecision, TaskStrategy
from repro.market.termination import (
    Decision,
    OfferTrail,
    budget_exhausted,
    task_accepts,
    task_accepts_with_cost,
    task_fails_regression,
)
from repro.utils.rng import as_generator, can_replay_block, replay_block
from repro.utils.validation import require

__all__ = ["StrategicTaskParty"]


def _min_cap_scan(
    draws: list[float],
    n: int,
    cap_low: float,
    span: float,
    rate_low: float,
    base0: float,
    rate_cap: float,
    target: float,
) -> tuple[tuple[float, float], int]:
    """``((cap, rate) of the min-cap candidate, doubles used)`` for ``n``
    candidates replayed from ``draws``.

    A candidate's rate draw follows its cap draw in stream order, and
    only when the cap is usable, so each draw's tape position is
    replayed.  ``draws`` are Python floats: the same IEEE double
    arithmetic as numpy scalars, at a fraction of the per-operation cost.
    """
    idx = 0
    best_cap = float("inf")
    best_rate = 0.0
    for _ in range(n):
        cap = cap_low + span * draws[idx]
        idx += 1
        if cap <= cap_low + 1e-12:
            continue
        rate_high = min(rate_cap, (cap - base0) / target)
        if rate_high <= rate_low:
            continue
        rate = rate_low + (rate_high - rate_low) * draws[idx]
        idx += 1
        if cap < best_cap:
            best_cap = cap
            best_rate = rate
    return (best_cap, best_rate), idx


class StrategicTaskParty(TaskStrategy):
    """Equilibrium-targeting buyer (perfect information).

    Parameters
    ----------
    config:
        Shared market constants.
    known_gains:
        The |F| performance-gain values the trusted platform disclosed
        (values only — bundle identities stay private, §3.4).
    cost_model:
        Bargaining cost ``C_t``; enables the Eq. 7 acceptance rule.
    """

    def __init__(
        self,
        config: MarketConfig,
        known_gains: list[float],
        *,
        cost_model: CostModel | None = None,
        rng: object = None,
    ):
        require(bool(known_gains), "perfect information requires the gain catalogue")
        self.config = config
        self.rng = as_generator(rng)
        self.cost_model = cost_model
        if config.target_gain is not None:
            self.target = float(config.target_gain)
        else:
            self.target = float(np.quantile(known_gains, config.target_quantile))
        require(self.target > 0, "target gain must be positive")
        opening_cap = config.initial_base + config.initial_rate * self.target
        require(
            opening_cap <= config.budget,
            f"opening cap {opening_cap:.3f} exceeds budget {config.budget:.3f}; "
            "raise the budget or lower the target",
        )
        self._current = QuotedPrice(
            rate=config.initial_rate, base=config.initial_base, cap=opening_cap
        )
        # Case 4 uses the *regression* reading (see
        # :func:`repro.market.termination.task_fails_regression`): the
        # opening quote anchors the break-even bar and offers only kill
        # the game when they fall below the best gain seen so far.
        self._break_even = break_even_gain(config.initial_rate, config.initial_base,
                                           config.utility_rate)
        self._trail = OfferTrail()
        self._costly = cost_model is not None and not isinstance(cost_model, NoCost)

    def initial_quote(self) -> QuotedPrice:
        """Opening quote satisfying Eq. 5 for the target gain."""
        return self._current

    # ------------------------------------------------------------------
    def _best_escalation(self, current: QuotedPrice) -> QuotedPrice | None:
        """Min-cap escalated Eq.5-consistent candidate (Algorithm 1,
        lines 16-17); ``None`` when the budget leaves no headroom.

        Following the algorithm's constraints, rates are sampled in
        ``(p0, u]`` and bases bounded below by ``P0^0`` — both relative
        to the *opening* quote, so the rate/base split along the Eq. 5
        line is re-explored every round.  Only the cap must exceed the
        current one (the "incremental adjustment"), which guarantees
        progress; min-cap selection (line 17) keeps each concession as
        small as the candidate set allows.

        Because every candidate keeps ``p >= p0`` and ``P0 >= P0^0``,
        bundles affordable under the opening quote stay affordable in
        every later round — the mid-game offer set can only grow.

        The sampling loop is the engine's per-round hot path (two RNG
        draws per candidate, ``n_price_samples`` candidates per round),
        so the draws are taken as one block through
        :func:`~repro.utils.rng.replay_block`, which rewinds the
        generator and advances it by the *exact* number of doubles the
        equivalent scalar loop would have consumed, then restores any
        half-word an earlier ``integers()`` call left buffered — so the
        selected quote, and every draw any later round sees, are
        bit-identical to the scalar loop's.
        """
        cfg = self.config
        cap_low = current.cap
        if budget_exhausted(cap_low, cfg.budget):
            return None
        if not can_replay_block(self.rng):  # e.g. MT19937
            return self._best_escalation_scalar(current)
        n = cfg.n_price_samples
        span = cfg.budget - cap_low
        target = self.target
        best_cap, best_rate = replay_block(
            self.rng,
            2 * n,
            lambda tape: _min_cap_scan(
                tape.tolist(), n, cap_low, span, cfg.initial_rate,
                cfg.initial_base, cfg.utility_rate, target,
            ),
        )
        if best_cap == float("inf"):
            return None
        return QuotedPrice(
            rate=best_rate, base=best_cap - best_rate * target, cap=best_cap
        )

    def _best_escalation_scalar(
        self, current: QuotedPrice
    ) -> QuotedPrice | None:
        """Draw-for-draw scalar fallback for bit generators that cannot
        replay a block (identical stream consumption to the block path)."""
        cfg = self.config
        cap_low = current.cap
        best: QuotedPrice | None = None
        for _ in range(cfg.n_price_samples):
            cap = float(self.rng.uniform(cap_low, cfg.budget))
            if cap <= cap_low + 1e-12:
                continue
            rate_high = min(cfg.utility_rate,
                            (cap - cfg.initial_base) / self.target)
            if rate_high <= cfg.initial_rate:
                continue
            rate = float(self.rng.uniform(cfg.initial_rate, rate_high))
            if best is None or cap < best.cap:
                best = QuotedPrice(
                    rate=rate, base=cap - rate * self.target, cap=cap
                )
        return best


    def observe(self, quote: QuotedPrice, bundle: object, delta_g: float) -> None:
        """Track the (quote, gain) trail for the Case-4 regression test."""
        self._trail.observe(quote, delta_g)

    def decide(
        self, quote: QuotedPrice, delta_g: float, round_number: int
    ) -> TaskDecision:
        """Cases 4-6 of §3.4.3 (plus Eq. 7 when costs are modelled)."""
        cfg = self.config
        if task_fails_regression(
            delta_g, self._break_even, self._trail.best_dominated_previous(quote)
        ):
            return TaskDecision(Decision.FAIL)
        turning_point = quote.turning_point
        if task_accepts(turning_point, delta_g, cfg.eps_t):
            return TaskDecision(Decision.ACCEPT)
        if self._costly and task_accepts_with_cost(
            quote.rate, quote.base, quote.cap, turning_point, delta_g,
            cfg.utility_rate, self.cost_model(round_number),
            self.cost_model(round_number + 1), cfg.eps_tc,
        ):
            return TaskDecision(Decision.ACCEPT)
        best = self._best_escalation(quote)
        if best is None:
            # Budget exhausted: accept the standing outcome rather than
            # walk away from a profitable (if sub-target) trade.
            return TaskDecision(Decision.ACCEPT)
        self._current = best
        return TaskDecision(Decision.CONTINUE, best)
