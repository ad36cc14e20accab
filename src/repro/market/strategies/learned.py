"""Learning-based offer generation: the paper's §6 limitation 2, implemented.

The paper notes that its *"sampling-evaluation based quoted pricing
choosing strategy is straightforward but not efficient and the task
party can employ automatic bargaining offer strategy, such as learning
based, to optimize the efficiency of offer generating."*

:class:`LearnedTaskParty` instantiates that suggestion with a simple
contextual bandit over **concession step sizes**: instead of sampling
candidate caps uniformly over the remaining budget and taking the
minimum (Algorithm 1's rule), it maintains arms = fractional concession
steps, scores each by observed *gain improvement per unit of cap
conceded*, and picks ε-greedily.  Quotes remain Eq.5-consistent, so all
equilibrium guarantees of the strategic variant carry over — only the
escalation schedule is learned.

The ablation bench (`bench_ablation_learned.py`) compares it against
the sampling strategy on rounds-to-agreement and final net profit.
"""

from __future__ import annotations

import numpy as np

from repro.market.config import MarketConfig
from repro.market.objectives import break_even_gain
from repro.market.pricing import QuotedPrice
from repro.market.strategies.base import TaskDecision, TaskStrategy
from repro.market.termination import (
    Decision,
    OfferTrail,
    budget_exhausted,
    task_accepts,
    task_fails_regression,
)
from repro.utils.rng import as_generator
from repro.utils.validation import require

__all__ = ["LearnedTaskParty"]

#: Concession arms: fraction of the remaining budget conceded per round.
_ARMS = (0.02, 0.05, 0.10, 0.20, 0.40)

#: Exploration probability of the ε-greedy arm choice.
_EPSILON = 0.2


class LearnedTaskParty(TaskStrategy):
    """Bandit-paced equilibrium-targeting buyer.

    Parameters
    ----------
    config:
        Shared market constants (the target gain must be resolvable,
        as for the strategic buyer).
    known_gains:
        The platform-disclosed gain catalogue (values only).
    """

    def __init__(
        self,
        config: MarketConfig,
        known_gains: list[float],
        *,
        rng: object = None,
    ):
        require(bool(known_gains), "perfect information requires the gain catalogue")
        self.config = config
        self.rng = as_generator(rng)
        if config.target_gain is not None:
            self.target = float(config.target_gain)
        else:
            self.target = float(np.quantile(known_gains, config.target_quantile))
        require(self.target > 0, "target gain must be positive")
        opening_cap = config.initial_base + config.initial_rate * self.target
        require(opening_cap <= config.budget, "opening cap exceeds budget")
        self._opening = QuotedPrice(
            rate=config.initial_rate, base=config.initial_base, cap=opening_cap
        )
        self._break_even = break_even_gain(config.initial_rate, config.initial_base,
                                           config.utility_rate)
        # Bandit state: average reward (ΔG gained per unit cap) per arm.
        self._arm_value = np.zeros(len(_ARMS))
        self._arm_count = np.zeros(len(_ARMS))
        self._last_arm: int | None = None
        self._last_gain: float | None = None
        self._last_cap: float | None = None
        self._trail = OfferTrail()

    def initial_quote(self) -> QuotedPrice:
        """Same Eq.5-consistent opening as the strategic buyer."""
        return self._opening

    # ------------------------------------------------------------------
    def observe(self, quote: QuotedPrice, bundle: object, delta_g: float) -> None:
        """Credit the previous concession with its gain-per-cap reward."""
        self._trail.observe(quote, delta_g)
        if (
            self._last_arm is not None
            and self._last_gain is not None
            and self._last_cap is not None
        ):
            conceded = max(quote.cap - self._last_cap, 1e-9)
            reward = (delta_g - self._last_gain) / conceded
            i = self._last_arm
            self._arm_count[i] += 1
            self._arm_value[i] += (reward - self._arm_value[i]) / self._arm_count[i]
        self._last_gain = float(delta_g)
        self._last_cap = quote.cap

    def _pick_arm(self) -> int:
        unexplored = np.flatnonzero(self._arm_count == 0)
        if unexplored.size:
            return int(unexplored[0])
        if float(self.rng.random()) < _EPSILON:
            return int(self.rng.integers(0, len(_ARMS)))
        return int(np.argmax(self._arm_value))

    def decide(
        self, quote: QuotedPrice, delta_g: float, round_number: int
    ) -> TaskDecision:
        """Cases 4-6 with bandit-paced escalation in Case 6."""
        cfg = self.config
        if task_fails_regression(
            delta_g, self._break_even, self._trail.best_dominated_previous(quote)
        ):
            return TaskDecision(Decision.FAIL)
        if task_accepts(quote.turning_point, delta_g, cfg.eps_t):
            return TaskDecision(Decision.ACCEPT)
        if budget_exhausted(quote.cap, cfg.budget):
            return TaskDecision(Decision.ACCEPT)
        headroom = cfg.budget - quote.cap
        arm = self._pick_arm()
        self._last_arm = arm
        cap = quote.cap + _ARMS[arm] * headroom
        rate_high = min(cfg.utility_rate, (cap - cfg.initial_base) / self.target)
        if rate_high <= cfg.initial_rate:
            return TaskDecision(Decision.ACCEPT)
        rate = float(self.rng.uniform(cfg.initial_rate, rate_high))
        base = cap - rate * self.target
        return TaskDecision(
            Decision.CONTINUE, QuotedPrice(rate=rate, base=base, cap=cap)
        )
