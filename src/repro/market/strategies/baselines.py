"""The paper's non-strategic comparison variants (§4.2).

* **Increase Price** — the task party ignores the Eq. 5 equilibrium
  constraint and simply inflates all three price components by random
  multiplicative factors each round.  It still terminates through
  Cases 4-6, but nothing ties the turning point to a target gain, so it
  converges slower and routinely overpays relative to the reserved
  price (Figure 2's right-hand densities).
* **Random Bundle** — the data party filters by reserved price but then
  offers an arbitrary affordable bundle instead of tracking the turning
  point.  Weak random offers frequently violate the task party's
  break-even bound and fail the transaction early (Case 4), which is
  exactly the pathology the paper reports.
"""

from __future__ import annotations

import numpy as np

from repro.market.bundle import FeatureBundle
from repro.market.config import MarketConfig
from repro.market.objectives import break_even_gain
from repro.market.pricing import QuotedPrice, ReservedPrice
from repro.market.strategies.base import (
    DataResponse,
    DataStrategy,
    TaskDecision,
    TaskStrategy,
)
from repro.market.strategies.data_party import affordable_bundles, floor_rows
from repro.market.termination import (
    Decision,
    OfferTrail,
    data_accepts,
    no_affordable_bundle,
    task_accepts,
    task_fails_regression,
)
from repro.utils.rng import as_generator
from repro.utils.validation import require

__all__ = [
    "BASE_STEP",
    "CAP_STEP",
    "RATE_STEP",
    "IncreasePriceTaskParty",
    "RandomBundleDataParty",
    "increase_price_step",
]

#: Increase Price's per-round multiplicative step bounds: each
#: continuation scales ``p`` by ``1 + U(0, RATE_STEP)``, ``P0`` by
#: ``1 + U(0, BASE_STEP)`` and ``Ph`` by ``1 + U(0, CAP_STEP)``
#: (:func:`increase_price_step`).
RATE_STEP = 0.020
BASE_STEP = 0.006
CAP_STEP = 0.007


def increase_price_step(rate, base, cap, draw_rate, draw_base, draw_cap,
                        utility_rate, budget):
    """Increase Price's Case-6 escalation of the quote ``(rate, base, cap)``.

    ``draw_*`` are uniform doubles in ``[0, 1)``: ``p`` grows by
    ``1 + RATE_STEP·draw_rate`` up to ``u/2``, ``Ph`` by
    ``1 + CAP_STEP·draw_cap`` up to the budget and ``P0`` by
    ``1 + BASE_STEP·draw_base`` up to the new cap.  Returns
    ``(rate, base, cap, saturated)``; ``saturated`` is true where no
    component rose — the price box has nothing left to concede.

    Takes numbers or numpy rows: :class:`IncreasePriceTaskParty` calls
    it once per round, the population kernel
    (:mod:`repro.simulate.kernel`) on every escalating row.
    """
    new_rate = np.minimum(rate * (1.0 + RATE_STEP * draw_rate), utility_rate * 0.5)
    new_cap = np.minimum(cap * (1.0 + CAP_STEP * draw_cap), budget)
    new_base = np.minimum(base * (1.0 + BASE_STEP * draw_base), new_cap)
    saturated = (new_rate <= rate) & (new_base <= base) & (new_cap <= cap)
    return new_rate, new_base, new_cap, saturated


class IncreasePriceTaskParty(TaskStrategy):
    """Arbitrary price escalation without the Eq. 5 structure.

    Each continuation draws three uniforms (rate, base, cap, in that
    order) and applies :func:`increase_price_step`.  The rate grows
    relatively faster than the cap, so the turning point drifts
    downward and the game does terminate — just later and at a worse
    price than the strategic variant.
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
        p0, b0 = config.initial_rate, config.initial_base
        self._opening = QuotedPrice(rate=p0, base=b0, cap=b0 + p0 * self.target)
        self._break_even = break_even_gain(p0, b0, config.utility_rate)
        self._trail = OfferTrail()

    def observe(self, quote: QuotedPrice, bundle: object, delta_g: float) -> None:
        """Track the (quote, gain) trail for the Case-4 regression test."""
        self._trail.observe(quote, delta_g)

    def initial_quote(self) -> QuotedPrice:
        """Same opening quote as the strategic variant (same initial state)."""
        return self._opening

    def decide(
        self, quote: QuotedPrice, delta_g: float, round_number: int
    ) -> TaskDecision:
        """Cases 4-6, with arbitrary escalation in Case 6."""
        cfg = self.config
        # Case 4's regression reading, matching the strategic variant.
        if task_fails_regression(
            delta_g, self._break_even, self._trail.best_dominated_previous(quote)
        ):
            return TaskDecision(Decision.FAIL)
        if task_accepts(quote.turning_point, delta_g, cfg.eps_t):
            return TaskDecision(Decision.ACCEPT)
        draw = self.rng.random
        rate, base, cap, saturated = increase_price_step(
            quote.rate, quote.base, quote.cap, draw(), draw(), draw(),
            cfg.utility_rate, cfg.budget,
        )
        if saturated:
            return TaskDecision(Decision.ACCEPT)
        quote = QuotedPrice(rate=float(rate), base=float(base), cap=float(cap))
        return TaskDecision(Decision.CONTINUE, quote)


class RandomBundleDataParty(DataStrategy):
    """Reserved-price filtering followed by an arbitrary offer."""

    def __init__(
        self,
        gains: dict[FeatureBundle, float],
        reserved_prices: dict[FeatureBundle, ReservedPrice],
        config: MarketConfig,
        *,
        rng: object = None,
    ):
        require(bool(gains), "data party needs a non-empty catalogue")
        self.gains = dict(gains)
        self.reserved_prices = dict(reserved_prices)
        self.config = config
        self.rng = as_generator(rng)
        self._bundles = list(self.gains)
        self._floors = floor_rows([self.reserved_prices[b] for b in self._bundles])

    def respond(self, quote: QuotedPrice, round_number: int) -> DataResponse:
        """Case 1 filter, then a uniformly random affordable bundle."""
        affordable = affordable_bundles(self._bundles, self._floors, quote)
        if no_affordable_bundle(len(affordable)):
            return DataResponse(Decision.FAIL)
        bundle = affordable[int(self.rng.integers(0, len(affordable)))]
        if data_accepts(quote.turning_point, self.gains[bundle], self.config.eps_d):
            return DataResponse(Decision.ACCEPT, bundle)
        return DataResponse(Decision.CONTINUE, bundle)
