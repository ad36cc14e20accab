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
]

#: Increase Price's per-round multiplicative step bounds: each
#: continuation scales ``p`` by ``1 + U(0, RATE_STEP)``, ``P0`` by
#: ``1 + U(0, BASE_STEP)`` and ``Ph`` by ``1 + U(0, CAP_STEP)``.  The
#: population kernel (:mod:`repro.simulate.kernel`) reads the same
#: constants for the sessions it plays with this rule.
RATE_STEP = 0.020
BASE_STEP = 0.006
CAP_STEP = 0.007


class IncreasePriceTaskParty(TaskStrategy):
    """Arbitrary price escalation without the Eq. 5 structure.

    Each continuation multiplies ``p`` by ``1 + U(0, rate_step)``,
    ``P0`` by ``1 + U(0, base_step)`` and ``Ph`` by ``1 + U(0, cap_step)``
    (three draws, in that order), clipped to half the utility rate and
    the budget.  The rate grows relatively faster than the cap, so the
    turning point drifts downward and the game does terminate — just
    later and at a worse price than the strategic variant.
    """

    def __init__(
        self,
        config: MarketConfig,
        known_gains: list[float],
        *,
        rate_step: float = RATE_STEP,
        cap_step: float = CAP_STEP,
        base_step: float = BASE_STEP,
        rng: object = None,
    ):
        require(bool(known_gains), "perfect information requires the gain catalogue")
        self.config = config
        self.rng = as_generator(rng)
        self.rate_step = float(rate_step)
        self.cap_step = float(cap_step)
        self.base_step = float(base_step)
        if config.target_gain is not None:
            self.target = float(config.target_gain)
        else:
            self.target = float(np.quantile(known_gains, config.target_quantile))
        self._trail = OfferTrail()

    def observe(self, quote: QuotedPrice, bundle: object, delta_g: float) -> None:
        """Track the (quote, gain) trail for the Case-4 regression test."""
        self._trail.observe(quote, delta_g)

    def initial_quote(self) -> QuotedPrice:
        """Same opening quote as the strategic variant (same initial state)."""
        cfg = self.config
        return QuotedPrice(
            rate=cfg.initial_rate,
            base=cfg.initial_base,
            cap=cfg.initial_base + cfg.initial_rate * self.target,
        )

    def decide(
        self, quote: QuotedPrice, delta_g: float, round_number: int
    ) -> TaskDecision:
        """Cases 4-6, with arbitrary escalation in Case 6."""
        cfg = self.config
        # Case 4's regression reading, matching the strategic variant.
        if task_fails_regression(
            self.initial_quote(),
            delta_g,
            self._trail.best_dominated_previous(quote),
            cfg.utility_rate,
        ):
            return TaskDecision(Decision.FAIL)
        if task_accepts(quote, delta_g, cfg.eps_t):
            return TaskDecision(Decision.ACCEPT)
        rate = min(
            quote.rate * (1.0 + float(self.rng.uniform(0.0, self.rate_step))),
            cfg.utility_rate * 0.5,
        )
        base = quote.base * (1.0 + float(self.rng.uniform(0.0, self.base_step)))
        cap = min(
            quote.cap * (1.0 + float(self.rng.uniform(0.0, self.cap_step))),
            cfg.budget,
        )
        base = min(base, cap)
        if rate <= quote.rate and base <= quote.base and cap <= quote.cap:
            # Fully saturated price box: nothing left to concede.
            return TaskDecision(Decision.ACCEPT)
        return TaskDecision(
            Decision.CONTINUE, QuotedPrice(rate=rate, base=base, cap=cap)
        )


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
        if data_accepts(quote, self.gains[bundle], self.config.eps_d):
            return DataResponse(Decision.ACCEPT, bundle)
        return DataResponse(Decision.CONTINUE, bundle)
