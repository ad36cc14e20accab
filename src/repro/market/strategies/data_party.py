"""The strategic data party under perfect performance information (§3.4.1).

Given a quote it (1) discards bundles whose reserved price the quote
does not meet, then (2) offers the affordable bundle whose ΔG lies
closest to — without exceeding — the quote's turning point, which
maximises its payment under the cap (Eq. 4).  Acceptance (Case 2)
fires when that gap is within ``ε_d``; with bargaining costs, Eq. 6's
look-ahead rule can accept earlier.

Steps (1) and (2) and Eq. 6's target bundle are stated once, over
``(n, F)`` arrays, in :func:`offer_rows`: :meth:`StrategicDataParty.respond`
calls it on one row, and the population kernel
(:mod:`repro.simulate.kernel`) on every live session of a batch.
"""

from __future__ import annotations

import numpy as np

from repro.market.bundle import FeatureBundle
from repro.market.config import MarketConfig
from repro.market.costs import CostModel, NoCost
from repro.market.pricing import (
    QuotedPrice,
    ReservedPrice,
    meets_floors,
    purchase_floor,
)
from repro.market.strategies.base import DataResponse, DataStrategy
from repro.market.termination import (
    Decision,
    data_accepts,
    data_accepts_with_cost,
)
from repro.utils.validation import require

__all__ = [
    "StrategicDataParty",
    "affordable_bundles",
    "floor_rows",
    "offer_rows",
]


def offer_rows(
    gains: np.ndarray,
    rate: np.ndarray,
    base: np.ndarray,
    turning_point: np.ndarray,
    floor_rate: np.ndarray,
    floor_base: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Case 1, the Eq. 4 offer and Eq. 6's target over ``(n, F)`` rows.

    ``gains`` is the catalogue's ΔG, ``(F,)``; the quote is given as
    ``(n, 1)`` columns and the reserved prices as floors, ``(n, F)``
    or ``(1, F)`` (:func:`~repro.market.pricing.purchase_floor`,
    compared by :func:`~repro.market.pricing.meets_floors`).  Returns
    ``(offer, target)``, catalogue indices of shape ``(n,)``:

    * ``offer[i]`` is ``-1`` when row ``i`` can afford no bundle
      (Case 1); otherwise the largest affordable ΔG not beyond the
      turning point (payment grows with ΔG up to the cap) or, when
      every affordable gain overshoots, the smallest one (payment
      saturates at the cap, so the cheapest sufficient bundle) — at the
      first catalogue index holding that gain;
    * ``target[i]`` is the bundle ``F_j`` of Eq. 6, the first index of
      the smallest ``|ΔG − turning point|`` over the whole catalogue.
    """
    afford = meets_floors(rate, base, floor_rate, floor_base)
    below = afford & (gains <= turning_point)
    offer = np.where(below, gains, -np.inf).argmax(axis=1)
    over = np.flatnonzero(~below.any(axis=1))
    if over.size:  # every affordable gain overshoots, or none is affordable
        afford_over = afford[over]
        offer[over] = np.where(afford_over, gains, np.inf).argmin(axis=1)
        offer[over[~afford_over.any(axis=1)]] = -1
    target = np.abs(gains - turning_point).argmin(axis=1)
    return offer, target


def floor_rows(prices: list[ReservedPrice]) -> tuple[np.ndarray, np.ndarray]:
    """The :func:`~repro.market.pricing.purchase_floor` of a catalogue's
    reserved rates and bases, as two ``(1, F)`` rows."""
    return (purchase_floor(np.array([[p.rate for p in prices]])),
            purchase_floor(np.array([[p.base for p in prices]])))


def affordable_bundles(
    bundles: list[FeatureBundle],
    floors: tuple[np.ndarray, np.ndarray],
    quote: QuotedPrice,
) -> list[FeatureBundle]:
    """The bundles ``quote`` can buy, in catalogue order (``floors``
    from :func:`floor_rows`)."""
    mask = meets_floors(np.array(quote.rate, ndmin=2),
                        np.array(quote.base, ndmin=2), *floors)
    return [b for b, ok in zip(bundles, mask[0].tolist()) if ok]


class StrategicDataParty(DataStrategy):
    """Turning-point-tracking seller (perfect information).

    Parameters
    ----------
    gains:
        The party's own catalogue: bundle -> ΔG (it knows what each of
        its bundles is worth to this buyer, §3.4).
    reserved_prices:
        Private floors per bundle (Def. 2.4).
    config:
        Shared market constants (``eps_d``; cost tolerances).
    cost_model:
        Bargaining cost ``C_d``; enables the Eq. 6 acceptance rule.
    """

    def __init__(
        self,
        gains: dict[FeatureBundle, float],
        reserved_prices: dict[FeatureBundle, ReservedPrice],
        config: MarketConfig,
        *,
        cost_model: CostModel | None = None,
    ):
        require(bool(gains), "data party needs a non-empty catalogue")
        self.gains = dict(gains)
        self.reserved_prices = dict(reserved_prices)
        self.config = config
        self.cost_model = cost_model
        self._bundles = list(self.gains)
        prices = [self.reserved_prices.get(b) for b in self._bundles]
        missing = [b for b, p in zip(self._bundles, prices) if p is None]
        require(not missing, f"reserved price missing for {missing[:3]}")
        self._gains = np.fromiter(self.gains.values(), float, len(self._bundles))
        self._floors = floor_rows(prices)
        self._costly = cost_model is not None and not isinstance(cost_model, NoCost)

    def respond(self, quote: QuotedPrice, round_number: int) -> DataResponse:
        """Cases 1-3 of §3.4.3 (plus Eq. 6 when costs are modelled)."""
        turning_point = quote.turning_point
        offer, target = offer_rows(
            self._gains,
            np.array(quote.rate, ndmin=2),
            np.array(quote.base, ndmin=2),
            np.array(turning_point, ndmin=2),
            *self._floors,
        )
        i = int(offer[0])
        if i < 0:  # Case 1
            return DataResponse(Decision.FAIL)
        bundle, gain = self._bundles[i], float(self._gains[i])
        if data_accepts(turning_point, gain, self.config.eps_d):
            return DataResponse(Decision.ACCEPT, bundle)
        if self._costly:
            reserved = self.reserved_prices[self._bundles[int(target[0])]]
            if data_accepts_with_cost(
                quote.rate, quote.base, turning_point, gain,
                reserved.rate, reserved.base, self.cost_model(round_number),
                self.cost_model(round_number + 1), self.config.eps_dc,
            ):
                return DataResponse(Decision.ACCEPT, bundle)
        return DataResponse(Decision.CONTINUE, bundle)
