"""Quoted and reserved prices, and the payment function (Defs. 2.2-2.4).

The quoted price ``p = (p, P0, Ph)`` is the task party's offer: a base
payment ``P0``, a per-unit-of-gain rate ``p``, and a cap ``Ph``.  The
payment realised by a VFL course with gain ΔG is

    ``min{ max{P0, P0 + p·ΔG}, Ph }``            (Def. 2.3)

which is flat at ``P0`` for ΔG ≤ 0, linear in between, and saturates at
``Ph`` past the *turning point* ``(Ph − P0)/p`` — the quantity the whole
bargaining analysis revolves around (Eq. 5 equilibrium).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.market.bundle import FeatureBundle
from repro.utils.rng import as_generator
from repro.utils.validation import require

__all__ = ["QuotedPrice", "ReservedPrice", "cost_based_reserved_prices",
           "meets_floors", "purchase_floor"]


def purchase_floor(component):
    """The least quote component that meets ``component`` as a floor:
    ``component`` less the ``1e-12`` slack (a number or an array)."""
    return component - 1e-12


def meets_floors(rate, base, floor_rate, floor_base):
    """True where a quote's rate and base both reach their floors.

    The floors are the :func:`purchase_floor` of a reserved price (Case
    1's affordability, :meth:`ReservedPrice.satisfied_by`) or of an
    earlier round's quote (the Case-4 trail's dominance test,
    :class:`~repro.market.termination.OfferTrail`).  Takes numbers or
    broadcastable numpy arrays.
    """
    return (rate >= floor_rate) & (base >= floor_base)


@dataclass(frozen=True)
class QuotedPrice:
    """The task party's offer ``(p, P0, Ph)``.

    Attributes
    ----------
    rate:
        Payment rate ``p`` (> 0): marginal payment per unit of ΔG.
    base:
        Base payment ``P0`` (>= 0): unconditional floor.
    cap:
        Highest payment ``Ph`` = ``P0 + C`` with ``C >= 0``.
    """

    rate: float
    base: float
    cap: float

    def __post_init__(self) -> None:
        require(self.rate > 0, f"payment rate p must be > 0, got {self.rate}")
        require(self.base >= 0, f"base payment P0 must be >= 0, got {self.base}")
        require(
            self.cap >= self.base - 1e-12,
            f"highest payment Ph={self.cap} must be >= P0={self.base}",
        )

    @property
    def turning_point(self) -> float:
        """ΔG at which payment saturates: ``(Ph − P0)/p``."""
        return (self.cap - self.base) / self.rate

    def payment(self, delta_g: float) -> float:
        """Payment to the data party for a realised gain (Def. 2.3)."""
        return float(min(max(self.base, self.base + self.rate * delta_g), self.cap))

    def as_tuple(self) -> tuple[float, float, float]:
        """``(p, P0, Ph)`` for feature vectors / reports."""
        return (self.rate, self.base, self.cap)

    def to_dict(self) -> dict:
        """Canonical plain-dict form (checkpoint wire format)."""
        return {
            "rate": float(self.rate),
            "base": float(self.base),
            "cap": float(self.cap),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "QuotedPrice":
        """Inverse of :meth:`to_dict`."""
        return cls(
            rate=float(payload["rate"]),
            base=float(payload["base"]),
            cap=float(payload["cap"]),
        )

    def __str__(self) -> str:
        return f"(p={self.rate:.3f}, P0={self.base:.3f}, Ph={self.cap:.3f})"


@dataclass(frozen=True)
class ReservedPrice:
    """The data party's private floor ``(p_l, P_l)`` for one bundle (Def. 2.4)."""

    rate: float
    base: float

    def __post_init__(self) -> None:
        require(self.rate > 0, "reserved rate p_l must be > 0")
        require(self.base >= 0, "reserved base P_l must be >= 0")

    def satisfied_by(self, quote: QuotedPrice) -> bool:
        """True when the quote meets both floors (``p >= p_l`` and ``P0 >= P_l``)."""
        return meets_floors(quote.rate, quote.base,
                            purchase_floor(self.rate), purchase_floor(self.base))

    def to_dict(self) -> dict:
        """Canonical plain-dict form (checkpoint wire format)."""
        return {"rate": float(self.rate), "base": float(self.base)}

    @classmethod
    def from_dict(cls, payload: dict) -> "ReservedPrice":
        """Inverse of :meth:`to_dict`."""
        return cls(rate=float(payload["rate"]), base=float(payload["base"]))


def cost_based_reserved_prices(
    bundles: list[FeatureBundle],
    *,
    rate_floor: float,
    rate_per_feature: float,
    base_floor: float,
    base_per_feature: float,
    rate_noise: float = 0.0,
    base_noise: float = 0.0,
    rate_value: float = 0.0,
    base_value: float = 0.0,
    gains: dict[FeatureBundle, float] | None = None,
    rng: object = None,
) -> dict[FeatureBundle, ReservedPrice]:
    """Cost- and value-related reserved prices.

    Def. 2.4's remark motivates the cost component: *"a feature bundle
    of a larger number of features may have higher reserved price as
    the collecting cost ... is higher"* — modelled affine in bundle
    size plus non-negative noise (idiosyncratic collection costs).

    Under perfect performance information the data party also *knows*
    each bundle's ΔG (§3.4), so a rational seller prices quality in:
    ``rate_value``/``base_value`` add a premium proportional to the
    bundle's gain relative to the best on sale.  Pass ``gains`` to
    enable the value component (both default to pure cost pricing).
    """
    require(rate_floor > 0, "rate_floor must be > 0")
    require(base_floor >= 0, "base_floor must be >= 0")
    if rate_value or base_value:
        require(gains is not None, "value-aware pricing needs the gains mapping")
    gen = as_generator(rng)
    top = 0.0
    if gains:
        top = max(max(g, 0.0) for g in gains.values())
    prices: dict[FeatureBundle, ReservedPrice] = {}
    for bundle in bundles:
        rate = rate_floor + rate_per_feature * bundle.size
        base = base_floor + base_per_feature * bundle.size
        if (rate_value or base_value) and top > 0:
            assert gains is not None
            quality = max(gains.get(bundle, 0.0), 0.0) / top
            rate += rate_value * quality
            base += base_value * quality
        if rate_noise:
            rate += float(np.abs(gen.normal(0.0, rate_noise)))
        if base_noise:
            base += float(np.abs(gen.normal(0.0, base_noise)))
        prices[bundle] = ReservedPrice(rate=rate, base=base)
    return prices
