"""Bargaining-cost models (§3.4.4).

Costs accumulate with the bargaining round ``T``: platform query fees,
VFL communication and training cost.  The paper analyses constant,
linear ``C(T) = aT`` and exponential ``C(T) = a^T`` schedules (Table 3),
applying them additively to each party's final revenue.
"""

from __future__ import annotations

from repro.utils.validation import check_positive, require

__all__ = [
    "ConstantCost",
    "CostModel",
    "ExponentialCost",
    "LinearCost",
    "NoCost",
    "ScaledCost",
]


class CostModel:
    """Interface: cumulative bargaining cost after round ``T`` (1-based)."""

    def cost(self, round_number: int) -> float:  # pragma: no cover - interface
        raise NotImplementedError

    def __call__(self, round_number: int) -> float:
        require(round_number >= 0, "round_number must be >= 0")
        return self.cost(round_number)


class NoCost(CostModel):
    """Frictionless bargaining (the paper's default §4.2 setting)."""

    def cost(self, round_number: int) -> float:
        return 0.0


class ConstantCost(CostModel):
    """Flat per-game cost, independent of duration (Props. 3.1-3.2)."""

    def __init__(self, value: float):
        require(value >= 0, "constant cost must be >= 0")
        self.value = float(value)

    def cost(self, round_number: int) -> float:
        return self.value


class LinearCost(CostModel):
    """``C(T) = a·T`` — per-round fees (platform queries, communication)."""

    def __init__(self, a: float):
        self.a = check_positive(a, "a")

    def cost(self, round_number: int) -> float:
        return self.a * round_number


class ExponentialCost(CostModel):
    """``C(T) = a^T`` — compounding impatience (discount-factor style)."""

    def __init__(self, a: float):
        require(a > 1.0, f"exponential cost needs a > 1, got {a}")
        self.a = float(a)

    def cost(self, round_number: int) -> float:
        return self.a**round_number


class ScaledCost(CostModel):
    """``s · C(T)`` — e.g. the paper's Table 3 uses ``C_t = C_d = C(T)/10``."""

    def __init__(self, inner: CostModel, scale: float):
        require(scale >= 0, "scale must be >= 0")
        self.inner = inner
        self.scale = float(scale)

    def cost(self, round_number: int) -> float:
        return self.scale * self.inner.cost(round_number)

