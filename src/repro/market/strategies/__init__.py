"""Bargaining strategies: strategic, baselines, and estimation-based."""

from repro.market.strategies.base import (
    DataResponse,
    DataStrategy,
    TaskDecision,
    TaskStrategy,
)
from repro.market.strategies.baselines import (
    IncreasePriceTaskParty,
    RandomBundleDataParty,
)
from repro.market.strategies.data_party import StrategicDataParty
from repro.market.strategies.imperfect import ImperfectDataParty, ImperfectTaskParty
from repro.market.strategies.learned import LearnedTaskParty
from repro.market.strategies.task_party import StrategicTaskParty

__all__ = [
    "DataResponse",
    "DataStrategy",
    "ImperfectDataParty",
    "ImperfectTaskParty",
    "IncreasePriceTaskParty",
    "LearnedTaskParty",
    "RandomBundleDataParty",
    "StrategicDataParty",
    "StrategicTaskParty",
    "TaskDecision",
    "TaskStrategy",
]
