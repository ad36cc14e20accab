"""The bargaining-based VFL feature market — the paper's contribution.

Layered as: goods (:mod:`~repro.market.bundle`), prices and the payment
function (:mod:`~repro.market.pricing`), participant objectives
(:mod:`~repro.market.objectives`), bargaining cost models
(:mod:`~repro.market.costs`; the cost *kinds* a session names are
built by :func:`repro.service.registry.build_cost`), the
trusted-platform ΔG oracle (:mod:`~repro.market.oracle`), termination
rules (:mod:`~repro.market.termination`), strategies
(:mod:`~repro.market.strategies`), the round-loop engine
(:mod:`~repro.market.engine`), and the :class:`~repro.market.market.Market`
facade tying a dataset's market together.  Thm 3.1, Props 3.1-3.2
(:mod:`~repro.market.equilibrium`) and §6's trusted evaluation
(:mod:`~repro.market.verification`) are made executable alongside.
"""

from repro.market.bundle import FeatureBundle, sample_bundles
from repro.market.config import MarketConfig
from repro.market.costs import (
    ConstantCost,
    CostModel,
    ExponentialCost,
    LinearCost,
    NoCost,
    ScaledCost,
)
from repro.market.engine import (
    BargainingEngine,
    BargainOutcome,
    EngineState,
    RoundRecord,
)
from repro.market.equilibrium import (
    epsilon_d_from_cost_tolerance,
    epsilon_t_from_cost_tolerance,
    equivalent_quote,
    is_equilibrium_price,
    select_dominant_quote,
)
from repro.market.estimation import DataGainEstimator, TaskGainEstimator
from repro.market.market import Market
from repro.market.objectives import break_even_gain, task_net_profit
from repro.market.oracle import MemoisedOracle, PerformanceOracle
from repro.market.presets import MARKET_PRESETS, MarketPreset
from repro.market.pricing import (
    QuotedPrice,
    ReservedPrice,
    cost_based_reserved_prices,
)
from repro.market.strategies import (
    ImperfectDataParty,
    ImperfectTaskParty,
    IncreasePriceTaskParty,
    LearnedTaskParty,
    RandomBundleDataParty,
    StrategicDataParty,
    StrategicTaskParty,
)
from repro.market.termination import Decision
from repro.market.verification import AuditResult, TrustedEvaluator, under_report

__all__ = [
    "AuditResult",
    "BargainOutcome",
    "BargainingEngine",
    "ConstantCost",
    "CostModel",
    "DataGainEstimator",
    "Decision",
    "EngineState",
    "ExponentialCost",
    "FeatureBundle",
    "ImperfectDataParty",
    "ImperfectTaskParty",
    "IncreasePriceTaskParty",
    "LearnedTaskParty",
    "LinearCost",
    "MARKET_PRESETS",
    "Market",
    "MarketConfig",
    "MarketPreset",
    "MemoisedOracle",
    "NoCost",
    "PerformanceOracle",
    "QuotedPrice",
    "RandomBundleDataParty",
    "ReservedPrice",
    "RoundRecord",
    "ScaledCost",
    "StrategicDataParty",
    "StrategicTaskParty",
    "TaskGainEstimator",
    "TrustedEvaluator",
    "break_even_gain",
    "cost_based_reserved_prices",
    "epsilon_d_from_cost_tolerance",
    "epsilon_t_from_cost_tolerance",
    "equivalent_quote",
    "is_equilibrium_price",
    "sample_bundles",
    "select_dominant_quote",
    "task_net_profit",
    "under_report",
]
