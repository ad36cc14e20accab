"""Per-dataset market calibrations.

The paper reports absolute monetary magnitudes per dataset (Figures
2-3, Tables 3-4); these presets encode utility rates, budgets, opening
prices and cost-related reserved-price scales that land the reproduced
magnitudes in the same ranges (see DESIGN.md §6 for the calibration
arithmetic).  A :class:`~repro.service.specs.MarketSpec` overrides the
market config (``config_overrides``), the base-model parameters
(``model_params``) and the catalogue size (``n_bundles``) per market.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.market.config import MarketConfig

__all__ = ["MARKET_PRESETS", "MarketPreset"]


@dataclass(frozen=True)
class MarketPreset:
    """Everything needed to stand up a dataset's market.

    Attributes
    ----------
    config:
        The bargaining constants (``u``, budget, opening quote, ε's).
    reserved_price_params:
        Keyword arguments for
        :func:`repro.market.pricing.cost_based_reserved_prices`.
    n_bundles:
        Catalogue size placed on sale by the data party.
    quick_n_samples / full_n_samples:
        Dataset rows used in quick mode vs paper scale.
    rf_params / mlp_params:
        Base-model overrides applied when building the ΔG oracle.
    """

    config: MarketConfig
    reserved_price_params: dict = field(default_factory=dict)
    n_bundles: int = 24
    quick_n_samples: int | None = None
    full_n_samples: int | None = None
    rf_params: dict = field(default_factory=dict)
    mlp_params: dict = field(default_factory=dict)


MARKET_PRESETS: dict[str, MarketPreset] = {
    # Titanic: large relative gains (ΔG ~ 0.1-0.2), u ~ 1000 implied by
    # the paper's net profit ~ 170 at ΔG ~ 0.17 with payment ~ 3.
    "titanic": MarketPreset(
        config=MarketConfig(
            utility_rate=1000.0,
            budget=4.5,
            initial_rate=7.0,
            initial_base=1.05,
            eps_d=1e-3,
            eps_t=1e-3,
            max_rounds=500,
        ),
        reserved_price_params={
            "rate_floor": 5.5,
            "rate_per_feature": 0.10,
            "base_floor": 0.85,
            "base_per_feature": 0.012,
            "rate_value": 2.2,
            "base_value": 0.35,
            "rate_noise": 0.30,
            "base_noise": 0.02,
        },
        n_bundles=24,
        quick_n_samples=891,
        full_n_samples=891,
        rf_params={"n_estimators": 15, "max_depth": 8},
        mlp_params={"epochs": 60, "batch_size": 128},
    ),
    # Credit: tiny relative gains (ΔG ~ 0.005); u ~ 550 implied by
    # Table 4's net profit ~ 4 at ΔG ~ 0.01 with payment ~ 1.4.
    "credit": MarketPreset(
        config=MarketConfig(
            utility_rate=550.0,
            budget=3.0,
            initial_rate=6.5,
            initial_base=1.0,
            eps_d=1e-4,
            eps_t=1e-4,
            max_rounds=500,
        ),
        reserved_price_params={
            "rate_floor": 5.5,
            "rate_per_feature": 0.08,
            "base_floor": 0.85,
            "base_per_feature": 0.012,
            "rate_value": 3.0,
            "base_value": 0.40,
            "rate_noise": 0.30,
            "base_noise": 0.02,
        },
        n_bundles=24,
        quick_n_samples=2500,
        full_n_samples=30_000,
        rf_params={"n_estimators": 12, "max_depth": 8},
        mlp_params={
            "epochs": 25, "batch_size": 512, "lr": 5e-3,
            "embed_dim": 32, "top_hidden": 16,
        },
    ),
    # Adult: moderate gains (ΔG ~ 0.01-0.04); u ~ 80 implied by Table
    # 4's net profit ~ 0.6 at ΔG ~ 0.03 with payment ~ 1.8.
    "adult": MarketPreset(
        config=MarketConfig(
            utility_rate=80.0,
            budget=3.0,
            initial_rate=6.9,
            initial_base=0.72,
            eps_d=5e-4,
            eps_t=5e-4,
            max_rounds=500,
        ),
        reserved_price_params={
            "rate_floor": 5.2,
            "rate_per_feature": 0.05,
            "base_floor": 0.40,
            "base_per_feature": 0.012,
            "rate_value": 3.5,
            "base_value": 0.85,
            "rate_noise": 0.20,
            "base_noise": 0.015,
        },
        n_bundles=24,
        quick_n_samples=2500,
        full_n_samples=48_842,
        rf_params={"n_estimators": 12, "max_depth": 8},
        mlp_params={
            "epochs": 60, "batch_size": 256, "lr": 5e-3,
            "embed_dim": 32, "top_hidden": 16,
        },
    ),
}

