"""The `Market` facade: one object per (dataset, base model) market.

Typical use::

    market = Market.for_dataset("titanic", base_model="random_forest")
    outcome = market.bargain(seed=0)                       # Strategic
    outcome = market.bargain(task="increase_price", seed=0)  # baseline
    outcome = market.bargain(information="imperfect", seed=0)

or, spec-first (what every service front door does)::

    from repro.service import MarketSpec
    market = Market.from_spec(MarketSpec(dataset="titanic"))

``from_spec`` assembles the whole stack: registered dataset ->
vertical partition -> bundle catalogue -> ΔG oracle (the trusted
platform's pre-bargaining VFL runs) -> cost-based reserved prices ->
calibrated :class:`~repro.market.config.MarketConfig`.  Datasets and
party strategies resolve through :mod:`repro.service.registry`, so
registered extensions plug into the facade with no changes here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.data.partition import PartitionedDataset
from repro.market.bundle import FeatureBundle, sample_bundles
from repro.market.config import MarketConfig
from repro.market.costs import CostModel
from repro.market.engine import BargainingEngine, BargainOutcome
from repro.market.oracle import PerformanceOracle, synthetic_gains
from repro.market.pricing import ReservedPrice, cost_based_reserved_prices
from repro.utils.rng import spawn
from repro.utils.validation import require

if TYPE_CHECKING:
    from repro.oracle_factory.cache import DatasetRecipe

__all__ = ["Market"]

_DEFAULT_CACHE = object()  # sentinel: "derive the gain cache from the spec"

# Synthetic (catalogue-only) markets share the population sampler's
# geometry: bundle sizes drive gains with diminishing returns.
_SYNTHETIC_N_FEATURES = 12


@dataclass
class Market:
    """A standing VFL feature market for one dataset and base model."""

    oracle: PerformanceOracle
    reserved_prices: dict[FeatureBundle, ReservedPrice]
    config: MarketConfig
    name: str = "market"
    recipe: DatasetRecipe | None = field(default=None, repr=False)
    n_data_features: int = 0

    def __post_init__(self) -> None:
        missing = [b for b in self.oracle.bundles if b not in self.reserved_prices]
        require(not missing, f"reserved prices missing for {missing[:3]}")
        if self.n_data_features == 0:
            self.n_data_features = 1 + max(
                max(b.indices) for b in self.oracle.bundles
            )

    @property
    def dataset(self) -> PartitionedDataset | None:
        """The prepared rows (``None`` for catalogue-only markets).

        Built on first read: bargaining needs only the oracle, so a
        market whose gains came from the cache synthesises its rows
        only for callers that read them (e.g. verification).
        """
        return None if self.recipe is None else self.recipe.dataset

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec, *, cache: object = _DEFAULT_CACHE) -> "Market":
        """Build the full market stack described by a ``MarketSpec``.

        The dataset (and its preset calibration) resolves through the
        service registry, so registered custom datasets build exactly
        like the paper's three.  ``cache`` overrides the gain cache the
        spec implies (``for_dataset`` threads its legacy argument
        through); the resulting market is identical for every
        ``jobs``/``cache`` combination.
        """
        entry = spec.entry()
        preset = entry.preset
        seed = spec.seed
        n_bundles = spec.n_bundles or preset.n_bundles
        recipe = None
        if entry.synthetic:
            oracle = cls._synthetic_oracle(spec.dataset, entry, n_bundles, seed)
            n_data_features = _SYNTHETIC_N_FEATURES
        else:
            # Catalogue-only markets never load the oracle factory.
            from repro.oracle_factory.cache import DatasetRecipe
            from repro.service.registry import BASE_MODELS

            recipe = DatasetRecipe(
                spec.dataset,
                entry.loader,
                seed=seed,
                n_samples=(
                    preset.quick_n_samples if spec.quick else preset.full_n_samples
                ),
            )
            n_data_features = recipe.d_data
            catalogue = sample_bundles(
                n_data_features,
                n_bundles,
                rng=spawn(seed, spec.dataset, "bundles"),
                min_size=1,
            )
            params = BASE_MODELS.get(spec.base_model).preset_params(preset)
            if spec.model_params:
                params.update(spec.model_params)
            oracle = PerformanceOracle.build(
                recipe,
                catalogue,
                base_model=spec.base_model,
                model_params=params,
                seed=seed,
                jobs=spec.jobs,
                cache=spec.cache() if cache is _DEFAULT_CACHE else cache,
            )
        reserved = cost_based_reserved_prices(
            oracle.bundles,
            rng=spawn(seed, spec.dataset, "reserved"),
            gains={b: g for b, g in oracle.gains().items()},
            **preset.reserved_price_params,
        )
        config = preset.config
        if config.target_gain is None:
            # Fix the target up front so every strategy variant (and the
            # imperfect-information setting) shares the same opening state.
            target = float(
                np.quantile(
                    [max(g, 0.0) for g in oracle.gains().values()],
                    config.target_quantile,
                )
            )
            require(target > 0, f"{spec.dataset}: no bundle yields a positive gain")
            # Keep escalation headroom above the opening cap: the min-cap
            # concession step scales with (budget - cap), so a budget too
            # close to the eventual settlement price makes the end-game
            # crawl (geometrically shrinking concessions).
            opening_cap = config.initial_base + config.initial_rate * target
            config = config.with_overrides(
                target_gain=target,
                budget=max(config.budget, 2.0 * opening_cap),
            )
        if spec.config_overrides:
            config = config.with_overrides(**spec.config_overrides)
        return cls(
            oracle=oracle,
            reserved_prices=reserved,
            config=config,
            name=f"{spec.dataset}/{spec.base_model}"
            if not entry.synthetic
            else spec.dataset,
            recipe=recipe,
            n_data_features=n_data_features,
        )

    @classmethod
    def _synthetic_oracle(
        cls, name: str, entry, n_bundles: int, seed: int
    ) -> PerformanceOracle:
        """A catalogue-only oracle: no dataset, no VFL courses.

        Mirrors the population sampler's synthetic catalogue model —
        bundle sizes drive gains with diminishing returns and
        idiosyncratic quality noise at the entry's ``gain_scale``.
        """
        bundles = sample_bundles(
            _SYNTHETIC_N_FEATURES,
            n_bundles,
            rng=spawn(seed, name, "bundles"),
            min_size=1,
        )
        gains = synthetic_gains(
            np.array([b.size for b in bundles], dtype=float),
            n_features=_SYNTHETIC_N_FEATURES,
            scale=entry.gain_scale,
            rng=spawn(seed, name, "gains"),
        )
        return PerformanceOracle.from_gains(
            {b: float(g) for b, g in zip(bundles, gains)}
        )

    @classmethod
    def for_dataset(
        cls,
        dataset_name: str,
        *,
        base_model: str = "random_forest",
        quick: bool = True,
        seed: int = 0,
        n_bundles: int | None = None,
        config_overrides: dict | None = None,
        model_params: dict | None = None,
        jobs: int = 1,
        cache: object = None,
    ) -> "Market":
        """Build the full market stack for a registered dataset.

        Legacy keyword front door over :meth:`from_spec`.  ``quick=True``
        uses reduced sample counts so the platform's pre-bargaining VFL
        sweeps finish in seconds; ``quick=False`` restores paper-scale
        rows.  ``jobs`` and ``cache`` go to the oracle factory (worker
        processes / persistent gain cache); the resulting market is
        identical for every combination.
        """
        from repro.service.specs import MarketSpec

        spec = MarketSpec(
            dataset=dataset_name.lower(),
            base_model=base_model,
            seed=seed,
            quick=quick,
            n_bundles=n_bundles,
            model_params=model_params,
            config_overrides=config_overrides,
            jobs=jobs,
            no_cache=cache is None,
        )
        # `cache` may be an arbitrary GainCache object; thread it
        # through verbatim rather than round-tripping a directory path.
        return cls.from_spec(spec, cache=cache)

    # ------------------------------------------------------------------
    # Bargaining
    # ------------------------------------------------------------------
    def build_engine(
        self,
        *,
        task: str = "strategic",
        data: str = "strategic",
        information: str = "perfect",
        seed: object = 0,
        cost_task: CostModel | None = None,
        cost_data: CostModel | None = None,
        config_overrides: dict | None = None,
    ) -> BargainingEngine:
        """Stand up one session's engine (strategies are single-use).

        ``task``/``data`` name registered party strategies
        (:mod:`repro.service.registry`); ``information="imperfect"``
        selects the estimator-guided pair for both sides (§3.5).  This
        is the seam the :class:`~repro.service.manager.SessionManager`
        brokers sessions through.
        """
        require(
            information in ("perfect", "imperfect"),
            "information must be 'perfect' or 'imperfect'",
        )
        from repro.service.registry import (
            StrategyContext,
            build_data_strategy,
            build_task_strategy,
        )

        config = self.config
        if config_overrides:
            config = config.with_overrides(**config_overrides)
        if information == "imperfect":
            task, data = "imperfect", "imperfect"
        gains = {b: self.oracle._gains[b] for b in self.oracle.bundles}
        task_strategy = build_task_strategy(
            task,
            StrategyContext(
                config=config,
                gains=gains,
                reserved_prices=self.reserved_prices,
                n_features=self.n_data_features,
                cost_model=cost_task,
                rng=spawn(seed, "task", self.name),
            ),
        )
        data_strategy = build_data_strategy(
            data,
            StrategyContext(
                config=config,
                gains=gains,
                reserved_prices=self.reserved_prices,
                n_features=self.n_data_features,
                cost_model=cost_data,
                rng=spawn(seed, "data", self.name),
            ),
        )
        return BargainingEngine(
            task_strategy,
            data_strategy,
            self.oracle,
            utility_rate=config.utility_rate,
            cost_task=cost_task,
            cost_data=cost_data,
            reserved_prices=self.reserved_prices,
            max_rounds=config.max_rounds,
        )

    def bargain(
        self,
        *,
        task: str = "strategic",
        data: str = "strategic",
        information: str = "perfect",
        seed: object = 0,
        cost_task: CostModel | None = None,
        cost_data: CostModel | None = None,
        config_overrides: dict | None = None,
    ) -> BargainOutcome:
        """Play one bargaining game and return its outcome."""
        engine = self.build_engine(
            task=task,
            data=data,
            information=information,
            seed=seed,
            cost_task=cost_task,
            cost_data=cost_data,
            config_overrides=config_overrides,
        )
        return engine.run()

    def bargain_many(
        self,
        n_runs: int,
        *,
        base_seed: int = 0,
        **kwargs: object,
    ) -> list[BargainOutcome]:
        """Repeat :meth:`bargain` with per-run seeds (the paper uses 100)."""
        require(n_runs >= 1, "n_runs must be >= 1")
        return [
            self.bargain(seed=spawn(base_seed, "run", i), **kwargs)  # type: ignore[arg-type]
            for i in range(n_runs)
        ]
