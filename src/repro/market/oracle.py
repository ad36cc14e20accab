"""The performance-gain oracle: the trusted platform of §3.4.

Perfect performance information is *"facilitated through the
involvement of a trustworthy third party, such as a trading platform,
which can conduct pre-bargaining training for both parties"*.  The
oracle plays that platform: it runs one VFL course per catalogued
bundle up front and answers ΔG queries during bargaining (counting the
queries, which ground the platform-fee cost models).

For unit tests and synthetic markets, :meth:`PerformanceOracle.from_gains`
builds an oracle from a plain ``bundle -> ΔG`` mapping without any VFL.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.data.partition import PartitionedDataset
from repro.market.bundle import FeatureBundle
from repro.utils.validation import require
from repro.vfl.runner import isolated_performance, run_vfl

if TYPE_CHECKING:
    from repro.oracle_factory.cache import DatasetRecipe

__all__ = [
    "MemoisedOracle",
    "PerformanceOracle",
    "repeat_course_seeds",
    "synthetic_gains",
]


def synthetic_gains(
    sizes: np.ndarray, *, n_features: int, scale: float, rng: np.random.Generator
) -> np.ndarray:
    """The synthetic catalogue gain model: sizes drive gains.

    Bundle sizes yield diminishing returns with idiosyncratic quality
    noise at magnitude ``scale``, mirroring real oracles' landscapes.
    The single definition shared by catalogue-only markets
    (:meth:`repro.market.market.Market.from_spec`) and the population
    sampler (:func:`repro.simulate.population.sample_population`), so
    the two can never drift apart.
    """
    gains = (
        scale
        * (np.asarray(sizes, dtype=float) / n_features) ** 0.7
        * np.exp(rng.normal(0.0, 0.25, size=len(sizes)))
    )
    return np.maximum(gains, 0.02 * scale)


def repeat_course_seeds(seed: object, n_repeats: int) -> list[object]:
    """Per-repeat course seeds: repeat 0 keeps the root seed verbatim.

    The single source of the derivation — the serial reference path,
    the oracle factory's course grid, and its cache fingerprints all
    key off these values, so they must never drift apart.
    """
    return [seed if r == 0 else f"{seed}/{r}" for r in range(n_repeats)]


class PerformanceOracle:
    """Pre-computed ΔG for every bundle in a market's catalogue."""

    def __init__(
        self,
        bundles: list[FeatureBundle],
        gains: dict[FeatureBundle, float],
        *,
        isolated: float = float("nan"),
        base_model: str = "synthetic",
    ):
        require(bool(bundles), "oracle needs at least one bundle")
        missing = [b for b in bundles if b not in gains]
        require(not missing, f"gains missing for bundles: {missing[:3]}")
        self.bundles = list(bundles)
        self._gains = dict(gains)
        self.isolated = float(isolated)
        self.base_model = base_model
        self.query_count = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_gains(cls, gains: dict[FeatureBundle, float]) -> "PerformanceOracle":
        """Synthetic oracle from a plain mapping (no VFL executed)."""
        return cls(list(gains), dict(gains))

    @classmethod
    def build(
        cls,
        dataset: PartitionedDataset | DatasetRecipe,
        bundles: list[FeatureBundle],
        *,
        base_model: str = "random_forest",
        model_params: dict | None = None,
        seed: object = 0,
        n_repeats: int = 1,
        jobs: int = 1,
        cache: object = None,
    ) -> "PerformanceOracle":
        """Run VFL courses per bundle (the platform's pre-training).

        ``n_repeats > 1`` averages each bundle's ΔG over independently
        seeded training runs — the platform reduces evaluation noise so
        the disclosed gains are not winner's-curse inflated across the
        catalogue.

        Delegates to :func:`repro.oracle_factory.factory.build_oracle`:
        shared incremental binning, optional process parallelism
        (``jobs``) and an optional persistent gain ``cache`` (a
        :class:`~repro.oracle_factory.cache.GainCache`).  Gains are
        bit-identical to :meth:`build_serial_reference` for every
        ``jobs``/``cache`` combination; the returned oracle carries a
        ``build_report`` attribute with timings and cache statistics.
        """
        from repro.oracle_factory.factory import build_oracle

        oracle, _ = build_oracle(
            dataset,
            bundles,
            base_model=base_model,
            model_params=model_params,
            seed=seed,
            n_repeats=n_repeats,
            jobs=jobs,
            cache=cache,
        )
        return oracle

    @classmethod
    def build_serial_reference(
        cls,
        dataset: PartitionedDataset,
        bundles: list[FeatureBundle],
        *,
        base_model: str = "random_forest",
        model_params: dict | None = None,
        seed: object = 0,
        n_repeats: int = 1,
    ) -> "PerformanceOracle":
        """The seed serial build: one from-scratch VFL course per cell.

        Kept verbatim as the semantic reference for the oracle factory —
        equivalence tests and ``benchmarks/bench_oracle_build.py`` pin
        :meth:`build` against it, course for course.
        """
        require(bool(bundles), "oracle needs at least one bundle")
        require(n_repeats >= 1, "n_repeats must be >= 1")
        seeds = repeat_course_seeds(seed, n_repeats)
        m0s = [
            isolated_performance(
                dataset, base_model=base_model, model_params=model_params, seed=s
            )
            for s in seeds
        ]
        gains: dict[FeatureBundle, float] = {}
        for bundle in bundles:
            values = [
                run_vfl(
                    dataset,
                    bundle.indices,
                    base_model=base_model,
                    model_params=model_params,
                    seed=s,
                    m0=m0,
                ).delta_g
                for s, m0 in zip(seeds, m0s)
            ]
            gains[bundle] = float(np.mean(values))
        return cls(
            bundles, gains, isolated=float(np.mean(m0s)), base_model=base_model
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def delta_g(self, bundle: FeatureBundle) -> float:
        """ΔG of one catalogued bundle (counts as a platform query)."""
        require(bundle in self._gains, f"bundle {bundle.label()} not in catalogue")
        self.query_count += 1
        return self._gains[bundle]

    def gains(self) -> dict[FeatureBundle, float]:
        """A copy of the full catalogue (the |F| values of §3.4)."""
        self.query_count += len(self._gains)
        return dict(self._gains)

    @property
    def max_gain(self) -> float:
        """ΔG of the best bundle on sale."""
        return max(self._gains.values())

    @property
    def min_gain(self) -> float:
        """ΔG of the weakest bundle on sale."""
        return min(self._gains.values())

    def best_bundle(self) -> FeatureBundle:
        """The bundle achieving :attr:`max_gain`."""
        return max(self._gains, key=lambda b: self._gains[b])

    def quantile_gain(self, q: float) -> float:
        """A quantile of the gain distribution (used to pick targets)."""
        return float(np.quantile(list(self._gains.values()), q))

    def __len__(self) -> int:
        return len(self.bundles)


class MemoisedOracle:
    """Caches another oracle's ΔG answers across many concurrent games.

    A population of bargaining sessions trading the same catalogue asks
    the platform for the same bundles over and over — each of which, on
    a real deployment, is a pre-bargaining VFL course.  Wrapping the
    shared oracle memoises those answers: the first query per bundle
    hits the inner oracle, every later one is a dictionary lookup.

    ``query_count``/``hit_count`` expose how much platform work the
    cache saved (the :class:`repro.simulate.SessionPool` reports them).
    The wrapper answers only ``delta_g``, the one query a bargaining
    engine makes; catalogue reads go to the inner oracle.
    """

    def __init__(self, inner: PerformanceOracle):
        self.inner = inner
        self._cache: dict[FeatureBundle, float] = {}
        self.query_count = 0
        self.hit_count = 0

    def delta_g(self, bundle: FeatureBundle) -> float:
        """ΔG of one bundle; answered from cache after the first query."""
        self.query_count += 1
        if bundle in self._cache:
            self.hit_count += 1
            return self._cache[bundle]
        value = self.inner.delta_g(bundle)
        self._cache[bundle] = value
        return value

    def queried_bundles(self) -> list[FeatureBundle]:
        """Every distinct bundle answered so far (cached keys)."""
        return list(self._cache)
