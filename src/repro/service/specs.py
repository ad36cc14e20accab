"""Typed job specs: the declarative layer every front door shares.

A spec is a frozen dataclass that (1) validates at construction against
the live registries, (2) round-trips a canonical plain dict
(:meth:`to_dict`/:meth:`from_dict` — the JSON shape ``repro serve``
accepts), and (3) exposes a content :meth:`digest` used as the cache
key wherever the stack memoises work: the process-level market cache in
:mod:`repro.experiments.runner`, the :class:`~repro.service.manager.MarketPool`
shared by concurrent sessions, and (via the same
:mod:`repro.utils.canonical` helper) the oracle factory's persistent
:class:`~repro.oracle_factory.cache.GainCache` fingerprints.

* :class:`MarketSpec` — one standing market (dataset, base model,
  catalogue geometry, oracle-build execution knobs).
* :class:`SessionSpec` — one bargaining session on a market (strategy
  pair, information setting, per-session seed, cost schedules).
* :class:`SimulationSpec` — one population-simulation job
  (:mod:`repro.simulate` over a preset- or oracle-anchored catalogue).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any

from repro.service import registry
from repro.utils.canonical import content_digest
from repro.utils.validation import require

if TYPE_CHECKING:
    from repro.market.costs import CostModel
    from repro.oracle_factory.cache import GainCache
    from repro.simulate.population import PopulationSpec

__all__ = ["MarketSpec", "SessionSpec", "SimulationSpec"]

_INFORMATION = ("perfect", "imperfect")


def _check_plain_dict(value: dict[str, Any] | None, label: str) -> None:
    if value is None:
        return
    require(isinstance(value, dict), f"{label} must be a dict")
    require(
        all(isinstance(k, str) for k in value),
        f"{label} keys must be strings",
    )


def _reject_unknown_keys(cls: Any, payload: dict[str, Any]) -> None:
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(payload) - known)
    require(isinstance(payload, dict), f"{cls.__name__} payload must be a dict")
    require(
        not unknown,
        f"unknown {cls.__name__} keys {unknown}; known: {sorted(known)}",
    )


def _check_secure(secure: object, key_bits: object) -> None:
    require(isinstance(secure, bool), "secure must be a bool")
    require(isinstance(key_bits, int) and not isinstance(key_bits, bool),
            "key_bits must be an int")
    # 128 is the floor at which the blinded-comparison fixed-point
    # products stay inside the plaintext space; 4096 bounds keygen cost.
    require(128 <= key_bits <= 4096, "key_bits must be in [128, 4096]")


def _secure_dict(secure: bool, key_bits: int) -> dict[str, Any]:
    """The ``secure``/``key_bits`` wire keys, omitted at their defaults
    so pre-secure payloads and spec digests are unchanged."""
    if not secure and key_bits == 256:
        return {}
    return {"secure": secure, "key_bits": key_bits}


def _mix_triples(value: object, label: str) -> tuple[tuple[Any, ...], ...] | None:
    """Normalise a JSON list-of-lists mix back into tuples."""
    if value is None:
        return None
    require(isinstance(value, (list, tuple)), f"{label} must be a sequence")
    return tuple(tuple(entry) for entry in value)


@dataclass(frozen=True)
class MarketSpec:
    """One standing market, fully described.

    Identity fields (dataset, base model, seed, scale, catalogue size,
    model/config overrides) determine the market's *content*; execution
    fields (``jobs``, ``cache_dir``, ``no_cache``) determine how the
    oracle is built and persisted.  :meth:`digest` covers both — the
    process market cache must not hand a ``no_cache`` caller a market
    built under different persistence settings — while
    :meth:`identity_digest` covers identity only (two builds differing
    just in ``jobs`` produce bit-identical markets).
    """

    dataset: str
    base_model: str = "random_forest"
    seed: int = 0
    quick: bool = True
    n_bundles: int | None = None
    model_params: dict[str, Any] | None = None
    config_overrides: dict[str, Any] | None = None
    jobs: int = 1
    cache_dir: str | None = None
    no_cache: bool = False

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Registry membership + range checks; raises ``ValueError``."""
        require(self.dataset in registry.DATASETS,
                f"unknown dataset {self.dataset!r}; "
                f"known: {list(registry.dataset_names())}")
        require(self.base_model in registry.BASE_MODELS,
                f"unknown base model {self.base_model!r}; "
                f"known: {list(registry.base_model_names())}")
        require(isinstance(self.seed, int), "seed must be an int")
        require(self.n_bundles is None or self.n_bundles >= 2,
                "n_bundles must be >= 2")
        require(isinstance(self.jobs, int) and self.jobs >= 0,
                "jobs must be an int >= 0")
        _check_plain_dict(self.model_params, "model_params")
        _check_plain_dict(self.config_overrides, "config_overrides")

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Canonical plain-dict form (the ``POST /markets`` JSON shape)."""
        return {
            "dataset": self.dataset,
            "base_model": self.base_model,
            "seed": self.seed,
            "quick": self.quick,
            "n_bundles": self.n_bundles,
            "model_params": dict(self.model_params) if self.model_params else None,
            "config_overrides": (
                dict(self.config_overrides) if self.config_overrides else None
            ),
            "jobs": self.jobs,
            "cache_dir": self.cache_dir,
            "no_cache": self.no_cache,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "MarketSpec":
        """Inverse of :meth:`to_dict`; unknown keys are hard errors."""
        _reject_unknown_keys(cls, payload)
        return cls(**payload)

    # ------------------------------------------------------------------
    def digest(self) -> str:
        """Content digest over the full spec (the market-cache key)."""
        return content_digest(self.to_dict())

    # ------------------------------------------------------------------
    def entry(self) -> "registry.DatasetEntry":
        """The registered dataset entry this spec builds on."""
        return registry.DATASETS.get(self.dataset)

    def cache(self) -> "GainCache | None":
        """The :class:`GainCache` implied by the execution knobs."""
        if self.no_cache:
            return None
        from repro.oracle_factory.cache import GainCache, default_cache_dir

        return GainCache(self.cache_dir or default_cache_dir())


@dataclass(frozen=True)
class SessionSpec:
    """One bargaining session on a market.

    ``market`` is either a full :class:`MarketSpec` or the digest of a
    market already resident in the pool (the ``POST /markets`` reply).
    ``seed``/``run`` identify the session's RNG stream: ``run=None``
    seeds the engine with ``seed`` directly; ``run=i`` derives the
    i-th repeat stream exactly as
    :meth:`repro.market.market.Market.bargain_many` does, so a batch of
    sessions ``run=0..n-1`` reproduces ``bargain_many(n)`` bit for bit.

    ``cost_task``/``cost_data`` are ``(kind, a)`` pairs over the
    registered cost kinds (§3.4.4's additive bargaining costs).

    ``secure`` settles an accepted outcome through the §3.6 Paillier
    path (:mod:`repro.security.batch`): the reported payment is the
    fixed-point secure payment, value-identical to the serial secure
    protocol, with the ``key_bits`` keypair derived deterministically
    from ``seed`` so any process can rebuild it from the spec.
    """

    market: MarketSpec | str
    task: str = "strategic"
    data: str = "strategic"
    information: str = "perfect"
    seed: int = 0
    run: int | None = None
    cost_task: tuple[str, float] | None = None
    cost_data: tuple[str, float] | None = None
    config_overrides: dict[str, Any] | None = None
    secure: bool = False
    key_bits: int = 256

    def __post_init__(self) -> None:
        if isinstance(self.cost_task, list):
            object.__setattr__(self, "cost_task", tuple(self.cost_task))
        if isinstance(self.cost_data, list):
            object.__setattr__(self, "cost_data", tuple(self.cost_data))
        self.validate()

    def validate(self) -> None:
        """Registry membership + shape checks; raises ``ValueError``."""
        require(isinstance(self.market, (MarketSpec, str)),
                "market must be a MarketSpec or a market digest string")
        require(self.task in registry.TASK_STRATEGIES,
                f"unknown task strategy {self.task!r}; "
                f"known: {list(registry.task_strategy_names())}")
        require(self.data in registry.DATA_STRATEGIES,
                f"unknown data strategy {self.data!r}; "
                f"known: {list(registry.data_strategy_names())}")
        require(self.information in _INFORMATION,
                f"information must be one of {_INFORMATION}")
        require(isinstance(self.seed, int), "seed must be an int")
        require(self.run is None or (isinstance(self.run, int) and self.run >= 0),
                "run must be None or an int >= 0")
        for label, cost in (("cost_task", self.cost_task),
                            ("cost_data", self.cost_data)):
            if cost is None:
                continue
            require(len(cost) == 2, f"{label} must be a (kind, a) pair")
            kind, a = cost
            entry = registry.COSTS.get(kind)  # raises on unknown kinds
            entry.validate(float(a))
        _check_plain_dict(self.config_overrides, "config_overrides")
        _check_secure(self.secure, self.key_bits)

    # ------------------------------------------------------------------
    def engine_seed(self) -> object:
        """The seed object handed to the engine's strategy streams."""
        if self.run is None:
            return self.seed
        from repro.utils.rng import spawn

        return spawn(self.seed, "run", self.run)

    def cost_models(self) -> "tuple[CostModel | None, CostModel | None]":
        """``(cost_task, cost_data)`` as instantiated models."""

        def build(pair: tuple[str, float] | None) -> "CostModel | None":
            if pair is None:
                return None
            kind, a = pair
            return registry.build_cost(kind, float(a))

        return build(self.cost_task), build(self.cost_data)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Canonical plain-dict form (the ``POST /sessions`` JSON shape)."""
        return {
            "market": (
                self.market if isinstance(self.market, str)
                else self.market.to_dict()
            ),
            "task": self.task,
            "data": self.data,
            "information": self.information,
            "seed": self.seed,
            "run": self.run,
            "cost_task": list(self.cost_task) if self.cost_task else None,
            "cost_data": list(self.cost_data) if self.cost_data else None,
            "config_overrides": (
                dict(self.config_overrides) if self.config_overrides else None
            ),
            # Emitted only off-default: plain specs keep their seed wire
            # shape and digest, so pre-secure job records stay addressable.
            **_secure_dict(self.secure, self.key_bits),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "SessionSpec":
        """Inverse of :meth:`to_dict`; unknown keys are hard errors."""
        _reject_unknown_keys(cls, payload)
        payload = dict(payload)
        market = payload.get("market")
        if isinstance(market, dict):
            payload["market"] = MarketSpec.from_dict(market)
        return cls(**payload)

    def digest(self) -> str:
        """Content digest over the full spec."""
        return content_digest(self.to_dict())


@dataclass(frozen=True)
class SimulationSpec:
    """One population-simulation job over the :mod:`repro.simulate` stack.

    ``dataset=None`` runs on a synthetic catalogue anchored at
    ``preset`` (default ``synthetic``); with a dataset, the oracle
    factory builds (or replays from cache) a real pre-bargaining oracle
    and the population trades its catalogue.
    """

    sessions: int = 1000
    preset: str | None = None
    dataset: str | None = None
    base_model: str = "random_forest"
    seed: int = 0
    batch_size: int = 1024
    bins: int = 16
    strategy_mix: tuple[tuple[str, str, float], ...] | None = None
    cost_mix: tuple[tuple[str, float, float], ...] | None = None
    jobs: int = 1
    cache_dir: str | None = None
    no_cache: bool = False
    #: Settle accepted sessions through the batched §3.6 Paillier path
    #: (payments become the fixed-point secure payments).  Shards
    #: rebuild the ``key_bits`` keypair deterministically from ``seed``,
    #: so sharded secure jobs stay digest-equal to the single process.
    secure: bool = False
    key_bits: int = 256

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "strategy_mix", _mix_triples(self.strategy_mix, "strategy_mix")
        )
        object.__setattr__(
            self, "cost_mix", _mix_triples(self.cost_mix, "cost_mix")
        )
        self.validate()

    def validate(self) -> None:
        """Registry membership + range checks; raises ``ValueError``."""
        require(self.sessions >= 1, "sessions must be >= 1")
        require(self.batch_size >= 1, "batch_size must be >= 1")
        require(self.bins >= 1, "bins must be >= 1")
        require(self.preset is None or self.preset in registry.DATASETS,
                f"unknown preset {self.preset!r}; "
                f"known: {list(registry.preset_names())}")
        if self.dataset is not None:
            require(self.dataset in registry.DATASETS,
                    f"unknown dataset {self.dataset!r}; "
                    f"known: {list(registry.dataset_names())}")
        require(self.base_model in registry.BASE_MODELS,
                f"unknown base model {self.base_model!r}; "
                f"known: {list(registry.base_model_names())}")
        require(isinstance(self.seed, int), "seed must be an int")
        require(isinstance(self.jobs, int) and self.jobs >= 0,
                "jobs must be an int >= 0")
        _check_secure(self.secure, self.key_bits)
        # The population spec re-validates mixes against the strategy
        # and cost registries; constructing it here surfaces bad mixes
        # at spec time rather than mid-run.
        self.population_spec()

    # ------------------------------------------------------------------
    def resolved_preset(self) -> str:
        """The calibration anchor: ``preset``, else the dataset, else synthetic."""
        return self.preset or self.dataset or "synthetic"

    def population_spec(self) -> "PopulationSpec":
        """The :class:`~repro.simulate.population.PopulationSpec` implied."""
        from repro.simulate.population import PopulationSpec

        overrides: dict[str, Any] = {"preset": self.resolved_preset()}
        if self.strategy_mix:
            overrides["strategy_mix"] = self.strategy_mix
        if self.cost_mix:
            overrides["cost_mix"] = self.cost_mix
        return PopulationSpec(**overrides)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Canonical plain-dict form."""
        return {
            "sessions": self.sessions,
            "preset": self.preset,
            "dataset": self.dataset,
            "base_model": self.base_model,
            "seed": self.seed,
            "batch_size": self.batch_size,
            "bins": self.bins,
            "strategy_mix": (
                [list(t) for t in self.strategy_mix] if self.strategy_mix else None
            ),
            "cost_mix": (
                [list(t) for t in self.cost_mix] if self.cost_mix else None
            ),
            "jobs": self.jobs,
            "cache_dir": self.cache_dir,
            "no_cache": self.no_cache,
            **_secure_dict(self.secure, self.key_bits),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "SimulationSpec":
        """Inverse of :meth:`to_dict`; unknown keys are hard errors."""
        _reject_unknown_keys(cls, payload)
        return cls(**payload)

    def digest(self) -> str:
        """Content digest over the full spec."""
        return content_digest(self.to_dict())
