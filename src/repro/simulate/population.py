"""Population sampling: heterogeneous bargaining sessions at scale.

A production feature market does not play one negotiation — it serves a
*population* of concurrent buyers whose economics differ: utility
rates, budgets, opening quotes, termination tolerances, bargaining-cost
schedules and even strategy sophistication all vary across tenants.
:func:`sample_population` draws ``N`` such session specifications in one
vectorised pass from per-preset distributions anchored to the paper's
calibrations (:mod:`repro.market.presets`), so the whole population is
reproducible from ``(spec, seed)`` alone.

All sessions in a population trade the same catalogue against the same
trusted-platform oracle (the platform pre-computes each bundle's ΔG
once, §3.4); what varies per session is the buyer's economics, the
seller's idiosyncratic reserved prices, and the strategy/cost mix.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from repro.market.bundle import FeatureBundle, sample_bundles
from repro.market.config import MarketConfig
from repro.market.costs import CostModel
from repro.market.engine import BargainingEngine
from repro.market.oracle import PerformanceOracle, synthetic_gains
from repro.market.pricing import ReservedPrice
from repro.service import registry
from repro.utils.canonical import content_digest
from repro.utils.rng import spawn
from repro.utils.validation import require

__all__ = ["Population", "PopulationSpec", "sample_population"]

@dataclass(frozen=True)
class PopulationSpec:
    """Distributional description of a session population.

    Attributes
    ----------
    preset:
        Calibration anchor: one of the paper's datasets (``titanic``,
        ``credit``, ``adult``) or ``synthetic`` (no dataset needed).
    n_features / n_bundles:
        Catalogue geometry shared by every session.
    strategy_mix:
        ``(task_kind, data_kind, weight)`` triples; weights need not
        sum to one.  Kinds are ``strategic``/``increase_price`` for the
        task party and ``strategic``/``random_bundle`` for the data
        party.
    cost_mix:
        ``(kind, a, weight)`` triples over bargaining-cost schedules
        (``none``/``constant``/``linear``/``exponential``), applied to
        both parties as in the paper's Table 3.
    utility_jitter / rate_jitter / base_jitter / budget_jitter:
        Log-normal sigmas applied to the preset's ``u``, ``p^0``,
        ``P0^0`` and budget.
    eps_spread:
        Half-width, in decades, of the log-uniform spread applied to
        the preset's ``ε_d``/``ε_t``.
    target_quantile_range:
        Per-session target gains are quantiles of the shared catalogue
        drawn uniformly from this interval.
    max_rounds / n_price_samples:
        Protocol constants shared by every session.
    """

    preset: str = "synthetic"
    n_features: int = 12
    n_bundles: int = 24
    strategy_mix: tuple[tuple[str, str, float], ...] = (
        ("strategic", "strategic", 1.0),
    )
    cost_mix: tuple[tuple[str, float, float], ...] = (("none", 0.0, 1.0),)
    utility_jitter: float = 0.10
    rate_jitter: float = 0.05
    base_jitter: float = 0.05
    budget_jitter: float = 0.10
    eps_spread: float = 0.5
    target_quantile_range: tuple[float, float] = (0.70, 1.0)
    max_rounds: int = 500
    n_price_samples: int = 120

    def __post_init__(self) -> None:
        require(self.preset in registry.DATASETS,
                f"preset must be one of {list(registry.preset_names())}")
        require(self.n_features >= 1, "n_features must be >= 1")
        require(self.n_bundles >= 2, "n_bundles must be >= 2")
        require(bool(self.strategy_mix), "strategy_mix must not be empty")
        for task, data, weight in self.strategy_mix:
            require(task in registry.TASK_STRATEGIES,
                    f"unknown task strategy {task!r}")
            require(data in registry.DATA_STRATEGIES,
                    f"unknown data strategy {data!r}")
            require(weight > 0, "strategy weights must be > 0")
        require(bool(self.cost_mix), "cost_mix must not be empty")
        for kind, a, weight in self.cost_mix:
            require(kind in registry.COSTS, f"unknown cost kind {kind!r}")
            # Enforce each kind's parameter constraints here so an
            # invalid schedule fails at spec construction, not mid-run.
            registry.COSTS.get(kind).validate(a)
            require(weight > 0, "cost weights must be > 0")
        lo, hi = self.target_quantile_range
        require(0 < lo <= hi <= 1.0, "target_quantile_range must be in (0, 1]")
        require(self.max_rounds >= 1, "max_rounds must be >= 1")
        require(self.n_price_samples >= 1, "n_price_samples must be >= 1")

    def base_config(self) -> MarketConfig:
        """The preset's calibrated constants (before per-session jitter)."""
        return registry.DATASETS.get(self.preset).preset.config

    def reserved_params(self) -> dict:
        """The preset's reserved-price calibration."""
        return dict(registry.DATASETS.get(self.preset).preset.reserved_price_params)

    def gain_scale(self) -> float:
        """ΔG magnitude anchoring this preset's synthetic catalogues."""
        return registry.DATASETS.get(self.preset).gain_scale

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Canonical plain-dict form (tuples become JSON-native lists)."""
        return {
            "preset": self.preset,
            "n_features": self.n_features,
            "n_bundles": self.n_bundles,
            "strategy_mix": [list(t) for t in self.strategy_mix],
            "cost_mix": [list(t) for t in self.cost_mix],
            "utility_jitter": self.utility_jitter,
            "rate_jitter": self.rate_jitter,
            "base_jitter": self.base_jitter,
            "budget_jitter": self.budget_jitter,
            "eps_spread": self.eps_spread,
            "target_quantile_range": list(self.target_quantile_range),
            "max_rounds": self.max_rounds,
            "n_price_samples": self.n_price_samples,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PopulationSpec":
        """Inverse of :meth:`to_dict`; unknown keys are hard errors."""
        require(isinstance(payload, dict), "PopulationSpec payload must be a dict")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        require(not unknown,
                f"unknown PopulationSpec keys {unknown}; known: {sorted(known)}")
        data = dict(payload)
        if "strategy_mix" in data:
            data["strategy_mix"] = tuple(tuple(t) for t in data["strategy_mix"])
        if "cost_mix" in data:
            data["cost_mix"] = tuple(tuple(t) for t in data["cost_mix"])
        if "target_quantile_range" in data:
            data["target_quantile_range"] = tuple(data["target_quantile_range"])
        return cls(**data)

    def digest(self) -> str:
        """Content digest over :meth:`to_dict` (the shared canonical hash)."""
        return content_digest(self.to_dict())


@dataclass
class Population:
    """``N`` sampled sessions over one shared catalogue.

    Scalar per-session parameters are stored as parallel numpy arrays
    (the vectorised kernel consumes them directly); :meth:`config`,
    :meth:`reserved` and :meth:`build_engine` materialise the object
    form of session ``i`` for the stepwise engine path and for naive
    one-by-one baselines.
    """

    spec: PopulationSpec
    seed: int
    n_sessions: int
    bundles: list[FeatureBundle]
    gains: np.ndarray  # (F,)
    reserved_rate: np.ndarray  # (N, F)
    reserved_base: np.ndarray  # (N, F)
    utility_rate: np.ndarray  # (N,)
    budget: np.ndarray
    initial_rate: np.ndarray
    initial_base: np.ndarray
    target: np.ndarray
    eps_d: np.ndarray
    eps_t: np.ndarray
    eps_dc: np.ndarray
    eps_tc: np.ndarray
    mix_idx: np.ndarray  # (N,) index into spec.strategy_mix
    cost_idx: np.ndarray  # (N,) index into spec.cost_mix
    oracle: PerformanceOracle = field(repr=False, default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.oracle is None:
            self.oracle = PerformanceOracle.from_gains(self.gains_dict())

    # ------------------------------------------------------------------
    def gains_dict(self) -> dict[FeatureBundle, float]:
        """The shared catalogue as a ``bundle -> ΔG`` mapping."""
        return {b: float(g) for b, g in zip(self.bundles, self.gains)}

    def strategy_pair(self, i: int) -> tuple[str, str]:
        """``(task_kind, data_kind)`` of session ``i``."""
        task, data, _ = self.spec.strategy_mix[int(self.mix_idx[i])]
        return task, data

    def kernel_eligible(self) -> np.ndarray:
        """Boolean mask of sessions the vectorised kernel can advance.

        The kernel plays the strategic data party against either the
        strategic or the ``increase_price`` task party, under any
        registered cost kind (it evaluates each cost-mix entry's model,
        :meth:`cost_model`); every other strategy combination
        (``random_bundle``, ``imperfect``, registered strategies) runs
        through the stepwise engine.
        """
        eligible = np.zeros(self.n_sessions, dtype=bool)
        for m, (task, data, _) in enumerate(self.spec.strategy_mix):
            if task in ("strategic", "increase_price") and data == "strategic":
                eligible |= self.mix_idx == m
        return eligible

    def config(self, i: int) -> MarketConfig:
        """The validated :class:`MarketConfig` of session ``i``."""
        return MarketConfig(
            utility_rate=float(self.utility_rate[i]),
            budget=float(self.budget[i]),
            initial_rate=float(self.initial_rate[i]),
            initial_base=float(self.initial_base[i]),
            target_gain=float(self.target[i]),
            eps_d=float(self.eps_d[i]),
            eps_t=float(self.eps_t[i]),
            eps_dc=float(self.eps_dc[i]),
            eps_tc=float(self.eps_tc[i]),
            max_rounds=self.spec.max_rounds,
            n_price_samples=self.spec.n_price_samples,
        )

    def reserved(self, i: int) -> dict[FeatureBundle, ReservedPrice]:
        """Session ``i``'s private reserved-price table."""
        return {
            b: ReservedPrice(
                rate=float(self.reserved_rate[i, j]),
                base=float(self.reserved_base[i, j]),
            )
            for j, b in enumerate(self.bundles)
        }

    def cost_model(self, i: int) -> CostModel | None:
        """Session ``i``'s bargaining-cost schedule (both parties)."""
        kind, a, _ = self.spec.cost_mix[int(self.cost_idx[i])]
        return registry.build_cost(kind, a)

    def build_engine(
        self, i: int, *, oracle: object = None
    ) -> BargainingEngine:
        """Stand up session ``i``'s engine (strategies are single-use).

        This is exactly what a naive one-session-at-a-time deployment
        pays per negotiation; the pool's batch kernel amortises it.
        ``oracle`` overrides the shared oracle (e.g. a
        :class:`~repro.market.oracle.MemoisedOracle`).
        """
        config = self.config(i)
        gains = self.gains_dict()
        reserved = self.reserved(i)
        cost = self.cost_model(i)
        task_kind, data_kind = self.strategy_pair(i)
        n_features = 1 + max(max(b.indices) for b in self.bundles)
        task = registry.build_task_strategy(
            task_kind,
            registry.StrategyContext(
                config=config,
                gains=gains,
                reserved_prices=reserved,
                n_features=n_features,
                cost_model=cost,
                rng=spawn(self.seed, "session", int(i), "task"),
            ),
        )
        data = registry.build_data_strategy(
            data_kind,
            registry.StrategyContext(
                config=config,
                gains=gains,
                reserved_prices=reserved,
                n_features=n_features,
                cost_model=cost,
                rng=spawn(self.seed, "session", int(i), "data"),
            ),
        )
        return BargainingEngine(
            task,
            data,
            oracle if oracle is not None else self.oracle,
            utility_rate=config.utility_rate,
            cost_task=cost,
            cost_data=cost,
            reserved_prices=reserved,
            max_rounds=config.max_rounds,
        )


def sample_population(
    spec: PopulationSpec,
    n_sessions: int,
    *,
    seed: int = 0,
    oracle: PerformanceOracle | None = None,
) -> Population:
    """Draw ``n_sessions`` heterogeneous sessions in one vectorised pass.

    Every random quantity comes from a named :func:`repro.utils.rng.spawn`
    stream under ``seed``, so the population is bit-reproducible and
    independent of how the pool later batches it.

    ``oracle`` anchors the population on a *real* pre-bargaining oracle
    (e.g. one the oracle factory built from a dataset's VFL courses):
    its catalogue and ΔG values replace the synthetic ones —
    ``spec.n_features``/``spec.n_bundles`` are ignored — and sessions
    query that oracle during bargaining.
    """
    require(n_sessions >= 1, "n_sessions must be >= 1")
    cfg = spec.base_config()
    scale = spec.gain_scale()

    if oracle is not None:
        # Real catalogue: the platform already ran the VFL courses.
        bundles = list(oracle.bundles)
        catalogue = oracle.gains()
        gains = np.asarray([catalogue[b] for b in bundles], dtype=float)
        require(
            float(gains.max()) > 0,
            "oracle-backed population needs at least one positive-gain bundle",
        )
        sizes = np.array([b.size for b in bundles], dtype=float)
    else:
        # Shared catalogue: bundle sizes drive gains (diminishing
        # returns) with idiosyncratic quality noise, mirroring the
        # paper's oracles.
        bundles = sample_bundles(
            spec.n_features,
            spec.n_bundles,
            rng=spawn(seed, "population", "bundles"),
        )
        sizes = np.array([b.size for b in bundles], dtype=float)
        gains = synthetic_gains(
            sizes,
            n_features=spec.n_features,
            scale=scale,
            rng=spawn(seed, "population", "gains"),
        )

    # Per-session reserved prices: the cost-plus-value model of
    # pricing.cost_based_reserved_prices, vectorised across sessions.
    params = spec.reserved_params()
    quality = np.maximum(gains, 0.0) / max(float(gains.max()), 1e-12)
    res_rng = spawn(seed, "population", "reserved")
    shape = (n_sessions, len(bundles))
    reserved_rate = (
        params["rate_floor"]
        + params["rate_per_feature"] * sizes[None, :]
        + params.get("rate_value", 0.0) * quality[None, :]
        + np.abs(res_rng.normal(0.0, params.get("rate_noise", 0.0) or 1e-12, shape))
    )
    reserved_base = (
        params["base_floor"]
        + params["base_per_feature"] * sizes[None, :]
        + params.get("base_value", 0.0) * quality[None, :]
        + np.abs(res_rng.normal(0.0, params.get("base_noise", 0.0) or 1e-12, shape))
    )

    # Buyer economics: log-normal jitter around the preset calibration.
    par_rng = spawn(seed, "population", "params")
    utility = cfg.utility_rate * np.exp(
        par_rng.normal(0.0, spec.utility_jitter, n_sessions)
    )
    initial_rate = cfg.initial_rate * np.exp(
        par_rng.normal(0.0, spec.rate_jitter, n_sessions)
    )
    initial_rate = np.minimum(initial_rate, 0.5 * utility)
    initial_base = cfg.initial_base * np.exp(
        par_rng.normal(0.0, spec.base_jitter, n_sessions)
    )
    q_lo, q_hi = spec.target_quantile_range
    quantiles = par_rng.uniform(q_lo, q_hi, n_sessions)
    # Snap targets to order statistics of the catalogue: an interpolated
    # quantile falls *between* bundle gains, leaving no bundle within
    # ε of the turning point, so no session could ever settle there.
    # Only positive gains are viable targets (real oracles can carry
    # negative-ΔG bundles; synthetic catalogues are all-positive, so
    # this filter leaves them untouched).
    sorted_gains = np.sort(gains[gains > 0])
    target = sorted_gains[
        np.round(quantiles * (len(sorted_gains) - 1)).astype(int)
    ]
    opening_cap = initial_base + initial_rate * target
    budget = cfg.budget * np.exp(par_rng.normal(0.0, spec.budget_jitter, n_sessions))
    # Keep escalation headroom above the opening cap (same floor the
    # Market facade applies): concession steps scale with budget - cap.
    budget = np.maximum(budget, 2.0 * opening_cap)
    decades = par_rng.uniform(-spec.eps_spread, spec.eps_spread, (2, n_sessions))
    eps_d = cfg.eps_d * 10.0 ** decades[0]
    eps_t = cfg.eps_t * 10.0 ** decades[1]
    eps_dc = np.full(n_sessions, cfg.eps_dc)
    eps_tc = np.full(n_sessions, cfg.eps_tc)

    # Strategy and cost mixes.
    mix_rng = spawn(seed, "population", "mix")
    mix_w = np.array([w for _, _, w in spec.strategy_mix], dtype=float)
    mix_idx = mix_rng.choice(len(spec.strategy_mix), size=n_sessions,
                             p=mix_w / mix_w.sum())
    cost_w = np.array([w for _, _, w in spec.cost_mix], dtype=float)
    cost_idx = mix_rng.choice(len(spec.cost_mix), size=n_sessions,
                              p=cost_w / cost_w.sum())

    return Population(
        spec=spec,
        seed=int(seed),
        n_sessions=int(n_sessions),
        bundles=bundles,
        gains=gains,
        reserved_rate=reserved_rate,
        reserved_base=reserved_base,
        utility_rate=utility,
        budget=budget,
        initial_rate=initial_rate,
        initial_base=initial_base,
        target=target,
        eps_d=eps_d,
        eps_t=eps_t,
        eps_dc=eps_dc,
        eps_tc=eps_tc,
        mix_idx=mix_idx,
        cost_idx=cost_idx,
        oracle=oracle,
    )
