"""Decorator-based registries: the market's single extension point.

Every dimension a front door used to hardcode — dataset names in
``cli.py`` ``choices=`` tuples, strategy ``if/elif`` ladders in
:mod:`repro.market.market` and :mod:`repro.simulate.population`, cost
kinds in the simulator's mix parser — resolves through one of the
registries below.  Registering an entry makes it appear everywhere at
once: CLI help and validation, spec validation
(:mod:`repro.service.specs`), the :class:`~repro.market.market.Market`
engine builder, and the population sampler's strategy/cost mixes.

Extension example (see ``examples/custom_market.py`` for the full
walkthrough)::

    from repro.service import register_dataset, register_task_strategy

    @register_dataset("acme", preset=my_preset, gain_scale=0.15)
    def load_acme(n_samples=None, *, seed=0):
        return RawDataset(...)

    @register_task_strategy("patient")
    def patient_buyer(ctx):
        return PatientTaskParty(ctx.config, list(ctx.gains.values()),
                                rng=ctx.rng)

after which ``python -m repro bargain --dataset acme --task patient``
— and the equivalent ``MarketSpec``/``SessionSpec`` over HTTP — just
work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generic, ItemsView, TypeVar

from repro.market.config import MarketConfig
from repro.market.costs import (
    ConstantCost,
    CostModel,
    ExponentialCost,
    LinearCost,
)
from repro.market.presets import MARKET_PRESETS, MarketPreset
from repro.market.strategies.baselines import (
    IncreasePriceTaskParty,
    RandomBundleDataParty,
)
from repro.market.strategies.data_party import StrategicDataParty
from repro.market.strategies.imperfect import ImperfectDataParty, ImperfectTaskParty
from repro.market.strategies.task_party import StrategicTaskParty
from repro.utils.validation import require

__all__ = [
    "COSTS",
    "DATA_STRATEGIES",
    "DATASETS",
    "BASE_MODELS",
    "BaseModelEntry",
    "CostEntry",
    "DatasetEntry",
    "Registry",
    "StrategyContext",
    "base_model_names",
    "build_cost",
    "build_data_strategy",
    "build_task_strategy",
    "cost_names",
    "data_strategy_names",
    "dataset_names",
    "preset_names",
    "register_base_model",
    "register_cost",
    "register_data_strategy",
    "register_dataset",
    "register_task_strategy",
    "TASK_STRATEGIES",
    "task_strategy_names",
]


T = TypeVar("T")


class Registry(Generic[T]):
    """A named table of pluggable components.

    ``register`` doubles as a decorator; collisions are hard errors
    unless ``overwrite=True`` (re-importing an extension module is the
    one legitimate reason to overwrite).  Parameterising over the entry
    type (``Registry[DatasetEntry]``) makes every ``get`` lookup typed,
    so a consumer spelling ``DATASETS.get(name).gain_scale`` is checked
    statically instead of trusting the table's discipline.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict[str, T] = {}

    # ------------------------------------------------------------------
    def register(
        self, name: str, obj: T | None = None, *, overwrite: bool = False
    ) -> T | Callable[[T], T]:
        """Register ``obj`` under ``name``; without ``obj``, a decorator."""
        require(
            isinstance(name, str) and name and name == name.strip(),
            f"{self.kind} name must be a non-empty string",
        )
        if obj is None:
            def deferred(target: T) -> T:
                self.register(name, target, overwrite=overwrite)
                return target

            return deferred
        if not overwrite and name in self._entries:
            raise ValueError(
                f"{self.kind} {name!r} is already registered; "
                f"pass overwrite=True to replace it"
            )
        self._entries[name] = obj
        return obj

    def unregister(self, name: str) -> None:
        """Remove an entry (tests and hot-reload use this)."""
        self._entries.pop(name, None)

    def get(self, name: str) -> T:
        """Look up an entry, with the known names in the error."""
        try:
            return self._entries[name]
        except KeyError:
            raise ValueError(
                f"unknown {self.kind} {name!r}; known: {sorted(self._entries)}"
            ) from None

    def names(self) -> tuple[str, ...]:
        """All registered names, sorted (CLI ``choices=`` consume this)."""
        return tuple(sorted(self._entries))

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def items(self) -> ItemsView[str, T]:
        return self._entries.items()


# ----------------------------------------------------------------------
# Datasets
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DatasetEntry:
    """One tradable dataset: loader + market calibration.

    ``loader(n_samples=N, *, seed=0) -> RawDataset`` synthesises (or
    fetches) ``N`` raw rows.  Markets call it as ``loader(seed=seed)``,
    so the default of ``n_samples`` must yield the whole table; the
    preset's ``quick_n_samples``/``full_n_samples`` then subsample it.
    The built-ins default to their paper row counts (891 / 30,000 /
    48,842) and take an ``int`` only: ``n_samples=None`` is not "all
    rows" for them.
    ``preset`` calibrates the market built on it; ``gain_scale``
    anchors the population simulator's synthetic catalogues for this
    dataset's preset.  ``synthetic=True`` marks catalogue-only entries
    that stand up a market without any VFL machinery (no loader).
    """

    name: str
    loader: Callable | None
    preset: MarketPreset
    gain_scale: float = 0.20
    synthetic: bool = False

    def __post_init__(self) -> None:
        require(self.gain_scale > 0, "gain_scale must be > 0")
        require(
            self.synthetic or self.loader is not None,
            f"dataset {self.name!r} needs a loader (or synthetic=True)",
        )


DATASETS: Registry[DatasetEntry] = Registry("dataset")


def register_dataset(
    name: str,
    *,
    preset: MarketPreset,
    gain_scale: float = 0.20,
    synthetic: bool = False,
    overwrite: bool = False,
):
    """Decorator registering a dataset loader together with its preset."""

    def wrap(loader: Callable | None):
        DATASETS.register(
            name,
            DatasetEntry(
                name=name,
                loader=loader,
                preset=preset,
                gain_scale=gain_scale,
                synthetic=synthetic,
            ),
            overwrite=overwrite,
        )
        return loader

    return wrap


def dataset_names(*, include_synthetic: bool = True) -> tuple[str, ...]:
    """Registered dataset names (optionally hiding catalogue-only ones)."""
    return tuple(
        name
        for name in DATASETS.names()
        if include_synthetic or not DATASETS.get(name).synthetic
    )


def preset_names() -> tuple[str, ...]:
    """Valid population-calibration anchors (every registered dataset)."""
    return DATASETS.names()


# ----------------------------------------------------------------------
# Base models
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BaseModelEntry:
    """One VFL base model: preset calibration + course builders.

    The builders are what the VFL runner (:mod:`repro.vfl.runner`)
    dispatches through, so a registered model reaches oracle
    construction everywhere (``Market.from_spec``, the oracle factory,
    CLI/HTTP specs):

    * ``isolated(dataset, params, rng) -> float`` — train the task
      party alone, return its test score (``M0``).
    * ``joint(dataset, bundle, params, rng, *, channel, task_design,
      data_design) -> float`` — run the federated protocol on
      ``bundle``, return the joint test score (``M``).

    ``defaults`` are the protocol's model parameters (``None`` accepts
    arbitrary overrides verbatim); ``supports_designs`` marks models
    whose joint builder consumes the oracle factory's pre-binned
    designs.  Entries without builders can still calibrate presets but
    cannot run VFL courses.
    """

    name: str
    preset_params_attr: str | None = None
    defaults: dict | None = None
    isolated: Callable | None = None
    joint: Callable | None = None
    supports_designs: bool = False

    def preset_params(self, preset: MarketPreset) -> dict:
        """The preset's model-parameter overrides for this base model."""
        if self.preset_params_attr is None:
            return {}
        return dict(getattr(preset, self.preset_params_attr))


BASE_MODELS: Registry[BaseModelEntry] = Registry("base model")


def register_base_model(
    name: str,
    *,
    preset_params_attr: str | None = None,
    defaults: dict | None = None,
    isolated: Callable | None = None,
    joint: Callable | None = None,
    supports_designs: bool = False,
    overwrite: bool = False,
) -> BaseModelEntry:
    """Register a base model (with course builders, runnable end to end)."""
    entry = BaseModelEntry(
        name=name,
        preset_params_attr=preset_params_attr,
        defaults=dict(defaults) if defaults is not None else None,
        isolated=isolated,
        joint=joint,
        supports_designs=supports_designs,
    )
    BASE_MODELS.register(name, entry, overwrite=overwrite)
    return entry


def base_model_names() -> tuple[str, ...]:
    return BASE_MODELS.names()


# ----------------------------------------------------------------------
# Party strategies
# ----------------------------------------------------------------------
@dataclass
class StrategyContext:
    """Everything a strategy factory may consume.

    One context per party per session: ``rng`` is that party's private
    seeded stream, ``cost_model`` its bargaining-cost schedule.  The
    ``gains``/``reserved_prices``/``n_features`` describe the shared
    catalogue (what the trusted platform disclosed).
    """

    config: MarketConfig
    gains: dict
    reserved_prices: dict
    n_features: int = 0
    cost_model: CostModel | None = None
    rng: object = None


TASK_STRATEGIES: Registry[Callable[[StrategyContext], object]] = Registry("task strategy")
DATA_STRATEGIES: Registry[Callable[[StrategyContext], object]] = Registry("data strategy")


def register_task_strategy(name: str, *, overwrite: bool = False):
    """Decorator over a ``(StrategyContext) -> TaskStrategy`` factory."""
    return TASK_STRATEGIES.register(name, overwrite=overwrite)


def register_data_strategy(name: str, *, overwrite: bool = False):
    """Decorator over a ``(StrategyContext) -> DataStrategy`` factory."""
    return DATA_STRATEGIES.register(name, overwrite=overwrite)


def build_task_strategy(name: str, ctx: StrategyContext):
    """Instantiate the registered task-party strategy ``name``."""
    return TASK_STRATEGIES.get(name)(ctx)


def build_data_strategy(name: str, ctx: StrategyContext):
    """Instantiate the registered data-party strategy ``name``."""
    return DATA_STRATEGIES.get(name)(ctx)


def task_strategy_names() -> tuple[str, ...]:
    return TASK_STRATEGIES.names()


def data_strategy_names() -> tuple[str, ...]:
    return DATA_STRATEGIES.names()


# ----------------------------------------------------------------------
# Bargaining-cost schedules
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CostEntry:
    """One cost kind: parameter validation + model factory.

    ``factory(a) -> CostModel | None`` (``None`` = frictionless);
    ``validate(a)`` raises ``ValueError`` on out-of-range parameters —
    at *spec* construction, not mid-simulation.  ``takes_parameter``
    drives the CLI mix parser's ``kind:a=weight`` syntax checks.
    """

    name: str
    factory: Callable[[float], CostModel | None]
    validate: Callable[[float], None] = field(default=lambda a: None)
    takes_parameter: bool = True


COSTS: Registry[CostEntry] = Registry("cost kind")


def register_cost(
    name: str,
    factory: Callable[[float], CostModel | None],
    *,
    validate: Callable[[float], None] | None = None,
    takes_parameter: bool = True,
    overwrite: bool = False,
) -> CostEntry:
    """Register a bargaining-cost schedule kind."""
    entry = CostEntry(
        name=name,
        factory=factory,
        validate=validate or (lambda a: None),
        takes_parameter=takes_parameter,
    )
    COSTS.register(name, entry, overwrite=overwrite)
    return entry


def build_cost(kind: str, a: float = 0.0) -> CostModel | None:
    """Instantiate (and validate) the registered cost kind ``kind``."""
    entry = COSTS.get(kind)
    entry.validate(a)
    return entry.factory(a)


def cost_names() -> tuple[str, ...]:
    return COSTS.names()


# ----------------------------------------------------------------------
# Built-in registrations
# ----------------------------------------------------------------------
def _register_builtin_datasets() -> None:
    # Imported lazily relative to module top so the registry stays
    # importable from repro.market.market without a package cycle.
    from repro.data.synthetic.adult import load_adult
    from repro.data.synthetic.credit import load_credit
    from repro.data.synthetic.titanic import load_titanic

    # ΔG magnitude of each preset's catalogue (the paper's per-dataset
    # ranges: Titanic ~0.1-0.2, Credit ~0.005-0.012, Adult ~0.01-0.04).
    gain_scales = {"titanic": 0.20, "credit": 0.012, "adult": 0.04}
    loaders = {"titanic": load_titanic, "credit": load_credit, "adult": load_adult}
    for name, loader in loaders.items():
        register_dataset(
            name, preset=MARKET_PRESETS[name], gain_scale=gain_scales[name]
        )(loader)

    # The catalogue-only market: no dataset, no VFL — the unit-test
    # ladder calibration, instant to build.  The population simulator's
    # "synthetic" preset and `repro serve` demos anchor here.
    register_dataset(
        "synthetic",
        preset=MarketPreset(
            config=MarketConfig(
                utility_rate=500.0,
                budget=6.0,
                initial_rate=6.2,
                initial_base=0.95,
                eps_d=1e-3,
                eps_t=1e-3,
            ),
            reserved_price_params={
                "rate_floor": 5.0,
                "rate_per_feature": 0.15,
                "base_floor": 0.80,
                "base_per_feature": 0.020,
                "rate_value": 2.0,
                "base_value": 0.30,
                "rate_noise": 0.25,
                "base_noise": 0.02,
            },
            n_bundles=24,
        ),
        gain_scale=0.20,
        synthetic=True,
    )(None)


_register_builtin_datasets()


def _register_builtin_base_models() -> None:
    # The runner owns the builders (they wrap the ml/vfl substrate);
    # the registry owns the names.  repro.vfl.runner resolves back
    # through this registry lazily, so there is no import cycle.
    from repro.vfl.runner import BUILTIN_BASE_MODELS

    for name, kwargs in BUILTIN_BASE_MODELS.items():
        register_base_model(name, **kwargs)


_register_builtin_base_models()


@register_task_strategy("strategic")
def _strategic_task(ctx: StrategyContext) -> StrategicTaskParty:
    return StrategicTaskParty(
        ctx.config, list(ctx.gains.values()), cost_model=ctx.cost_model, rng=ctx.rng
    )


@register_task_strategy("increase_price")
def _increase_price_task(ctx: StrategyContext) -> IncreasePriceTaskParty:
    return IncreasePriceTaskParty(ctx.config, list(ctx.gains.values()), rng=ctx.rng)


@register_task_strategy("imperfect")
def _imperfect_task(ctx: StrategyContext) -> ImperfectTaskParty:
    return ImperfectTaskParty(ctx.config, rng=ctx.rng)


@register_data_strategy("strategic")
def _strategic_data(ctx: StrategyContext) -> StrategicDataParty:
    return StrategicDataParty(
        ctx.gains, ctx.reserved_prices, ctx.config, cost_model=ctx.cost_model
    )


@register_data_strategy("random_bundle")
def _random_bundle_data(ctx: StrategyContext) -> RandomBundleDataParty:
    return RandomBundleDataParty(
        ctx.gains, ctx.reserved_prices, ctx.config, rng=ctx.rng
    )


@register_data_strategy("imperfect")
def _imperfect_data(ctx: StrategyContext) -> ImperfectDataParty:
    return ImperfectDataParty(
        list(ctx.gains), ctx.reserved_prices, ctx.config, ctx.n_features, rng=ctx.rng
    )


def _require_nonneg(a: float) -> None:
    require(a >= 0, "cost parameter a must be >= 0")


def _require_pos(a: float) -> None:
    require(a > 0, "linear cost needs a > 0")


def _require_gt1(a: float) -> None:
    require(a > 1.0, "exponential cost needs a > 1")


register_cost(
    "none", lambda a: None, validate=_require_nonneg, takes_parameter=False
)
register_cost("constant", lambda a: ConstantCost(float(a)), validate=_require_nonneg)
register_cost("linear", lambda a: LinearCost(float(a)), validate=_require_pos)
register_cost(
    "exponential", lambda a: ExponentialCost(float(a)), validate=_require_gt1
)
