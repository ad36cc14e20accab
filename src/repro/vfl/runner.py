"""One-call VFL course execution: isolated baseline vs joint training.

:func:`run_vfl` is the bridge between the VFL substrate and the market:
it trains the task party's isolated model (``M0``), runs the federated
protocol on a feature bundle (``M``), and returns the paper's
performance gain ``ΔG = (M − M0) / M0`` (Eq. 1) along with channel
traffic statistics.

Base models resolve through the service registry
(:mod:`repro.service.registry`): a
:func:`~repro.service.registry.register_base_model` call with course
builders makes a custom protocol trainable everywhere a built-in one is
— ``Market.from_spec`` oracle construction, the oracle factory, the
CLI's ``--model``/``--base-model`` choices, and HTTP specs.  The
built-in protocols (federated random forest, SplitNN) are described by
:data:`BUILTIN_BASE_MODELS` and registered by the registry module at
import time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.partition import PartitionedDataset
from repro.ml.forest import RandomForestClassifier
from repro.ml.nn.mlp import MLPClassifier
from repro.utils.rng import spawn
from repro.utils.validation import require
from repro.vfl.channel import Channel
from repro.vfl.fedforest import FederatedForest
from repro.vfl.parties import parties_from_dataset
from repro.vfl.splitnn import SplitNN

__all__ = [
    "BUILTIN_BASE_MODELS",
    "VFLResult",
    "isolated_performance",
    "resolve_model_params",
    "run_vfl",
]

_RF_DEFAULTS = {
    "n_estimators": 15,
    "max_depth": 8,
    "min_samples_leaf": 2,
    "max_features": "sqrt",
    "max_bins": 32,
}
_MLP_DEFAULTS = {
    "embed_dim": 64,
    "top_hidden": 32,
    "epochs": 60,
    "batch_size": 128,
    "lr": 1e-2,
}


@dataclass(frozen=True)
class VFLResult:
    """Outcome of one VFL course on one feature bundle."""

    bundle: tuple[int, ...]
    base_model: str
    performance_isolated: float
    performance_joint: float
    channel_stats: dict[str, int] = field(default_factory=dict)

    @property
    def delta_g(self) -> float:
        """Relative performance gain ``(M − M0)/M0`` (paper Eq. 1)."""
        return (self.performance_joint - self.performance_isolated) / max(
            self.performance_isolated, 1e-12
        )


def _merged(defaults: dict, overrides: dict | None) -> dict:
    params = dict(defaults)
    if overrides:
        unknown = set(overrides) - set(defaults)
        require(not unknown, f"unknown model params: {sorted(unknown)}")
        params.update(overrides)
    return params


def _entry(base_model: str):
    """The registered base-model entry (the validation choke point)."""
    from repro.service import registry

    if base_model not in registry.BASE_MODELS:
        raise ValueError(
            f"unknown base_model {base_model!r}; registered: "
            f"{list(registry.base_model_names())}"
        )
    return registry.BASE_MODELS.get(base_model)


def resolve_model_params(base_model: str, overrides: dict | None = None) -> dict:
    """Protocol defaults merged with ``overrides`` (rejecting unknown keys).

    The resolved dict is what a course actually trains with — the
    oracle factory fingerprints it for its persistent gain cache.
    Entries registered without ``defaults`` accept overrides verbatim.
    """
    entry = _entry(base_model)
    if entry.defaults is None:
        return dict(overrides or {})
    return _merged(entry.defaults, overrides)


# ----------------------------------------------------------------------
# Built-in course builders (the registry registers these under
# "random_forest" / "mlp"; custom models supply their own pair).
# ----------------------------------------------------------------------
def _rf_isolated(dataset: PartitionedDataset, params: dict, rng) -> float:
    model = RandomForestClassifier(
        params["n_estimators"],
        max_depth=params["max_depth"],
        min_samples_leaf=params["min_samples_leaf"],
        max_features=params["max_features"],
        max_bins=params["max_bins"],
        rng=rng,
    )
    model.fit(dataset.task_train, dataset.y_train.astype(np.float64))
    return model.score(dataset.task_test, dataset.y_test)


def _mlp_isolated(dataset: PartitionedDataset, params: dict, rng) -> float:
    model = MLPClassifier(
        (params["embed_dim"], params["top_hidden"]),
        epochs=params["epochs"],
        batch_size=params["batch_size"],
        lr=params["lr"],
        rng=rng,
    )
    model.fit(dataset.task_train, dataset.y_train.astype(np.float64))
    return model.score(dataset.task_test, dataset.y_test)


def _rf_joint(
    dataset: PartitionedDataset,
    bundle: tuple[int, ...],
    params: dict,
    rng,
    *,
    channel: Channel,
) -> float:
    task, data = parties_from_dataset(dataset)
    forest = FederatedForest(
        params["n_estimators"],
        max_depth=params["max_depth"],
        min_samples_leaf=params["min_samples_leaf"],
        max_features=params["max_features"],
        max_bins=params["max_bins"],
        rng=rng,
    )
    forest.fit(task, data, bundle, channel)
    return forest.score(task.test_idx, task.y_test.astype(np.int64), channel)


def _mlp_joint(
    dataset: PartitionedDataset,
    bundle: tuple[int, ...],
    params: dict,
    rng,
    *,
    channel: Channel,
) -> float:
    task, data = parties_from_dataset(dataset)
    net = SplitNN(
        task.d,
        len(bundle),
        embed_dim=params["embed_dim"],
        top_hidden=params["top_hidden"],
        epochs=params["epochs"],
        batch_size=params["batch_size"],
        lr=params["lr"],
        rng=rng,
    )
    net.fit(task, data, bundle, channel)
    return net.score(task.test_idx, task.y_test.astype(np.int64), channel)


#: What the registry registers for the built-in protocols: keyword
#: arguments for :func:`repro.service.registry.register_base_model`.
BUILTIN_BASE_MODELS = {
    "random_forest": {
        "preset_params_attr": "rf_params",
        "defaults": _RF_DEFAULTS,
        "isolated": _rf_isolated,
        "joint": _rf_joint,
    },
    "mlp": {
        "preset_params_attr": "mlp_params",
        "defaults": _MLP_DEFAULTS,
        "isolated": _mlp_isolated,
        "joint": _mlp_joint,
    },
}


# ----------------------------------------------------------------------
# Course execution
# ----------------------------------------------------------------------
def isolated_performance(
    dataset: PartitionedDataset,
    *,
    base_model: str = "random_forest",
    model_params: dict | None = None,
    seed: object = 0,
) -> float:
    """Test accuracy of the task party training alone (``M0``)."""
    entry = _entry(base_model)
    require(
        entry.isolated is not None,
        f"base model {base_model!r} was registered without course "
        f"builders; pass isolated=/joint= to register_base_model",
    )
    params = resolve_model_params(base_model, model_params)
    rng = spawn(seed, dataset.name, base_model, "isolated")
    return float(entry.isolated(dataset, params, rng))


def run_vfl(
    dataset: PartitionedDataset,
    bundle: object,
    *,
    base_model: str = "random_forest",
    model_params: dict | None = None,
    seed: object = 0,
    m0: float | None = None,
) -> VFLResult:
    """Execute one VFL course and measure the performance gain.

    Parameters
    ----------
    dataset:
        A prepared (vertically-partitioned) dataset.
    bundle:
        Data-party feature indices to train on.
    base_model:
        Any registered base model — ``"random_forest"`` (federated
        forest), ``"mlp"`` (SplitNN), or a custom registration.
    model_params:
        Overrides for the protocol defaults.
    seed:
        Root seed; isolated and joint models use disjoint streams.
    m0:
        Pre-computed isolated performance (skips retraining the
        baseline — the bargaining engine caches it).
    """
    entry = _entry(base_model)
    require(
        entry.joint is not None,
        f"base model {base_model!r} was registered without course "
        f"builders; pass isolated=/joint= to register_base_model",
    )
    bundle = tuple(int(i) for i in bundle)
    require(len(bundle) >= 1, "bundle must contain at least one feature")
    channel = Channel()
    if m0 is None:
        m0 = isolated_performance(
            dataset, base_model=base_model, model_params=model_params, seed=seed
        )
    params = resolve_model_params(base_model, model_params)
    rng = spawn(seed, dataset.name, base_model, "joint", bundle)
    m = entry.joint(dataset, bundle, params, rng, channel=channel)
    return VFLResult(
        bundle=bundle,
        base_model=base_model,
        performance_isolated=float(m0),
        performance_joint=float(m),
        channel_stats=channel.stats(),
    )
