"""Deleted knobs and members stay deleted.

Each keyword parameter listed here was set by no entry point (``src``,
the benches, examples, scripts, perfbench, the CLI or ``/v1``), so its
default became the only behaviour and the branch it selected went.  A
parameter or member that comes back without a caller is dead weight
again; this is the signature-level counterpart of CI's grep step.
"""

import dataclasses
import importlib
import inspect

import pytest

#: ``module:qualname`` -> keyword parameters that no longer exist.
DELETED_PARAMETERS = {
    "repro.vfl.runner:run_vfl": ("channel", "task_design", "data_design"),
    "repro.vfl.fedforest:FederatedForest.fit": ("task_design", "data_design"),
    "repro.vfl.fedforest:_DataPartySplitService": ("design",),
    "repro.service.registry:register_base_model": ("supports_designs",),
    "repro.ml.forest:RandomForestClassifier": ("bootstrap",),
    "repro.vfl.fedforest:FederatedForest": ("bootstrap",),
    "repro.oracle_factory.course:FastForestCourse": ("bootstrap",),
    "repro.ml.tree:DecisionTreeClassifier": ("min_samples_split",),
    "repro.vfl.fedforest:FederatedTree": ("min_samples_split",),
    "repro.security.batch:SecureSettlement": ("pool_size",),
    "repro.security.secure_compare:secure_threshold_check": ("blind_range",),
    "repro.security.batch:secure_threshold_check_batch": ("blind_range",),
    "repro.security.batch:secure_threshold_check_serial_reference": ("blind_range",),
    "repro.market.strategies.learned:LearnedTaskParty": ("arms", "epsilon"),
    "repro.market.verification:TrustedEvaluator": ("z_threshold", "min_tolerance"),
    "repro.market.bundle:sample_bundles": ("min_size", "max_size", "include_full"),
    "repro.experiments.aggregate:density": ("n_grid",),
    "repro.experiments.aggregate:nan_mean_ci": ("confidence", "min_alive"),
    "repro.experiments.aggregate:histogram": ("lo", "hi"),
    "repro.experiments.report:ascii_chart": ("height", "width"),
    "repro.data.synthetic.base:RawDataset.prepare": ("standardize", "test_size"),
    "repro.data.partition:VerticalPartitioner.split": ("test_size",),
    "repro.data.preprocess:train_test_split": ("test_size",),
    "repro.client.client:MarketplaceClient.iter_jobs": ("page_size",),
    "repro.utils.validation:check_in_range": ("inclusive",),
    "repro.experiments.figures:figure1_series": ("quote", "utility_rate", "n_grid"),
    "repro.experiments.config:ExperimentScale": ("oracle_repeats",),
    "repro.market.market:Market.from_spec": ("cache",),
    "repro.experiments.runner:spec_for": ("cache",),
    "repro.experiments.runner:get_market": ("jobs", "cache"),
    "repro.client.client:MarketplaceClient.simulate": ("market_spec",),
}

#: ``module:class`` -> members no program path called.
DELETED_MEMBERS = {
    "repro.market.oracle:MemoisedOracle": (
        "gains", "bundles", "max_gain", "min_gain", "best_bundle",
        "quantile_gain", "__len__",
    ),
    "repro.service.registry:Registry": ("items", "__len__"),
    "repro.service.api:JobService": ("jobs",),
    "repro.data.preprocess:EncodedDataset": ("n_features",),
    "repro.oracle_factory.designs:SharedDesigns": ("task_design", "data_design"),
    "repro.market.market:Market": ("for_dataset",),
    "repro.service.specs:SimulationSpec": ("market_spec",),
}

#: module -> module-level names no program path read.
DELETED_MODULE_NAMES = {
    "repro.vfl.runner": ("BASE_MODELS",),
    "repro.market.market": ("_DEFAULT_CACHE",),
    "repro.experiments.runner": ("_as_spec", "market_is_cached", "clear_market_cache"),
    "repro.experiments": ("market_is_cached", "clear_market_cache", "DATASETS",
                          "BASE_MODELS"),
    "repro.experiments.config": ("DATASETS", "BASE_MODELS"),
    "repro.cli": ("_oracle_cache",),
}


def _resolve(path):
    module, qualname = path.split(":")
    obj = importlib.import_module(module)
    for name in qualname.split("."):
        obj = getattr(obj, name)
    return obj


@pytest.mark.parametrize("path", sorted(DELETED_PARAMETERS))
def test_deleted_parameters_stay_deleted(path):
    params = inspect.signature(_resolve(path)).parameters
    assert not set(DELETED_PARAMETERS[path]) & set(params)
    assert not any(p.kind is p.VAR_KEYWORD for p in params.values()), (
        "a **kwargs catch-all would accept the deleted knobs silently"
    )


@pytest.mark.parametrize("path", sorted(DELETED_MEMBERS))
def test_deleted_members_stay_deleted(path):
    cls = _resolve(path)
    assert [m for m in DELETED_MEMBERS[path] if hasattr(cls, m)] == []


@pytest.mark.parametrize("module", sorted(DELETED_MODULE_NAMES))
def test_deleted_module_names_stay_deleted(module):
    namespace = importlib.import_module(module)
    names = DELETED_MODULE_NAMES[module]
    assert [n for n in names if hasattr(namespace, n)] == []
    assert not set(names) & set(namespace.__all__)


def test_base_model_entry_has_no_design_flag():
    from repro.service.registry import BaseModelEntry

    fields = {f.name for f in dataclasses.fields(BaseModelEntry)}
    assert "supports_designs" not in fields


def test_density_grid_is_required():
    from repro.experiments import density

    grid = inspect.signature(density).parameters["grid"]
    assert grid.default is inspect.Parameter.empty

