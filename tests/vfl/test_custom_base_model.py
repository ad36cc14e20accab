"""A registered custom base model reaches oracle construction end to end.

The satellite contract of the registry wiring: ``register_base_model``
with course builders makes ``MarketSpec.base_model`` resolve through
``registry.BASE_MODELS`` inside ``Market.from_spec``/``run_vfl`` — no
hardcoded lookup left — so an extension model trains the pre-bargaining
oracle exactly like the built-ins.
"""

import numpy as np
import pytest

from repro.data import load_titanic
from repro.market.market import Market
from repro.ml import RandomForestClassifier
from repro.service import MarketSpec, registry
from repro.service.registry import register_base_model
from repro.vfl.runner import isolated_performance, resolve_model_params, run_vfl


def _forest_isolated(dataset, params, rng):
    model = RandomForestClassifier(params["n_estimators"], max_depth=4, rng=rng)
    model.fit(dataset.task_train, dataset.y_train)
    return model.score(dataset.task_test, dataset.y_test)


def _forest_joint(dataset, bundle, params, rng, *, channel):
    cols = list(bundle)
    X_train = np.hstack(
        [dataset.task_train, dataset.X_data[dataset.train_idx][:, cols]]
    )
    X_test = np.hstack(
        [dataset.task_test, dataset.X_data[dataset.test_idx][:, cols]]
    )
    model = RandomForestClassifier(params["n_estimators"], max_depth=4, rng=rng)
    model.fit(X_train, dataset.y_train)
    return model.score(X_test, dataset.y_test)


@pytest.fixture(scope="module", autouse=True)
def central_forest():
    register_base_model(
        "central_forest",
        defaults={"n_estimators": 5},
        isolated=_forest_isolated,
        joint=_forest_joint,
        overwrite=True,
    )
    yield
    registry.BASE_MODELS.unregister("central_forest")


@pytest.fixture(scope="module")
def dataset():
    return load_titanic(400, seed=0).prepare(seed=0)


class TestRunnerDispatch:
    def test_params_resolve_from_registration(self):
        assert resolve_model_params("central_forest") == {"n_estimators": 5}
        assert resolve_model_params("central_forest", {"n_estimators": 3}) == {
            "n_estimators": 3
        }
        with pytest.raises(ValueError, match="unknown model params"):
            resolve_model_params("central_forest", {"depth": 3})

    def test_unknown_base_model_rejected(self, dataset):
        with pytest.raises(ValueError, match="base_model"):
            isolated_performance(dataset, base_model="nope")

    def test_run_vfl_through_custom_builders(self, dataset):
        result = run_vfl(
            dataset, range(dataset.d_data), base_model="central_forest", seed=0
        )
        assert result.base_model == "central_forest"
        assert 0.0 < result.performance_joint <= 1.0
        assert np.isfinite(result.delta_g)

    def test_custom_model_is_deterministic(self, dataset):
        a = run_vfl(dataset, (0, 1), base_model="central_forest", seed=3, m0=0.6)
        b = run_vfl(dataset, (0, 1), base_model="central_forest", seed=3, m0=0.6)
        assert a.performance_joint == b.performance_joint

    def test_builderless_entry_cannot_run_courses(self, dataset):
        register_base_model("name_only", overwrite=True)
        try:
            with pytest.raises(ValueError, match="without course builders"):
                isolated_performance(dataset, base_model="name_only")
        finally:
            registry.BASE_MODELS.unregister("name_only")


class TestMarketIntegration:
    def test_from_spec_builds_oracle_on_custom_model(self):
        """The whole stack: spec validation accepts the registered name
        and the oracle's courses train through the custom builders."""
        spec = MarketSpec(
            dataset="titanic",
            base_model="central_forest",
            seed=0,
            n_bundles=3,
            no_cache=True,
        )
        market = Market.from_spec(spec)
        assert market.name == "titanic/central_forest"
        assert market.oracle.base_model == "central_forest"
        assert len(market.oracle) >= 2
        assert market.config.target_gain > 0

    def test_registration_propagates_to_cli_choices(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["simulate", "--dataset", "titanic",
             "--base-model", "central_forest"]
        )
        assert args.base_model == "central_forest"
