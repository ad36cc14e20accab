"""Registry semantics: collisions, and extensions propagating everywhere."""

import numpy as np
import pytest

from repro.cli import build_parser
from repro.market import MarketConfig, MarketPreset, StrategicTaskParty
from repro.market.costs import ConstantCost
from repro.service import registry
from repro.service.specs import SessionSpec, SimulationSpec


class TestRegistryCore:
    def test_collision_is_hard_error(self):
        reg = registry.Registry("widget")
        reg.register("a", 1)
        with pytest.raises(ValueError, match="already registered"):
            reg.register("a", 2)
        assert reg.get("a") == 1

    def test_overwrite_opt_in(self):
        reg = registry.Registry("widget")
        reg.register("a", 1)
        reg.register("a", 2, overwrite=True)
        assert reg.get("a") == 2

    def test_unknown_lookup_lists_known(self):
        reg = registry.Registry("widget")
        reg.register("a", 1)
        with pytest.raises(ValueError, match=r"unknown widget 'b'; known: \['a'\]"):
            reg.get("b")

    def test_decorator_form(self):
        reg = registry.Registry("widget")

        @reg.register("f")
        def factory():
            return 42

        assert reg.get("f") is factory

    def test_builtin_registrations_present(self):
        assert set(registry.dataset_names()) >= {
            "adult", "credit", "synthetic", "titanic",
        }
        assert registry.base_model_names() == ("mlp", "random_forest")
        assert set(registry.task_strategy_names()) >= {
            "imperfect", "increase_price", "strategic",
        }
        assert set(registry.data_strategy_names()) >= {
            "imperfect", "random_bundle", "strategic",
        }
        assert set(registry.COSTS.names()) >= {
            "constant", "exponential", "linear", "none",
        }


class TestCliChoicesAreRegistrySourced:
    """`build_parser()` help text mirrors the registry contents."""

    def _help(self, command, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        return capsys.readouterr().out

    def test_bargain_help_lists_registries(self, capsys):
        text = self._help("bargain", capsys)
        for name in registry.dataset_names():
            assert name in text
        for name in registry.base_model_names():
            assert name in text
        for name in registry.task_strategy_names():
            assert name in text
        for name in registry.data_strategy_names():
            assert name in text

    def test_simulate_help_lists_presets(self, capsys):
        text = self._help("simulate", capsys)
        for name in registry.preset_names():
            assert name in text


class TestExtensionsPropagate:
    """One registration shows up in CLI help, specs, and the simulator."""

    @pytest.fixture
    def tiny_dataset(self):
        name = "zz_test_ds"

        @registry.register_dataset(
            name,
            preset=MarketPreset(
                config=MarketConfig(
                    utility_rate=500.0, budget=6.0,
                    initial_rate=6.2, initial_base=0.95,
                ),
                reserved_price_params={
                    "rate_floor": 5.0, "rate_per_feature": 0.15,
                    "base_floor": 0.80, "base_per_feature": 0.020,
                },
                n_bundles=8,
            ),
            gain_scale=0.15,
            synthetic=True,
        )
        def _loader():  # pragma: no cover - synthetic entries skip loaders
            raise AssertionError("synthetic datasets have no loader")

        yield name
        registry.DATASETS.unregister(name)

    @pytest.fixture
    def tiny_task_strategy(self):
        name = "zz_eager"

        @registry.register_task_strategy(name)
        def _eager(ctx):
            return StrategicTaskParty(
                ctx.config, list(ctx.gains.values()),
                cost_model=ctx.cost_model, rng=ctx.rng,
            )

        yield name
        registry.TASK_STRATEGIES.unregister(name)

    @pytest.fixture
    def tiny_cost(self):
        name = "zz_flat"
        registry.register_cost(name, lambda a: ConstantCost(float(a)))
        yield name
        registry.COSTS.unregister(name)

    # ------------------------------------------------------------------
    def test_dataset_appears_in_cli_choices_and_help(self, tiny_dataset, capsys):
        args = build_parser().parse_args(["bargain", "--dataset", tiny_dataset])
        assert args.dataset == tiny_dataset
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bargain", "--help"])
        assert tiny_dataset in capsys.readouterr().out
        # ...and as a simulate --preset anchor.
        args = build_parser().parse_args(["simulate", "--preset", tiny_dataset])
        assert args.preset == tiny_dataset

    def test_unregistered_dataset_rejected_by_cli(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bargain", "--dataset", "zz_test_ds"])

    def test_strategy_appears_in_cli_spec_and_mix(self, tiny_task_strategy):
        args = build_parser().parse_args(["bargain", "--task", tiny_task_strategy])
        assert args.task == tiny_task_strategy
        spec = SessionSpec(market="x", task=tiny_task_strategy)
        assert spec.task == tiny_task_strategy
        sim = SimulationSpec(
            strategy_mix=((tiny_task_strategy, "strategic", 1.0),)
        )
        assert sim.population_spec().strategy_mix[0][0] == tiny_task_strategy

    def test_registered_strategy_drives_population_sessions(
        self, tiny_task_strategy
    ):
        from repro.simulate import PopulationSpec, SessionPool, sample_population
        from repro.simulate.pool import session_record_arrays

        spec = PopulationSpec(
            preset="synthetic",
            strategy_mix=((tiny_task_strategy, "strategic", 1.0),),
        )
        population = sample_population(spec, 6, seed=0)
        # Not the built-in strategic pair -> stepwise engine path.
        assert not population.kernel_eligible().any()
        result = SessionPool(population, batch_size=4).run()
        assert result.stepped_sessions == 6
        # The stepwise pool path is bit-identical to running the same
        # factory-built engines one by one.
        naive = session_record_arrays(6)
        for i in range(6):
            SessionPool._record(naive, i, population.build_engine(i).run())
        for key, want in naive.items():
            assert np.array_equal(getattr(result, key), want, equal_nan=True), key

    def test_registered_cost_kind_runs_on_the_kernel(self, tiny_cost):
        from repro.simulate import PopulationSpec, SessionPool, sample_population
        from repro.simulate.pool import session_record_arrays

        spec = PopulationSpec(
            preset="synthetic", cost_mix=((tiny_cost, 0.01, 1.0),)
        )
        population = sample_population(spec, 5, seed=0)
        assert population.kernel_eligible().all()
        result = SessionPool(population, batch_size=4).run()
        assert result.kernel_sessions == 5
        assert population.cost_model(0)(3) == pytest.approx(0.01)
        # The kernel calls the registered model: every session equals
        # its factory-built engine on all eleven record fields.
        naive = session_record_arrays(5)
        for i in range(5):
            SessionPool._record(naive, i, population.build_engine(i).run())
        for key, values in naive.items():
            assert np.array_equal(getattr(result, key), values, equal_nan=True), key
        assert (result.cost_task == 0.01).all()
