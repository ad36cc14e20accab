"""The gain cache's recipe index: warm builds without synthesising rows.

The index maps a built-in dataset's recipe to its content digest (the
data width comes from the schema), so a warm ``Market.from_spec`` reads
its gains without calling the loader.  These tests pin what the index may be trusted
with (the generators' output), prove that warm builds and sharded jobs
never touch the loader, and drive every way the index can be wrong back
to the cold result.
"""

import dataclasses
import json
import os

import pytest

import repro.data.synthetic as synthetic
from repro.data.synthetic import GENERATOR_VERSION
from repro.jobs import executor
from repro.market.market import Market
from repro.oracle_factory.cache import (
    DatasetFacts,
    DatasetRecipe,
    GainCache,
    dataset_digest,
)
from repro.service import registry
from repro.service.manager import shared_pool
from repro.service.specs import MarketSpec, SimulationSpec

#: ``(content digest, data width)`` of the built-in datasets at their
#: quick recipe, seed 0, per ``repro.data.synthetic.GENERATOR_VERSION``.
#: Warm builds trust the recipe index for as long as the version holds,
#: so generator output that moves needs a new version with its own pins;
#: the pins of a version never change.
PINNED_BY_VERSION = {
    1: {
        "titanic": ("8c102fbbf860be5c75d033b5638d631854c81b40caf8d16e40c8511bcbde1aad", 19),
        "credit": ("840c254776749f7ca702c7506365369f6adce8911ddc124dfa8522579b3a0a8f", 21),
        "adult": ("3a9cdaaa3dcd4593bfcfda5b85a1bcd0f6ad04ce120a4a1a005634c49a3eb7c5", 36),
    },
}
PINNED = PINNED_BY_VERSION.get(GENERATOR_VERSION, {})

#: Small forests keep the cold courses quick; the index does not care.
SMALL = {"n_estimators": 4, "max_depth": 4}


def _raise(*args, **kwargs):
    raise AssertionError("the loader must not run on a warm build")


def market_spec(cache_dir, dataset="titanic", **overrides):
    kwargs = dict(dataset=dataset, seed=0, n_bundles=6, model_params=SMALL)
    kwargs.update(overrides)
    if cache_dir is None:
        return MarketSpec(no_cache=True, **kwargs)
    return MarketSpec(cache_dir=str(cache_dir), **kwargs)


def signature(market):
    """Everything a built market hands to bargaining."""
    return (
        market.name,
        market.n_data_features,
        market.oracle.gains(),
        market.oracle.isolated,
        market.reserved_prices,
        market.config,
    )


def recipe_files(cache_dir):
    root = os.path.join(str(cache_dir), "recipes")
    return [os.path.join(root, name) for name in sorted(os.listdir(root))]


@pytest.fixture
def raising_loader(monkeypatch):
    """Replace a built-in's loader with one that raises; call it after the
    cold build.  The generator table is swapped too, so the raising
    loader still counts as the built-in one and stays indexed."""
    saved = {}

    def swap(name):
        entry = saved.setdefault(name, registry.DATASETS.get(name))
        monkeypatch.setitem(synthetic._LOADERS, name, _raise)
        registry.DATASETS.register(
            name, dataclasses.replace(entry, loader=_raise), overwrite=True
        )

    yield swap
    for name, entry in saved.items():
        registry.DATASETS.register(name, entry, overwrite=True)


@pytest.fixture
def fresh_world(monkeypatch):
    """No market or population survives from an earlier build."""
    shared_pool().clear()
    monkeypatch.setattr(executor, "_POPULATION_MEMO", None)
    yield
    shared_pool().clear()


class TestGeneratorDrift:
    def test_generator_version_is_pinned(self):
        assert GENERATOR_VERSION in PINNED_BY_VERSION
        assert sorted(PINNED) == ["adult", "credit", "titanic"]

    @pytest.mark.parametrize("name", ["adult", "credit", "titanic"])
    def test_builtin_digest_matches_pin_and_index(self, name, tmp_path):
        entry = registry.DATASETS.get(name)
        n_samples = entry.preset.quick_n_samples
        recipe = DatasetRecipe(name, entry.loader, seed=0, n_samples=n_samples)
        assert recipe.d_data == PINNED[name][1]  # the schema's width
        cache = GainCache(str(tmp_path))
        facts = recipe.verify(cache)  # a cold build: synthesise, then index
        assert facts == (name, PINNED[name][0])
        assert recipe.dataset.d_data == PINNED[name][1]
        key = GainCache.recipe_key(name, seed=0, n_samples=n_samples)
        assert cache.lookup_recipe(key) == PINNED[name][0]

    def test_key_covers_every_recipe_field(self, monkeypatch):
        base = GainCache.recipe_key("adult", seed=0, n_samples=2500)
        assert GainCache.recipe_key("adult", seed=0, n_samples=2500) == base
        assert GainCache.recipe_key("credit", seed=0, n_samples=2500) != base
        assert GainCache.recipe_key("adult", seed=1, n_samples=2500) != base
        assert GainCache.recipe_key("adult", seed=0, n_samples=None) != base
        monkeypatch.setattr(synthetic, "GENERATOR_VERSION", 2)
        assert GainCache.recipe_key("adult", seed=0, n_samples=2500) != base

    def test_fingerprint_unchanged_by_the_index(self, tmp_path):
        """Warm builds key the gains exactly as hashing the rows does, so
        caches written before the index existed stay warm."""
        cold = Market.from_spec(market_spec(tmp_path))
        digest, d_data = PINNED["titanic"]
        rows = cold.dataset
        assert dataset_digest(rows) == digest
        assert cold.n_data_features == d_data
        kw = dict(base_model="random_forest", model_params={}, seed=0)
        assert GainCache.fingerprint(rows, **kw) == GainCache.fingerprint(
            DatasetFacts("titanic", digest), **kw
        )


class TestWarmBuildSkipsTheLoader:
    def test_warm_market_equals_cold(self, tmp_path, raising_loader):
        cold = Market.from_spec(market_spec(tmp_path, dataset="adult"))
        assert cold.n_data_features == 36
        raising_loader("adult")
        warm = Market.from_spec(market_spec(tmp_path, dataset="adult"))
        assert signature(warm) == signature(cold)
        assert warm.oracle.build_report.courses_run == 0
        # The rows stay unbuilt until a caller reads them.
        with pytest.raises(AssertionError, match="must not run"):
            warm.dataset

    def test_sharded_job_merges_to_the_cold_digest(
        self, tmp_path, raising_loader, fresh_world
    ):
        from repro.service.simulation import run_simulation

        spec = SimulationSpec(
            sessions=40, dataset="titanic", seed=0, cache_dir=str(tmp_path)
        )
        cold = run_simulation(spec)[2].digest()
        shared_pool().clear()
        executor._POPULATION_MEMO = None
        raising_loader("titanic")
        payload = spec.to_dict()
        chunks = {
            i: executor.run_simulation_chunk(payload, start, stop)
            for i, (start, stop) in enumerate(executor.chunk_layout(40, 3))
        }
        shared_pool().clear()
        executor._POPULATION_MEMO = None  # the merge rebuilds its world too
        _, _, report = executor.merge_simulation_chunks(spec, chunks)
        assert report.digest() == cold


class TestIndexFailures:
    @pytest.fixture
    def cold(self):
        return signature(Market.from_spec(market_spec(None)))

    def test_corrupt_index_file(self, tmp_path, cold):
        Market.from_spec(market_spec(tmp_path))
        (path,) = recipe_files(tmp_path)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{ not json !!")
        assert signature(Market.from_spec(market_spec(tmp_path))) == cold
        with open(path, encoding="utf-8") as fh:  # rewritten by the rebuild
            assert json.load(fh)["digest"] == PINNED["titanic"][0]

    def test_index_pointing_at_a_wrong_digest(self, tmp_path, cold):
        Market.from_spec(market_spec(tmp_path))
        (path,) = recipe_files(tmp_path)
        with open(path, encoding="utf-8") as fh:
            entry = json.load(fh)
        entry["digest"] = "0" * 64
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(entry, fh)
        market = Market.from_spec(market_spec(tmp_path))
        assert signature(market) == cold
        # Nothing was stored under the wrong digest: the build found the
        # real rows' courses and ran none.
        assert market.oracle.build_report.courses_run == 0
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh)["digest"] == PINNED["titanic"][0]

    def test_custom_loader_change_between_builds(self, tmp_path):
        """Custom datasets are never indexed: a new loader means new rows."""
        from repro.data import load_titanic

        name = "zz_recipe_ds"
        preset = registry.DATASETS.get("titanic").preset

        def register(rows):
            registry.register_dataset(name, preset=preset, overwrite=True)(
                lambda seed=0: load_titanic(rows, seed=seed)
            )

        try:
            register(300)
            first = Market.from_spec(market_spec(tmp_path, dataset=name))
            register(400)
            warm = Market.from_spec(market_spec(tmp_path, dataset=name))
            cold = Market.from_spec(market_spec(None, dataset=name))
        finally:
            registry.DATASETS.unregister(name)
        assert signature(warm) == signature(cold)
        assert warm.oracle.build_report.courses_run > 0
        assert signature(first) != signature(warm)
        assert not os.path.exists(os.path.join(str(tmp_path), "recipes"))

    def test_builtin_name_with_another_loader_is_not_indexed(self, tmp_path):
        """Only the built-in generator itself is trusted under its name."""
        from repro.data import load_titanic

        entry = registry.DATASETS.get("titanic")
        registry.DATASETS.register(
            "titanic",
            dataclasses.replace(
                entry, loader=lambda seed=0: load_titanic(400, seed=seed)
            ),
            overwrite=True,
        )
        try:
            first = Market.from_spec(market_spec(tmp_path))
            second = Market.from_spec(market_spec(tmp_path))
        finally:
            registry.DATASETS.register("titanic", entry, overwrite=True)
        assert signature(first) == signature(second)
        assert second.oracle.build_report.courses_run == 0
        assert not os.path.exists(os.path.join(str(tmp_path), "recipes"))

