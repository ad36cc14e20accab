"""Spec round-trips, digest stability, and validation errors."""

import pytest

from repro.service import MarketSpec, SessionSpec, SimulationSpec


class TestMarketSpec:
    def test_round_trip(self):
        spec = MarketSpec(
            dataset="titanic",
            base_model="mlp",
            seed=3,
            n_bundles=8,
            model_params={"epochs": 5},
            config_overrides={"max_rounds": 50},
            jobs=2,
            cache_dir="/tmp/c",
        )
        clone = MarketSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.digest() == spec.digest()

    def test_digest_pinned(self):
        # Digests are cache keys; silent canonicalisation drift would
        # orphan persistent entries.  Pinned for the simplest spec.
        spec = MarketSpec(dataset="synthetic", seed=0)
        assert spec.digest() == "891c9d326d35fc2e"

    def test_execution_knobs_enter_full_digest(self):
        a = MarketSpec(dataset="titanic", no_cache=True)
        b = MarketSpec(dataset="titanic", no_cache=False)
        c = MarketSpec(dataset="titanic", no_cache=True, jobs=4)
        assert len({a.digest(), b.digest(), c.digest()}) == 3

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            MarketSpec(dataset="mnist")

    def test_unknown_base_model_rejected(self):
        with pytest.raises(ValueError, match="unknown base model"):
            MarketSpec(dataset="titanic", base_model="svm")

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown MarketSpec keys"):
            MarketSpec.from_dict({"dataset": "titanic", "jbos": 4})

    def test_cache_resolution(self, tmp_path):
        assert MarketSpec(dataset="titanic", no_cache=True).cache() is None
        cache = MarketSpec(dataset="titanic", cache_dir=str(tmp_path)).cache()
        assert cache is not None and cache.directory == str(tmp_path)


class TestSessionSpec:
    def test_round_trip_nested_market(self):
        spec = SessionSpec(
            market=MarketSpec(dataset="synthetic", seed=1),
            task="increase_price",
            data="random_bundle",
            seed=7,
            run=3,
            cost_task=("linear", 0.05),
            config_overrides={"max_rounds": 9},
        )
        clone = SessionSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.digest() == spec.digest()

    def test_digest_pinned(self):
        spec = SessionSpec(
            market=MarketSpec(dataset="synthetic", seed=0), seed=7, run=3
        )
        assert spec.digest() == "2ded0941cc84e123"

    def test_market_may_be_pool_digest(self):
        spec = SessionSpec(market="891c9d326d35fc2e", seed=0)
        assert SessionSpec.from_dict(spec.to_dict()) == spec

    def test_secure_keys_emitted_only_off_default(self):
        # Plain specs keep their pre-secure wire shape and digest.
        plain = SessionSpec(market="x", seed=0)
        assert "secure" not in plain.to_dict()
        assert "key_bits" not in plain.to_dict()
        secure = SessionSpec(market="x", seed=0, secure=True, key_bits=512)
        payload = secure.to_dict()
        assert payload["secure"] is True and payload["key_bits"] == 512
        assert SessionSpec.from_dict(payload) == secure
        assert secure.digest() != plain.digest()

    def test_secure_validation(self):
        with pytest.raises(ValueError, match="key_bits"):
            SessionSpec(market="x", secure=True, key_bits=64)
        with pytest.raises(ValueError, match="secure must be a bool"):
            SessionSpec(market="x", secure=1)

    def test_engine_seed_matches_bargain_many_derivation(self):
        from repro.utils.rng import spawn

        spec = SessionSpec(market="x", seed=5, run=2)
        expected = spawn(5, "run", 2)
        got = spec.engine_seed()
        assert got.bit_generator.state == expected.bit_generator.state
        assert SessionSpec(market="x", seed=5).engine_seed() == 5

    def test_unknown_strategies_rejected(self):
        with pytest.raises(ValueError, match="unknown task strategy"):
            SessionSpec(market="x", task="oracle_cheat")
        with pytest.raises(ValueError, match="unknown data strategy"):
            SessionSpec(market="x", data="oracle_cheat")

    def test_cost_pairs_validated(self):
        with pytest.raises(ValueError, match="unknown cost kind"):
            SessionSpec(market="x", cost_task=("frobnicate", 1.0))
        with pytest.raises(ValueError, match="linear cost needs a > 0"):
            SessionSpec(market="x", cost_data=("linear", 0.0))
        spec = SessionSpec(market="x", cost_task=("linear", 0.05))
        cost_task, cost_data = spec.cost_models()
        assert cost_task is not None and cost_data is None

    def test_information_validated(self):
        with pytest.raises(ValueError, match="information"):
            SessionSpec(market="x", information="partial")


class TestSimulationSpec:
    def test_round_trip(self):
        spec = SimulationSpec(
            sessions=50,
            preset="titanic",
            strategy_mix=(("strategic", "strategic", 0.5),
                          ("increase_price", "strategic", 0.5)),
            cost_mix=(("none", 0.0, 0.7), ("linear", 0.05, 0.3)),
        )
        clone = SimulationSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.digest() == spec.digest()

    def test_digest_pinned(self):
        assert SimulationSpec(sessions=100, seed=1).digest() == "053c74fd2bfa5e03"

    def test_json_lists_normalise_to_tuples(self):
        spec = SimulationSpec.from_dict({
            "sessions": 10,
            "strategy_mix": [["strategic", "strategic", 1.0]],
        })
        assert spec.strategy_mix == (("strategic", "strategic", 1.0),)

    def test_preset_resolution(self):
        assert SimulationSpec().resolved_preset() == "synthetic"
        assert SimulationSpec(dataset="credit").resolved_preset() == "credit"
        assert (SimulationSpec(dataset="credit", preset="adult")
                .resolved_preset() == "adult")

    def test_market_spec_only_with_dataset(self):
        from repro.service.simulation import backing_market_spec

        assert backing_market_spec(SimulationSpec()) is None
        backing = backing_market_spec(SimulationSpec(dataset="titanic", jobs=2))
        assert backing.dataset == "titanic" and backing.jobs == 2

    def test_bad_mixes_rejected(self):
        with pytest.raises(ValueError, match="unknown task strategy"):
            SimulationSpec(strategy_mix=(("alien", "strategic", 1.0),))
        with pytest.raises(ValueError, match="unknown cost kind"):
            SimulationSpec(cost_mix=(("frobnicate", 2.0, 1.0),))
        with pytest.raises(ValueError, match="unknown preset"):
            SimulationSpec(preset="mnist")
