"""Bit-identity of the fast course kernel and the factory build.

These are the golden guarantees of the oracle factory: for the same
seeds it must reproduce the seed serial path **exactly** — not within
tolerance — across kernels, worker counts and cache states.
"""

import numpy as np
import pytest

from repro.data import load_titanic
from repro.market.bundle import FeatureBundle, sample_bundles
from repro.market.oracle import PerformanceOracle
from repro.ml.forest import RandomForestClassifier
from repro.oracle_factory import FastForestCourse, SharedDesigns, build_oracle
from repro.utils.rng import spawn
from repro.vfl import run_vfl

PARAMS = {"n_estimators": 6, "max_depth": 6}


@pytest.fixture(scope="module")
def dataset():
    return load_titanic(500, seed=0).prepare(seed=0)


@pytest.fixture(scope="module")
def shared(dataset):
    return SharedDesigns(dataset, max_bins=32)


class TestFastCourseKernel:
    def _forest_proba(self, dataset, bundle, seed, **kw):
        Xtr = np.hstack([dataset.task_train, dataset.data_train[:, list(bundle)]])
        Xte = np.hstack([dataset.task_test, dataset.data_test[:, list(bundle)]])
        rf = RandomForestClassifier(
            kw.get("n_estimators", 6),
            max_depth=kw.get("max_depth", 6),
            min_samples_leaf=kw.get("min_samples_leaf", 2),
            max_features=kw.get("max_features", "sqrt"),
            rng=spawn(seed, "course", tuple(bundle)),
        )
        rf.fit(Xtr, dataset.y_train.astype(np.float64))
        return rf.predict_proba(Xte)

    def _fast_proba(self, dataset, shared, bundle, seed, **kw):
        course = FastForestCourse(
            shared.course_design(bundle),
            shared.y_train,
            n_estimators=kw.get("n_estimators", 6),
            max_depth=kw.get("max_depth", 6),
            min_samples_leaf=kw.get("min_samples_leaf", 2),
            max_features=kw.get("max_features", "sqrt"),
            rng=spawn(seed, "course", tuple(bundle)),
        )
        course.fit()
        return course.predict_proba_binned(shared.course_test_codes(bundle))

    def test_probabilities_equal_centralized_forest(self, dataset, shared):
        for seed, bundle in [(0, (0, 2, 5)), (1, (1,)), (7, tuple(range(dataset.d_data)))]:
            p_fast = self._fast_proba(dataset, shared, bundle, seed)
            p_ref = self._forest_proba(dataset, bundle, seed)
            np.testing.assert_array_equal(p_fast, p_ref)

    def test_equal_without_feature_subsampling(self, dataset, shared):
        kw = {"max_features": None}
        p_fast = self._fast_proba(dataset, shared, (0, 1, 2), 3, **kw)
        p_ref = self._forest_proba(dataset, (0, 1, 2), 3, **kw)
        np.testing.assert_array_equal(p_fast, p_ref)

    def test_equal_across_depth_and_leaf_params(self, dataset, shared):
        kw = {"max_depth": 3, "min_samples_leaf": 5, "n_estimators": 4}
        p_fast = self._fast_proba(dataset, shared, (2, 4), 11, **kw)
        p_ref = self._forest_proba(dataset, (2, 4), 11, **kw)
        np.testing.assert_array_equal(p_fast, p_ref)


class TestFactoryEquivalence:
    @pytest.fixture(scope="class")
    def catalogue(self, dataset):
        return sample_bundles(dataset.d_data, 6, rng=spawn(0, "cat"))

    @pytest.fixture(scope="class")
    def reference(self, dataset, catalogue):
        return PerformanceOracle.build_serial_reference(
            dataset, catalogue, model_params=PARAMS, seed=0, n_repeats=2
        )

    def test_serial_factory_bit_identical(self, dataset, catalogue, reference):
        oracle, report = build_oracle(
            dataset, catalogue, model_params=PARAMS, seed=0, n_repeats=2, jobs=1
        )
        assert oracle.gains() == reference.gains()
        assert oracle.isolated == reference.isolated
        assert report.courses_run == 2 * (len(catalogue) + 1)

    def test_parallel_factory_bit_identical(self, dataset, catalogue, reference):
        oracle, report = build_oracle(
            dataset, catalogue, model_params=PARAMS, seed=0, n_repeats=2, jobs=2
        )
        assert oracle.gains() == reference.gains()
        assert oracle.isolated == reference.isolated
        assert report.jobs == 2

    def test_default_build_delegates_to_factory(self, dataset, catalogue, reference):
        oracle = PerformanceOracle.build(
            dataset, catalogue, model_params=PARAMS, seed=0, n_repeats=2
        )
        assert oracle.gains() == reference.gains()
        assert oracle.build_report.courses_run == 2 * (len(catalogue) + 1)

    def test_single_bundle_single_repeat(self, dataset):
        bundles = [FeatureBundle.of([0, 1])]
        ref = PerformanceOracle.build_serial_reference(
            dataset, bundles, model_params=PARAMS, seed=42
        )
        oracle, _ = build_oracle(dataset, bundles, model_params=PARAMS, seed=42)
        assert oracle.gains() == ref.gains()

    def test_mlp_factory_matches_reference(self, dataset):
        bundles = [FeatureBundle.of([0]), FeatureBundle.of([1, 2])]
        params = {"epochs": 3}
        ref = PerformanceOracle.build_serial_reference(
            dataset, bundles, base_model="mlp", model_params=params, seed=0
        )
        oracle, _ = build_oracle(
            dataset, bundles, base_model="mlp", model_params=params, seed=0
        )
        assert oracle.gains() == ref.gains()


class TestFederatedCourseStillLossless:
    def test_fed_course_equals_fast_course_delta(self, dataset, shared):
        """End-to-end: ΔG via the federated protocol equals ΔG via the
        fast kernel under the oracle's actual seed derivation."""
        bundle = (0, 2, 4)
        m0 = 0.6
        fed = run_vfl(
            dataset, bundle, seed=0, m0=m0,
            model_params={"n_estimators": 5, "max_depth": 5},
        )
        course = FastForestCourse(
            shared.course_design(bundle),
            shared.y_train,
            n_estimators=5,
            max_depth=5,
            min_samples_leaf=2,
            max_features="sqrt",
            rng=spawn(0, dataset.name, "random_forest", "joint", bundle),
        )
        course.fit()
        m = course.score_binned(shared.course_test_codes(bundle), shared.y_test)
        assert m == fed.performance_joint
