"""Tests for the federated forest: losslessness and protocol hygiene."""

import numpy as np
import pytest

from repro.data import load_titanic
from repro.ml import RandomForestClassifier
from repro.vfl import Channel, FederatedForest
from repro.vfl.parties import parties_from_dataset


@pytest.fixture(scope="module")
def setting():
    dataset = load_titanic(500, seed=0).prepare(seed=0)
    task, data = parties_from_dataset(dataset)
    return dataset, task, data


def centralized_proba(dataset, n_estimators, **kw):
    Xtr = np.hstack([dataset.task_train, dataset.data_train])
    Xte = np.hstack([dataset.task_test, dataset.data_test])
    rf = RandomForestClassifier(n_estimators, min_samples_leaf=2, **kw)
    rf.fit(Xtr, dataset.y_train.astype(float))
    return rf.predict_proba(Xte)


class TestLosslessness:
    def test_equivalence_without_feature_sampling(self, setting):
        """With every feature at every node the protocol is exactly lossless."""
        dataset, task, data = setting
        ch = Channel()
        ff = FederatedForest(4, max_depth=5, max_features=None, rng=0).fit(
            task, data, range(dataset.d_data), ch
        )
        p_fed = ff.predict_proba(dataset.test_idx, ch)
        p_cen = centralized_proba(dataset, 4, max_depth=5, max_features=None, rng=0)
        np.testing.assert_array_equal(p_fed, p_cen)

    def test_equivalence_with_bootstrap_and_feature_sampling(self, setting):
        """Shared seeds align the bootstrap/feature-sampling streams too."""
        dataset, task, data = setting
        ch = Channel()
        ff = FederatedForest(6, max_depth=6, rng=42).fit(
            task, data, range(dataset.d_data), ch
        )
        p_fed = ff.predict_proba(dataset.test_idx, ch)
        p_cen = centralized_proba(dataset, 6, max_depth=6, rng=42)
        np.testing.assert_array_equal(p_fed, p_cen)

    def test_partial_bundle_matches_centralized_on_subset(self, setting):
        dataset, task, data = setting
        bundle = (0, 2, 5)
        ch = Channel()
        ff = FederatedForest(3, max_depth=4, max_features=None, rng=1).fit(
            task, data, bundle, ch
        )
        p_fed = ff.predict_proba(dataset.test_idx, ch)
        Xtr = np.hstack([dataset.task_train, dataset.data_train[:, list(bundle)]])
        Xte = np.hstack([dataset.task_test, dataset.data_test[:, list(bundle)]])
        rf = RandomForestClassifier(
            3, max_depth=4, max_features=None, min_samples_leaf=2, rng=1
        ).fit(Xtr, dataset.y_train.astype(float))
        np.testing.assert_array_equal(p_fed, rf.predict_proba(Xte))


class TestProtocolHygiene:
    def test_data_party_thresholds_stay_private(self, setting):
        """Task party's tree never materialises data-party thresholds."""
        dataset, task, data = setting
        ch = Channel()
        ff = FederatedForest(3, max_depth=5, rng=0).fit(
            task, data, range(dataset.d_data), ch
        )
        saw_data_split = False
        for tree in ff.trees_:
            for i, owner in enumerate(tree.owner_):
                if owner == 1 and tree.left_[i] != -1:
                    saw_data_split = True
                    assert tree.feature_[i] == -1
                    assert tree.threshold_[i] == 0.0
                    assert tree.uid_[i] >= 0
        assert saw_data_split, "expected at least one data-party split"

    def test_message_kinds_follow_protocol(self, setting):
        dataset, task, data = setting
        ch = Channel(keep_log=True)
        FederatedForest(2, max_depth=3, rng=0).fit(
            task, data, range(dataset.d_data), ch
        )
        kinds = {entry[2] for entry in ch.log}
        assert kinds <= {"hist_request", "hist_response", "split_request", "split_response"}

    def test_traffic_accounted(self, setting):
        dataset, task, data = setting
        ch = Channel()
        ff = FederatedForest(2, max_depth=4, rng=0).fit(
            task, data, range(dataset.d_data), ch
        )
        train_stats = ch.stats()
        assert train_stats["messages"] > 0 and train_stats["bytes"] > 0
        assert train_stats["rounds"] == 2  # one per tree
        ff.predict_proba(dataset.test_idx, ch)
        assert ch.stats()["messages"] > train_stats["messages"]

    def test_empty_bundle_rejected(self, setting):
        dataset, task, data = setting
        with pytest.raises(ValueError, match="at least one feature"):
            FederatedForest(2, rng=0).fit(task, data, (), Channel())

    def test_predict_before_fit_rejected(self):
        with pytest.raises(ValueError, match="fit"):
            FederatedForest(2, rng=0).predict_proba(np.arange(3), Channel())
