"""Tests for the Random Forest classifier."""

import numpy as np
import pytest

from repro.ml import DecisionTreeClassifier, RandomForestClassifier


def noisy_blobs(n=400, seed=0):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    X = rng.normal(0, 1.0, size=(n, 6))
    X[:, 0] += 1.6 * y
    X[:, 1] -= 1.2 * y
    return X, y.astype(float)


class TestRandomForest:
    def test_learns_noisy_data(self):
        X, y = noisy_blobs()
        Xte, yte = noisy_blobs(seed=1)
        forest = RandomForestClassifier(25, max_depth=6, rng=0).fit(X, y)
        # Bayes-optimal accuracy for this separation is ~0.84.
        assert forest.score(Xte, yte.astype(int)) > 0.75

    def test_ensemble_beats_single_deep_tree_out_of_sample(self):
        X, y = noisy_blobs(seed=2)
        Xte, yte = noisy_blobs(seed=3)
        tree = DecisionTreeClassifier(max_depth=12, rng=0).fit(X, y)
        forest = RandomForestClassifier(30, max_depth=12, rng=0).fit(X, y)
        assert forest.score(Xte, yte.astype(int)) >= tree.score(Xte, yte.astype(int))

    def test_deterministic_given_rng(self):
        X, y = noisy_blobs(100)
        p1 = RandomForestClassifier(5, rng=9).fit(X, y).predict_proba(X)
        p2 = RandomForestClassifier(5, rng=9).fit(X, y).predict_proba(X)
        np.testing.assert_array_equal(p1, p2)

    def test_different_seeds_differ(self):
        X, y = noisy_blobs(100)
        p1 = RandomForestClassifier(5, rng=1).fit(X, y).predict_proba(X)
        p2 = RandomForestClassifier(5, rng=2).fit(X, y).predict_proba(X)
        assert not np.allclose(p1, p2)

    def test_probabilities_bounded(self):
        X, y = noisy_blobs(100)
        proba = RandomForestClassifier(10, rng=0).fit(X, y).predict_proba(X)
        assert proba.min() >= 0.0 and proba.max() <= 1.0

    def test_trees_differ_by_bootstrap_sample_alone(self):
        # Every feature at every node: only the bootstrap resample
        # tells the trees apart, so bagging must make them differ.
        X, y = noisy_blobs(100)
        forest = RandomForestClassifier(4, max_features=None, rng=0).fit(X, y)
        assert len(forest.trees_) == 4
        probas = [tree.predict_proba(X) for tree in forest.trees_]
        assert any(not np.array_equal(probas[0], p) for p in probas[1:])

    def test_predict_before_fit_rejected(self):
        with pytest.raises(ValueError, match="fit"):
            RandomForestClassifier(2).predict(np.zeros((1, 2)))

    def test_nonbinary_labels_rejected(self):
        with pytest.raises(ValueError, match="binary"):
            RandomForestClassifier(2, rng=0).fit(
                np.zeros((4, 1)), np.array([0, 1, 2, 1])
            )

    def test_n_estimators_validation(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(0)
