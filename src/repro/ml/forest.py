"""Random Forest classifier — the paper's tree-based base model.

Bootstrap-aggregated histogram CARTs with per-node feature subsampling
(gini criterion, §4.1.2).  Binning happens once per forest; every tree
shares the :class:`~repro.ml.tree.BinnedDesign` and only draws bootstrap
row indices, which is what makes forest-based ΔG oracles affordable in
pure numpy.
"""

from __future__ import annotations

import numpy as np

from repro.ml.tree import DecisionTreeClassifier, quantile_bin
from repro.utils.rng import as_generator, spawn
from repro.utils.validation import check_matrix, check_vector, require

__all__ = ["RandomForestClassifier"]


class RandomForestClassifier:
    """Bagged decision trees with majority-probability voting.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_depth / min_samples_leaf / max_bins:
        Forwarded to each :class:`~repro.ml.tree.DecisionTreeClassifier`.
    max_features:
        Per-node feature subsample; default ``"sqrt"`` (standard RF).
    rng:
        Seed/generator; per-tree streams are split deterministically.
    """

    def __init__(
        self,
        n_estimators: int = 20,
        *,
        max_depth: int = 8,
        min_samples_leaf: int = 2,
        max_features: int | str | None = "sqrt",
        max_bins: int = 32,
        rng: object = None,
    ):
        require(n_estimators >= 1, "n_estimators must be >= 1")
        self.n_estimators = int(n_estimators)
        self.max_depth = int(max_depth)
        self.min_samples_leaf = int(min_samples_leaf)
        self.max_features = max_features
        self.max_bins = int(max_bins)
        self.rng = as_generator(rng)
        self.trees_: list[DecisionTreeClassifier] = []

    def fit(self, X: object, y: object) -> "RandomForestClassifier":
        """Fit ``n_estimators`` trees on bootstrap resamples of ``(X, y)``."""
        X = check_matrix(X)
        y = check_vector(y)
        design = quantile_bin(X, max_bins=self.max_bins)
        n = X.shape[0]
        self.trees_ = []
        for t in range(self.n_estimators):
            tree_rng = spawn(self.rng, "tree", t)
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                max_bins=self.max_bins,
                rng=tree_rng,
            )
            indices = tree_rng.integers(0, n, size=n)
            tree.fit_binned(design, y, sample_indices=indices)
            self.trees_.append(tree)
        return self

    def predict_proba(self, X: object) -> np.ndarray:
        """Mean of the trees' leaf probabilities."""
        require(bool(self.trees_), "forest must be fit before predicting")
        X = check_matrix(X)
        acc = np.zeros(X.shape[0])
        for tree in self.trees_:
            acc += tree.predict_proba(X)
        return acc / len(self.trees_)

    def predict(self, X: object) -> np.ndarray:
        """Hard 0/1 predictions at the 0.5 threshold."""
        return (self.predict_proba(X) >= 0.5).astype(np.int64)

    def score(self, X: object, y: object) -> float:
        """Accuracy on ``(X, y)``."""
        y = check_vector(y, dtype=np.int64)
        return float((self.predict(X) == y).mean())
