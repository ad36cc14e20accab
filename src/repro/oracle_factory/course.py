"""Bit-identical fast replay of a random-forest VFL course.

The federated forest protocol is **lossless**: with shared seeds it
produces exactly the predictions of the centralised
:class:`~repro.ml.forest.RandomForestClassifier` on the concatenated
party features (pinned by ``tests/vfl/test_fedforest.py``).  The
platform therefore does not need to simulate channel traffic to learn a
course's ΔG — it can replay the course centrally, provided the replay
consumes randomness and breaks ties *exactly* like the seed path.

:class:`FastForestCourse` is that replay, rebuilt around the per-node
cost profile of oracle workloads (many small histogram/score arrays):

* histograms are computed **only over the node's sampled feature
  subset** (``max_features``), not all features — the subset is sorted
  so the flattened argmax keeps the seed path's row-major tie-breaking;
* one label-offset ``bincount`` yields count and positive histograms
  together, and one stacked ``cumsum`` yields all four child statistics
  (the label-0 half *is* ``cnt_l - pos_l``, exact in integers);
* node sizes and positive counts are propagated from the parent's
  split statistics, so terminal nodes cost no array work at all;
* the fitted ensemble is flattened and traversed once over pre-binned
  test codes (prediction semantics, see
  :mod:`~repro.oracle_factory.designs`).

Every floating-point expression keeps the operation order of
:func:`repro.ml.tree.best_split` on exactly-integer inputs, and every
generator method call (`integers`, `choice`) matches the seed path call
for call — which is what makes the results bit-identical rather than
merely statistically equivalent (pinned by
``tests/oracle_factory/test_course_equivalence.py``).
"""

from __future__ import annotations

import numpy as np

from repro.ml.tree import BinnedDesign, resolve_max_features
from repro.utils.rng import as_generator, spawn
from repro.utils.validation import require

__all__ = ["FastForestCourse"]

_LEAF = -1
_NEG_INF = -np.inf


class FastForestCourse:
    """Grow and score one forest course on a pre-binned design.

    Parameters mirror :class:`~repro.ml.forest.RandomForestClassifier`;
    ``rng`` must be the same generator the seed path would construct for
    this course (bit-identity is a property of the *pair* (kernel,
    stream)).
    """

    def __init__(
        self,
        design: BinnedDesign,
        y: np.ndarray,
        *,
        n_estimators: int = 15,
        max_depth: int = 8,
        min_samples_leaf: int = 2,
        max_features: int | str | None = "sqrt",
        rng: object = None,
    ):
        require(n_estimators >= 1, "n_estimators must be >= 1")
        require(design.n_samples == np.asarray(y).shape[0], "design/y row mismatch")
        self.design = design
        self.y_bool = np.asarray(y) != 0.0
        self.n_estimators = int(n_estimators)
        self.max_depth = int(max_depth)
        self.min_samples_leaf = int(min_samples_leaf)
        self.max_features = max_features
        self.rng = as_generator(rng)
        self.trees_: list[tuple[np.ndarray, ...]] = []

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(self) -> "FastForestCourse":
        """Grow ``n_estimators`` trees, consuming rng like the seed path."""
        design = self.design
        d, n_bins = design.n_features, design.n_bins
        n = self.y_bool.shape[0]
        max_feat = resolve_max_features(self.max_features, d)
        subset = max_feat < d
        k = max_feat if subset else d
        n_cuts = np.array([e.shape[0] for e in design.edges], dtype=np.int64)
        offs = np.arange(k, dtype=np.int64) * n_bins
        valid_full = (
            np.arange(n_bins - 1, dtype=np.int64)[None, :] < n_cuts[:, None]
            if n_bins > 1
            else np.zeros((d, 0), dtype=bool)
        )
        block = k * n_bins
        two_block = 2 * block
        msl = self.min_samples_leaf
        max_depth = self.max_depth
        nb1 = n_bins - 1
        all_features = np.arange(d, dtype=np.int64)
        # Labels folded into the codes: one bincount per node counts the
        # (feature, bin, label) cells of both histograms at once.
        codes64 = design.codes.astype(np.int64)
        labeled = codes64 + (self.y_bool.astype(np.int64) * block)[:, None]
        trees = []
        with np.errstate(divide="ignore", invalid="ignore"):
            for t in range(self.n_estimators):
                tree_rng = spawn(self.rng, "tree", t)
                rows0 = tree_rng.integers(0, n, size=n)
                pos_root = int(self.y_bool[rows0].sum())
                feature_: list[int] = []
                bin_: list[int] = []
                left_: list[int] = []
                right_: list[int] = []
                value_: list[float] = []

                def new_node(value: float) -> int:
                    feature_.append(_LEAF)
                    bin_.append(0)
                    left_.append(_LEAF)
                    right_.append(_LEAF)
                    value_.append(value)
                    return len(feature_) - 1

                root = new_node(pos_root / n)
                stack = []
                if not (
                    max_depth <= 0
                    or n < 2
                    or pos_root == 0
                    or pos_root == n
                    or n_bins <= 1
                ):
                    stack.append((root, rows0, 0, n, pos_root))
                while stack:
                    node, rows, depth, n_node, pos = stack.pop()
                    if subset:
                        chosen = tree_rng.choice(d, size=max_feat, replace=False)
                        chosen.sort()
                        valid = valid_full[chosen]
                        sub = labeled[rows[:, None], chosen[None, :]]
                    else:
                        chosen = all_features
                        valid = valid_full
                        sub = labeled[rows]
                    sub += offs
                    h = np.bincount(sub.ravel(), minlength=two_block)
                    S = h.reshape(2 * k, n_bins)[:, :-1].cumsum(axis=1)
                    neg_l = S[:k]
                    pos_l = S[k:]
                    cnt_l = neg_l + pos_l
                    cnt_r = n_node - cnt_l
                    pos_r = pos - pos_l
                    neg_r = (n_node - pos) - neg_l
                    ok = (np.minimum(cnt_l, cnt_r) >= msl) & valid
                    # Same expression (and op order) as ml.tree.best_split
                    # on exactly-integer histograms.
                    score = np.where(
                        ok,
                        (pos_l * pos_l + neg_l * neg_l) / cnt_l
                        + (pos_r * pos_r + neg_r * neg_r) / cnt_r,
                        _NEG_INF,
                    )
                    flat_best = int(score.argmax())
                    f_sub, b = divmod(flat_best, nb1)
                    parent = (pos * pos + (n_node - pos) ** 2) / n_node
                    if score[f_sub, b] <= parent + 1e-12:
                        continue
                    f = int(chosen[f_sub])
                    go_left = codes64[rows, f] <= b
                    rows_l = rows[go_left]
                    rows_r = rows[~go_left]
                    n_left = int(cnt_l[f_sub, b])
                    pos_left = int(pos_l[f_sub, b])
                    n_right = n_node - n_left
                    pos_right = pos - pos_left
                    left_id = new_node(pos_left / n_left)
                    right_id = new_node(pos_right / n_right)
                    feature_[node] = f
                    bin_[node] = b
                    left_[node] = left_id
                    right_[node] = right_id
                    child_depth = depth + 1
                    if not (
                        child_depth >= max_depth
                        or n_left < 2
                        or pos_left == 0
                        or pos_left == n_left
                    ):
                        stack.append((left_id, rows_l, child_depth, n_left, pos_left))
                    if not (
                        child_depth >= max_depth
                        or n_right < 2
                        or pos_right == 0
                        or pos_right == n_right
                    ):
                        stack.append(
                            (right_id, rows_r, child_depth, n_right, pos_right)
                        )
                trees.append(
                    (
                        np.asarray(feature_, dtype=np.int64),
                        np.asarray(bin_, dtype=np.int64),
                        np.asarray(left_, dtype=np.int64),
                        np.asarray(right_, dtype=np.int64),
                        np.asarray(value_),
                    )
                )
        self.trees_ = trees
        self._flatten()
        return self

    def _flatten(self) -> None:
        """Concatenate the ensemble for one-pass vectorised traversal."""
        trees = self.trees_
        sizes = [tr[0].shape[0] for tr in trees]
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.int64)
        self._flat_feature = np.concatenate([tr[0] for tr in trees])
        self._flat_bin = np.concatenate([tr[1] for tr in trees])
        self._flat_left = np.concatenate(
            [np.where(tr[2] != _LEAF, tr[2] + s, _LEAF) for tr, s in zip(trees, starts)]
        )
        self._flat_right = np.concatenate(
            [np.where(tr[3] != _LEAF, tr[3] + s, _LEAF) for tr, s in zip(trees, starts)]
        )
        self._flat_value = np.concatenate([tr[4] for tr in trees])
        self._roots = starts

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def predict_proba_binned(self, test_codes: np.ndarray) -> np.ndarray:
        """Mean tree probability over rows pre-binned with side="left"."""
        require(bool(self.trees_), "course must be fit before predicting")
        m = test_codes.shape[0]
        n_trees = len(self.trees_)
        node = np.repeat(self._roots, m)
        rows = np.tile(np.arange(m), n_trees)
        active = self._flat_left[node] != _LEAF
        while active.any():
            idx = np.flatnonzero(active)
            cur = node[idx]
            go_left = (
                test_codes[rows[idx], self._flat_feature[cur]] <= self._flat_bin[cur]
            )
            node[idx] = np.where(go_left, self._flat_left[cur], self._flat_right[cur])
            active[idx] = self._flat_left[node[idx]] != _LEAF
        probs = self._flat_value[node].reshape(n_trees, m)
        # Sequential accumulation in tree order — the same float addition
        # order as the seed forest's `acc += tree.predict_proba(X)` loop.
        acc = np.zeros(m)
        for t in range(n_trees):
            acc += probs[t]
        return acc / n_trees

    def score_binned(self, test_codes: np.ndarray, y: np.ndarray) -> float:
        """Accuracy over pre-binned test rows (0.5 threshold)."""
        pred = (self.predict_proba_binned(test_codes) >= 0.5).astype(np.int64)
        return float((pred == np.asarray(y, dtype=np.int64)).mean())
