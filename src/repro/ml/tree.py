"""Histogram-based CART decision tree (gini) for binary classification.

This is the building block of the paper's Random Forest base model
(§4.1.2: *"a Random Forest model, with gini index as the splitting
metric"*).  Features are quantile-binned once (``max_bins`` levels);
each node then scores **every (feature, threshold) candidate at once**
from two ``bincount`` histograms, which keeps a pure-numpy tree fast
enough to power thousands of VFL courses inside bargaining simulations.

Binary labels only — every task in the paper's evaluation is binary
classification.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import as_generator
from repro.utils.validation import check_matrix, check_vector, require

__all__ = [
    "BinnedDesign",
    "DecisionTreeClassifier",
    "best_split",
    "node_histograms",
    "quantile_bin",
    "resolve_max_features",
]


def resolve_max_features(max_features: int | str | None, d: int) -> int:
    """Per-node feature-subsample size: ``None`` (all), ``"sqrt"``, or int.

    One definition shared by the tree, the forest and the oracle
    factory's replay kernel — the kernel's bit-identity depends on
    resolving exactly like the tree does.
    """
    if max_features is None:
        return d
    if max_features == "sqrt":
        return max(1, int(np.sqrt(d)))
    mf = int(max_features)
    require(1 <= mf <= d, f"max_features must be in [1, {d}]")
    return mf

_LEAF = -1


class BinnedDesign:
    """A quantile-binned feature matrix shared across trees.

    Attributes
    ----------
    codes:
        ``(n, d)`` uint8 bin codes; ``codes[i, j] = searchsorted(edges[j], X[i, j])``.
    edges:
        Per-feature ascending threshold arrays; splitting at bin ``b``
        sends rows with ``x <= edges[j][b]`` to the left child.
    n_bins:
        The padded bin count used for histogram layout.
    """

    __slots__ = ("codes", "edges", "n_bins")

    def __init__(self, codes: np.ndarray, edges: list[np.ndarray]):
        self.codes = codes
        self.edges = edges
        self.n_bins = int(codes.max(initial=0)) + 1 if codes.size else 1

    @property
    def n_samples(self) -> int:
        """Number of rows."""
        return int(self.codes.shape[0])

    @property
    def n_features(self) -> int:
        """Number of features."""
        return int(self.codes.shape[1])


def quantile_bin(X: object, *, max_bins: int = 32) -> BinnedDesign:
    """Bin each feature at (approximate) quantile thresholds.

    Features with few distinct values (e.g. indicator columns) keep one
    bin per value, so indicator splits stay exact.

    The per-column work is batched around **one** matrix sort: sorted
    columns yield every column's distinct values directly, and the
    linear-interpolation quantiles of all high-cardinality columns are
    read off the same sorted matrix in one vectorised pass (replicating
    ``np.quantile``'s lerp exactly, including its ``t >= 0.5`` branch).
    Edges and codes equal the per-column formulation bit for bit —
    pinned by ``tests/ml/test_tree.py``.
    """
    X = check_matrix(X)
    require(2 <= max_bins <= 256, "max_bins must be in [2, 256]")
    # NaN/inf would silently poison edges (and NaN != NaN breaks the
    # distinct-value count below); the preprocessing pipeline imputes
    # before binning, so reject rather than bin garbage.
    require(bool(np.isfinite(X).all()), "quantile_bin requires finite values")
    n, d = X.shape
    codes = np.empty((n, d), dtype=np.uint8)
    edges: list[np.ndarray] = []
    quantiles = np.linspace(0, 1, max_bins + 1)[1:-1]
    X_sorted = np.sort(X, axis=0)
    is_new = np.empty((n, d), dtype=bool)
    is_new[:1] = True
    np.not_equal(X_sorted[1:], X_sorted[:-1], out=is_new[1:])
    n_unique = is_new.sum(axis=0)
    dense = np.flatnonzero(n_unique > max_bins)
    dense_pos = {int(j): i for i, j in enumerate(dense)}
    if dense.size:
        # np.quantile(col, q) with the default linear method reads two
        # order statistics per quantile and lerps; with the sort in hand
        # that is a gather + lerp over all dense columns at once.
        pos = quantiles * (n - 1)
        lo = np.floor(pos).astype(np.int64)
        t = pos - lo
        a = X_sorted[np.ix_(lo, dense)]
        b = X_sorted[np.ix_(lo + 1, dense)]
        diff = b - a
        dense_cuts = a + diff * t[:, None]
        hi = t >= 0.5  # numpy's _lerp switches formulas here; match it
        dense_cuts[hi] = b[hi] - diff[hi] * (1.0 - t[hi])[:, None]
    for j in range(d):
        col = X[:, j]
        if j in dense_pos:
            cut = np.unique(dense_cuts[:, dense_pos[j]])
        else:
            uniq = X_sorted[is_new[:, j], j]
            cut = (uniq[:-1] + uniq[1:]) / 2.0
        codes[:, j] = np.searchsorted(cut, col, side="right")
        edges.append(cut.astype(np.float64))
    return BinnedDesign(codes, edges)


def node_histograms(
    codes_sub: np.ndarray, y_node: np.ndarray, n_bins: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-(feature, bin) count and positive-count histograms for one node.

    This is the unit of work each party computes locally in the
    federated forest protocol: ``codes_sub`` holds that party's binned
    columns for the node's rows and ``y_node`` the (conceptually
    encrypted) labels.
    """
    n_node, d = codes_sub.shape
    offsets = (np.arange(d, dtype=np.int64) * n_bins)[None, :]
    flat = (codes_sub.astype(np.int64) + offsets).ravel()
    cnt = np.bincount(flat, minlength=d * n_bins).reshape(d, n_bins)
    pos = np.bincount(flat, weights=np.repeat(y_node, d), minlength=d * n_bins).reshape(
        d, n_bins
    )
    return cnt.astype(np.float64), pos


def best_split(
    cnt: np.ndarray,
    pos_hist: np.ndarray,
    *,
    valid_cut: np.ndarray,
    min_samples_leaf: int,
    allowed_features: np.ndarray | None = None,
) -> tuple[int, int, float] | None:
    """Gini-optimal (feature, bin) over candidate-threshold histograms.

    Maximises ``sum_child n_child * (p^2 + (1-p)^2)`` — equivalent to
    minimising the weighted gini impurity of the children.  Returns
    ``None`` when no candidate satisfies the leaf-size constraints or
    none improves on the parent impurity.
    """
    n_node = float(cnt[0].sum())
    pos = float(pos_hist[0].sum())
    cnt_l = np.cumsum(cnt, axis=1)[:, :-1]
    pos_l = np.cumsum(pos_hist, axis=1)[:, :-1]
    cnt_r = n_node - cnt_l
    pos_r = pos - pos_l
    ok = valid_cut & (cnt_l >= min_samples_leaf) & (cnt_r >= min_samples_leaf)
    if allowed_features is not None:
        ok = ok & allowed_features[:, None]
    if not ok.any():
        return None
    with np.errstate(divide="ignore", invalid="ignore"):
        score = (pos_l**2 + (cnt_l - pos_l) ** 2) / cnt_l + (
            pos_r**2 + (cnt_r - pos_r) ** 2
        ) / cnt_r
    score = np.where(ok, score, -np.inf)
    flat_best = int(np.argmax(score))
    f, b = divmod(flat_best, score.shape[1])
    parent_score = (pos**2 + (n_node - pos) ** 2) / n_node
    if score[f, b] <= parent_score + 1e-12:
        return None
    return f, b, float(score[f, b])


class DecisionTreeClassifier:
    """CART with gini impurity over pre-binned features.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (root = depth 0).
    min_samples_leaf:
        Pre-pruning threshold: the fewest rows a child may hold.
    max_features:
        Per-node feature subsample: ``None`` (all), ``"sqrt"``, or an int.
    max_bins:
        Histogram resolution used when :meth:`fit` bins internally.
    rng:
        Seed/generator for the per-node feature subsampling.
    """

    def __init__(
        self,
        *,
        max_depth: int = 8,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        max_bins: int = 32,
        rng: object = None,
    ):
        require(max_depth >= 1, "max_depth must be >= 1")
        require(min_samples_leaf >= 1, "min_samples_leaf must be >= 1")
        self.max_depth = int(max_depth)
        self.min_samples_leaf = int(min_samples_leaf)
        self.max_features = max_features
        self.max_bins = int(max_bins)
        self.rng = as_generator(rng)
        # Flat node arrays, filled during fit.
        self.feature_: list[int] = []
        self.threshold_: list[float] = []
        self.left_: list[int] = []
        self.right_: list[int] = []
        self.value_: list[float] = []
        self.n_nodes_: int = 0

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def _resolve_max_features(self, d: int) -> int:
        return resolve_max_features(self.max_features, d)

    def fit(self, X: object, y: object) -> "DecisionTreeClassifier":
        """Bin ``X`` and grow the tree."""
        X = check_matrix(X)
        design = quantile_bin(X, max_bins=self.max_bins)
        return self.fit_binned(design, check_vector(y))

    def fit_binned(
        self,
        design: BinnedDesign,
        y: np.ndarray,
        sample_indices: np.ndarray | None = None,
    ) -> "DecisionTreeClassifier":
        """Grow the tree on a pre-binned design (forest fast path).

        ``sample_indices`` selects (possibly repeated) bootstrap rows.
        """
        y = check_vector(y)
        require(set(np.unique(y)) <= {0.0, 1.0}, "y must be binary 0/1")
        require(design.n_samples == y.shape[0], "design/y row mismatch")
        codes = design.codes
        if sample_indices is not None:
            codes = codes[np.asarray(sample_indices)]
            y = y[np.asarray(sample_indices)]
        d = design.n_features
        n_bins = design.n_bins
        max_feat = self._resolve_max_features(d)
        # Per-feature number of *valid* split candidates.
        n_cuts = np.array([e.shape[0] for e in design.edges], dtype=np.int64)
        bin_index = np.arange(n_bins - 1)[None, :] if n_bins > 1 else np.zeros((1, 0))
        valid_cut = bin_index < n_cuts[:, None]  # (d, n_bins-1)

        self.feature_, self.threshold_ = [], []
        self.left_, self.right_, self.value_ = [], [], []

        def new_node() -> int:
            self.feature_.append(_LEAF)
            self.threshold_.append(0.0)
            self.left_.append(_LEAF)
            self.right_.append(_LEAF)
            self.value_.append(0.0)
            return len(self.feature_) - 1

        root = new_node()
        stack: list[tuple[int, np.ndarray, int]] = [(root, np.arange(y.shape[0]), 0)]
        while stack:
            node, rows, depth = stack.pop()
            y_node = y[rows]
            n_node = rows.shape[0]
            pos = float(y_node.sum())
            self.value_[node] = pos / n_node
            if (
                depth >= self.max_depth
                or n_node < 2
                or pos == 0.0
                or pos == n_node
                or n_bins <= 1
            ):
                continue
            sub = codes[rows]  # (n_node, d) uint8 copy
            cnt, pos_hist = node_histograms(sub, y_node, n_bins)
            allowed = None
            if max_feat < d:
                chosen = self.rng.choice(d, size=max_feat, replace=False)
                allowed = np.zeros(d, dtype=bool)
                allowed[chosen] = True
            found = best_split(
                cnt,
                pos_hist,
                valid_cut=valid_cut,
                min_samples_leaf=self.min_samples_leaf,
                allowed_features=allowed,
            )
            if found is None:
                continue
            f, b, _ = found
            go_left = sub[:, f] <= b
            left_id, right_id = new_node(), new_node()
            self.feature_[node] = f
            self.threshold_[node] = float(design.edges[f][b])
            self.left_[node] = left_id
            self.right_[node] = right_id
            stack.append((left_id, rows[go_left], depth + 1))
            stack.append((right_id, rows[~go_left], depth + 1))
        self.n_nodes_ = len(self.feature_)
        return self

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def _check_fitted(self) -> None:
        require(self.n_nodes_ > 0, "tree must be fit before predicting")

    def predict_proba(self, X: object) -> np.ndarray:
        """P(y=1 | x) from the leaf each row lands in."""
        self._check_fitted()
        X = check_matrix(X)
        feature = np.asarray(self.feature_)
        threshold = np.asarray(self.threshold_)
        left = np.asarray(self.left_)
        right = np.asarray(self.right_)
        value = np.asarray(self.value_)
        node = np.zeros(X.shape[0], dtype=np.int64)
        active = feature[node] != _LEAF
        while active.any():
            idx = np.flatnonzero(active)
            cur = node[idx]
            go_left = X[idx, feature[cur]] <= threshold[cur]
            node[idx] = np.where(go_left, left[cur], right[cur])
            active[idx] = feature[node[idx]] != _LEAF
        return value[node]

    def predict(self, X: object) -> np.ndarray:
        """Hard 0/1 predictions at the 0.5 threshold."""
        return (self.predict_proba(X) >= 0.5).astype(np.int64)

    def score(self, X: object, y: object) -> float:
        """Accuracy on ``(X, y)``."""
        y = check_vector(y, dtype=np.int64)
        return float((self.predict(X) == y).mean())

    @property
    def depth_(self) -> int:
        """Realised depth of the fitted tree."""
        self._check_fitted()
        depth = [0] * self.n_nodes_
        for node in range(self.n_nodes_):
            if self.feature_[node] != _LEAF:
                depth[self.left_[node]] = depth[node] + 1
                depth[self.right_[node]] = depth[node] + 1
        return max(depth)
