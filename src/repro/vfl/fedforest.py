"""Federated Random Forest over vertically-partitioned features.

A SecureBoost-style split-finding protocol (Cheng et al., 2021 — the
paper's reference [2]): the task party drives tree growth; the data
party never reveals raw feature values.  Per node:

1. the task party computes count/positive histograms for its own
   features locally;
2. it requests the data party's histograms for the node's rows (in the
   real protocol the per-sample label contributions travel as Paillier
   ciphertexts; the simulation sends the values directly but preserves
   the message structure, so traffic accounting reflects the plaintext
   payload sizes);
3. the joint gini-optimal split is chosen with the *same* scorer the
   centralised tree uses — the protocol is lossless, and the test suite
   asserts exact prediction equality with
   :class:`~repro.ml.forest.RandomForestClassifier`;
4. thresholds of data-party features stay at the data party in a
   private split table; the task party's tree records only an opaque
   node id, and prediction-time comparisons are answered over the
   channel.

Known (accepted) leakage, as in SecureBoost: the data party observes
the instance-space partition of training rows.
"""

from __future__ import annotations

import numpy as np

from repro.ml.tree import (
    BinnedDesign,
    best_split,
    node_histograms,
    quantile_bin,
    resolve_max_features,
)
from repro.utils.rng import as_generator, spawn
from repro.utils.validation import require
from repro.vfl.channel import Channel, Message
from repro.vfl.parties import DATA, TASK, DataParty, TaskParty

__all__ = ["FederatedForest", "FederatedTree"]

_LEAF = -1
_OWNER_TASK = 0
_OWNER_DATA = 1


class _DataPartySplitService:
    """The data party's protocol endpoint for one forest training run.

    Owns the binned bundle design plus the private split table mapping
    opaque node uids to (local feature, threshold) pairs.
    """

    def __init__(self, data_party: DataParty, bundle: np.ndarray, max_bins: int):
        self.party = data_party
        self.bundle = bundle
        self.X_bundle = data_party.bundle_view(bundle)
        self.design = quantile_bin(
            self.X_bundle[data_party.train_idx], max_bins=max_bins
        )
        self.split_table: dict[int, tuple[int, float]] = {}

    def histograms(
        self, rows: np.ndarray, y_rows: np.ndarray, n_bins: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Count/positive histograms of the bundle features for ``rows``."""
        codes = self.design.codes[rows]
        if codes.shape[1] == 0:
            return np.zeros((0, n_bins)), np.zeros((0, n_bins))
        cnt, pos = node_histograms(codes, y_rows, n_bins)
        return cnt, pos

    def register_split(self, uid: int, feature_local: int, bin_code: int) -> None:
        """Record a data-party-owned split privately."""
        threshold = float(self.design.edges[feature_local][bin_code])
        self.split_table[uid] = (feature_local, threshold)

    def train_mask(self, uid: int, rows: np.ndarray, bin_code: int, feature_local: int) -> np.ndarray:
        """Left/right membership for training rows at a fresh split."""
        return self.design.codes[rows, feature_local] <= bin_code

    def eval_mask(self, uid: int, sample_rows: np.ndarray) -> np.ndarray:
        """Left/right membership of arbitrary aligned samples at ``uid``."""
        feature_local, threshold = self.split_table[uid]
        return self.X_bundle[sample_rows, feature_local] <= threshold


class FederatedTree:
    """One tree grown by the task party via the split-finding protocol."""

    def __init__(
        self,
        *,
        max_depth: int = 8,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        rng: object = None,
    ):
        self.max_depth = int(max_depth)
        self.min_samples_leaf = int(min_samples_leaf)
        self.max_features = max_features
        self.rng = as_generator(rng)
        self.owner_: list[int] = []
        self.feature_: list[int] = []
        self.threshold_: list[float] = []
        self.uid_: list[int] = []
        self.left_: list[int] = []
        self.right_: list[int] = []
        self.value_: list[float] = []

    def _resolve_max_features(self, d: int) -> int:
        return resolve_max_features(self.max_features, d)

    def fit(
        self,
        task: TaskParty,
        service: _DataPartySplitService,
        task_design: BinnedDesign,
        channel: Channel,
        *,
        tree_uid_base: int,
        sample_indices: np.ndarray,
    ) -> "FederatedTree":
        """Grow the tree over the channel; mirrors the centralised CART."""
        y = task.y_train[sample_indices]
        d_task = task_design.n_features
        d_data = service.design.n_features
        d = d_task + d_data
        n_bins = max(task_design.n_bins, service.design.n_bins)
        max_feat = self._resolve_max_features(d)

        n_cuts = np.array(
            [e.shape[0] for e in task_design.edges]
            + [e.shape[0] for e in service.design.edges],
            dtype=np.int64,
        )
        bin_index = np.arange(n_bins - 1)[None, :] if n_bins > 1 else np.zeros((1, 0))
        valid_cut = bin_index < n_cuts[:, None]

        def new_node() -> int:
            self.owner_.append(_OWNER_TASK)
            self.feature_.append(_LEAF)
            self.threshold_.append(0.0)
            self.uid_.append(-1)
            self.left_.append(_LEAF)
            self.right_.append(_LEAF)
            self.value_.append(0.0)
            return len(self.feature_) - 1

        root = new_node()
        stack = [(root, np.arange(y.shape[0]), 0)]
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
            # ``rows`` index the bootstrap sample; ``boot_rows`` map them
            # back to training-matrix rows shared by both parties.
            boot_rows = sample_indices[rows]
            task_codes = task_design.codes[boot_rows]
            cnt_t, pos_t = node_histograms(task_codes, y_node, n_bins)
            # Request the data party's histograms for these rows.  The
            # label payload models the encrypted per-sample gradient
            # vector of SecureBoost.
            request = channel.exchange(
                TASK, DATA, "hist_request", {"rows": boot_rows, "labels": y_node}
            )
            cnt_d, pos_d = service.histograms(
                request.payload["rows"], request.payload["labels"], n_bins
            )
            channel.send(Message(DATA, TASK, "hist_response", (cnt_d, pos_d)))
            response = channel.receive(TASK, "hist_response")
            cnt = np.vstack([cnt_t, response.payload[0]])
            pos_hist = np.vstack([pos_t, response.payload[1]])
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
            if f < d_task:
                self.owner_[node] = _OWNER_TASK
                self.feature_[node] = f
                self.threshold_[node] = float(task_design.edges[f][b])
                go_left = task_codes[:, f] <= b
            else:
                f_local = f - d_task
                uid = tree_uid_base + node
                self.owner_[node] = _OWNER_DATA
                self.uid_[node] = uid
                reply = channel.exchange(
                    TASK, DATA, "split_request",
                    {"uid": uid, "feature": f_local, "bin": b, "rows": boot_rows},
                )
                service.register_split(uid, f_local, b)
                mask = service.train_mask(uid, reply.payload["rows"], b, f_local)
                channel.send(Message(DATA, TASK, "split_response", mask))
                go_left = channel.receive(TASK, "split_response").payload
            left_id, right_id = new_node(), new_node()
            self.left_[node] = left_id
            self.right_[node] = right_id
            stack.append((left_id, rows[go_left], depth + 1))
            stack.append((right_id, rows[~go_left], depth + 1))
        return self

    def predict_proba(
        self,
        X_task_rows: np.ndarray,
        sample_rows: np.ndarray,
        service: _DataPartySplitService,
        channel: Channel,
    ) -> np.ndarray:
        """Joint inference: data-party node comparisons go over the channel."""
        n = X_task_rows.shape[0]
        node = np.zeros(n, dtype=np.int64)
        # Data-party-owned internal nodes keep feature_ == -1 (the split
        # is private), so leaf-ness is tracked via missing children.
        left = np.asarray(self.left_)
        owner = np.asarray(self.owner_)
        active = left[node] != _LEAF
        while active.any():
            for nid in np.unique(node[active]):
                at = np.flatnonzero(active & (node == nid))
                if owner[nid] == _OWNER_TASK:
                    go_left = X_task_rows[at, self.feature_[nid]] <= self.threshold_[nid]
                else:
                    request = channel.exchange(
                        TASK, DATA, "eval_request",
                        {"uid": self.uid_[nid], "rows": sample_rows[at]},
                    )
                    mask = service.eval_mask(
                        request.payload["uid"], request.payload["rows"]
                    )
                    channel.send(Message(DATA, TASK, "eval_response", mask))
                    go_left = channel.receive(TASK, "eval_response").payload
                node[at] = np.where(go_left, self.left_[nid], self.right_[nid])
            active = left[node] != _LEAF
        return np.asarray(self.value_)[node]


class FederatedForest:
    """Bagged federated trees; drop-in VFL counterpart of the RF base model.

    With matching seeds the fitted ensemble equals the centralised
    :class:`~repro.ml.forest.RandomForestClassifier` on the concatenated
    features — the protocol is lossless.
    """

    def __init__(
        self,
        n_estimators: int = 15,
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
        self.trees_: list[FederatedTree] = []
        self._service: _DataPartySplitService | None = None
        self._task: TaskParty | None = None

    def fit(
        self,
        task: TaskParty,
        data: DataParty,
        bundle: object,
        channel: Channel,
    ) -> "FederatedForest":
        """Train the forest over the channel on the given feature bundle."""
        bundle = np.asarray(list(bundle), dtype=np.int64)
        require(bundle.size >= 1, "bundle must contain at least one feature")
        service = _DataPartySplitService(data, bundle, self.max_bins)
        task_design = quantile_bin(task.X_train, max_bins=self.max_bins)
        n = task.y_train.shape[0]
        self.trees_ = []
        for t in range(self.n_estimators):
            channel.next_round()
            tree_rng = spawn(self.rng, "tree", t)
            tree = FederatedTree(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                rng=tree_rng,
            )
            indices = tree_rng.integers(0, n, size=n)
            tree.fit(
                task,
                service,
                task_design,
                channel,
                tree_uid_base=t * 100_000,
                sample_indices=indices,
            )
            self.trees_.append(tree)
        self._service = service
        self._task = task
        return self

    def predict_proba(self, sample_rows: np.ndarray, channel: Channel) -> np.ndarray:
        """Mean tree probability for the given aligned sample rows."""
        require(bool(self.trees_), "forest must be fit before predicting")
        assert self._service is not None and self._task is not None
        X_task_rows = self._task.X[sample_rows]
        acc = np.zeros(sample_rows.shape[0])
        for tree in self.trees_:
            acc += tree.predict_proba(X_task_rows, sample_rows, self._service, channel)
        return acc / len(self.trees_)

    def score(self, sample_rows: np.ndarray, y_true: np.ndarray, channel: Channel) -> float:
        """Accuracy over the given aligned sample rows."""
        pred = (self.predict_proba(sample_rows, channel) >= 0.5).astype(np.int64)
        return float((pred == np.asarray(y_true, dtype=np.int64)).mean())
