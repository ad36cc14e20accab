"""Vertical partitioning of an encoded dataset between the two parties.

The paper's market has exactly two participants:

* the **task party**, holding the labels and ``d_t`` features, and
* the **data party**, holding ``d_d`` features over the same samples.

The partitioner assigns *original* columns to parties and materialises
party-local matrices, preserving the invariant that all indicator
features of an original column live on the same party (§4.1.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.preprocess import EncodedDataset, train_test_split
from repro.utils.validation import require

__all__ = ["PartitionedDataset", "VerticalPartitioner"]


@dataclass(frozen=True)
class PartitionedDataset:
    """A vertically-partitioned, train/test-split dataset.

    ``X_task``/``X_data`` are full-length matrices; ``train_idx`` and
    ``test_idx`` index rows.  Helper properties expose the four blocks
    used throughout training (``task_train`` etc.).
    """

    name: str
    X_task: np.ndarray
    X_data: np.ndarray
    y: np.ndarray
    task_feature_names: tuple[str, ...]
    data_feature_names: tuple[str, ...]
    task_columns: tuple[str, ...]
    data_columns: tuple[str, ...]
    train_idx: np.ndarray
    test_idx: np.ndarray
    n_raw_features: int

    def __post_init__(self) -> None:
        n = self.y.shape[0]
        require(self.X_task.shape[0] == n, "X_task row mismatch")
        require(self.X_data.shape[0] == n, "X_data row mismatch")
        require(
            self.X_task.shape[1] == len(self.task_feature_names),
            "task feature name count mismatch",
        )
        require(
            self.X_data.shape[1] == len(self.data_feature_names),
            "data feature name count mismatch",
        )
        overlap = set(self.train_idx) & set(self.test_idx)
        require(not overlap, "train/test indices overlap")

    # -- dimensions ----------------------------------------------------
    @property
    def n_samples(self) -> int:
        """Aligned sample count ``n``."""
        return int(self.y.shape[0])

    @property
    def d_task(self) -> int:
        """Encoded feature count on the task party."""
        return int(self.X_task.shape[1])

    @property
    def d_data(self) -> int:
        """Encoded feature count on the data party."""
        return int(self.X_data.shape[1])

    # -- train/test views ----------------------------------------------
    @property
    def task_train(self) -> np.ndarray:
        """Task-party features, training rows."""
        return self.X_task[self.train_idx]

    @property
    def task_test(self) -> np.ndarray:
        """Task-party features, test rows."""
        return self.X_task[self.test_idx]

    @property
    def data_train(self) -> np.ndarray:
        """Data-party features, training rows."""
        return self.X_data[self.train_idx]

    @property
    def data_test(self) -> np.ndarray:
        """Data-party features, test rows."""
        return self.X_data[self.test_idx]

    @property
    def y_train(self) -> np.ndarray:
        """Labels, training rows."""
        return self.y[self.train_idx]

    @property
    def y_test(self) -> np.ndarray:
        """Labels, test rows."""
        return self.y[self.test_idx]

    def data_view(self, feature_indices: object) -> np.ndarray:
        """Data-party columns selected by a bundle's feature indices."""
        idx = np.asarray(list(feature_indices), dtype=np.int64)
        return self.X_data[:, idx]

    def summary(self) -> dict[str, int]:
        """Dataset statistics in the shape of the paper's Table 2."""
        return {
            "n_samples": self.n_samples,
            "original_features_total": self.n_raw_features,
            "task_party_features": self.d_task,
            "data_party_features": self.d_data,
        }


class VerticalPartitioner:
    """Splits an :class:`EncodedDataset` into task/data party views.

    Parameters
    ----------
    task_columns:
        Original column names owned by the task party.
    data_columns:
        Original column names owned by the data party.  Together the two
        lists must cover the schema exactly and be disjoint.
    """

    def __init__(self, task_columns: object, data_columns: object):
        self.task_columns = tuple(task_columns)
        self.data_columns = tuple(data_columns)
        overlap = set(self.task_columns) & set(self.data_columns)
        require(not overlap, f"columns on both parties: {sorted(overlap)}")

    def split(
        self,
        encoded: EncodedDataset,
        *,
        rng: object = None,
        name: str = "",
    ) -> PartitionedDataset:
        """Materialise party-local matrices plus a train/test row split."""
        schema_cols = set(encoded.schema.feature_names)
        assigned = set(self.task_columns) | set(self.data_columns)
        require(
            assigned == schema_cols,
            "partition must cover schema exactly; "
            f"missing={sorted(schema_cols - assigned)}, "
            f"unknown={sorted(assigned - schema_cols)}",
        )
        task_idx = [i for c in self.task_columns for i in encoded.group_of(c)]
        data_idx = [i for c in self.data_columns for i in encoded.group_of(c)]
        train_idx, test_idx = train_test_split(encoded.n_samples, rng=rng)
        names = encoded.feature_names
        return PartitionedDataset(
            name=name or encoded.schema.name,
            X_task=encoded.X[:, task_idx],
            X_data=encoded.X[:, data_idx],
            y=encoded.y,
            task_feature_names=tuple(names[i] for i in task_idx),
            data_feature_names=tuple(names[i] for i in data_idx),
            task_columns=self.task_columns,
            data_columns=self.data_columns,
            train_idx=train_idx,
            test_idx=test_idx,
            n_raw_features=encoded.schema.n_raw_features,
        )
