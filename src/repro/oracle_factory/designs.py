"""Shared incremental binning across a whole oracle catalogue.

``quantile_bin`` computes edges **per column**, so binning the joint
``[X_task | X_data]`` training matrix once and slicing the columns a
bundle needs produces exactly the design that per-course re-binning
would (pinned by ``tests/oracle_factory/test_designs.py``).  The same
idea — FATE's HeteroSecureBoost bins features once and reuses the
quantile sketch across trees and jobs — applied across *courses*.

:class:`SharedDesigns` additionally pre-bins the **test** rows with
``side="left"`` semantics: prediction compares raw values against edge
thresholds (``x <= edges[b]``), which is equivalent to
``searchsorted(edges, x, side="left") <= b`` — *not* the ``side="right"``
codes used while training.
"""

from __future__ import annotations

import numpy as np

from repro.data.partition import PartitionedDataset
from repro.ml.tree import BinnedDesign, quantile_bin
from repro.utils.validation import require

__all__ = ["SharedDesigns", "slice_design"]


def slice_design(design: BinnedDesign, columns: object) -> BinnedDesign:
    """A :class:`BinnedDesign` restricted to ``columns`` of ``design``.

    Exactly equal (codes, edges and padded ``n_bins``) to re-running
    :func:`~repro.ml.tree.quantile_bin` on the corresponding column
    subset of the raw matrix, because edges are per-column and
    ``BinnedDesign`` re-derives ``n_bins`` from the sliced codes.
    """
    cols = np.asarray(list(columns), dtype=np.int64)
    require(cols.size >= 1, "design slice needs at least one column")
    require(
        int(cols.min()) >= 0 and int(cols.max()) < design.n_features,
        f"slice columns must be in [0, {design.n_features})",
    )
    codes = np.ascontiguousarray(design.codes[:, cols])
    edges = [design.edges[c] for c in cols]
    return BinnedDesign(codes, edges)


class SharedDesigns:
    """One binning pass serving every course of an oracle build.

    Parameters
    ----------
    dataset:
        The vertically-partitioned dataset the platform trains on.
    max_bins:
        Histogram resolution (must match the course model params).
    """

    def __init__(self, dataset: PartitionedDataset, *, max_bins: int = 32):
        self.dataset = dataset
        self.max_bins = int(max_bins)
        self.d_task = dataset.d_task
        self.d_data = dataset.d_data
        X_train = np.hstack([dataset.task_train, dataset.data_train])
        self.joint_design = quantile_bin(X_train, max_bins=self.max_bins)
        self.y_train = dataset.y_train.astype(np.float64)
        self.y_test = np.asarray(dataset.y_test, dtype=np.int64)
        require(
            set(np.unique(self.y_train)) <= {0.0, 1.0},
            "labels must be binary 0/1",
        )
        # Test rows pre-binned under *prediction* semantics (side="left";
        # see module docstring) — one searchsorted per column, reused by
        # every course in the catalogue.
        X_test = np.hstack([dataset.task_test, dataset.data_test])
        self.test_codes = np.empty(X_test.shape, dtype=np.int64)
        for j in range(X_test.shape[1]):
            self.test_codes[:, j] = np.searchsorted(
                self.joint_design.edges[j], X_test[:, j], side="left"
            )

    # ------------------------------------------------------------------
    def _columns(self, bundle: object | None) -> np.ndarray:
        """Joint-matrix column indices for a course on ``bundle``.

        ``bundle=None`` selects the isolated course (task features only).
        """
        task_cols = np.arange(self.d_task, dtype=np.int64)
        if bundle is None:
            return task_cols
        idx = np.asarray(list(bundle), dtype=np.int64)
        require(idx.size >= 1, "bundle must contain at least one feature")
        require(
            int(idx.min()) >= 0 and int(idx.max()) < self.d_data,
            f"bundle indices must be in [0, {self.d_data})",
        )
        return np.concatenate([task_cols, self.d_task + idx])

    def course_design(self, bundle: object | None) -> BinnedDesign:
        """Training design of the course on ``bundle`` (slice, no re-bin)."""
        return slice_design(self.joint_design, self._columns(bundle))

    def course_test_codes(self, bundle: object | None) -> np.ndarray:
        """Pre-binned test rows (prediction semantics) for the course."""
        return np.ascontiguousarray(self.test_codes[:, self._columns(bundle)])
