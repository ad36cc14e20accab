"""Tests for vertical partitioning."""

import numpy as np
import pytest

from repro.data import Column, ColumnKind, Schema, Table, VerticalPartitioner
from repro.data.preprocess import encode_indicators


def encoded_demo(n=40):
    rng = np.random.default_rng(0)
    schema = Schema.of(
        [
            Column("age", ColumnKind.NUMERIC),
            Column("port", ColumnKind.CATEGORICAL, ("S", "C", "Q")),
            Column("deck", ColumnKind.CATEGORICAL, ("A", "B")),
            Column("fare", ColumnKind.NUMERIC),
        ],
        name="demo",
    )
    table = Table(
        {
            "age": rng.normal(40, 10, n),
            "port": rng.integers(0, 3, n),
            "deck": rng.integers(0, 2, n),
            "fare": rng.normal(30, 5, n),
        }
    )
    return encode_indicators(table, schema, y=rng.integers(0, 2, n))


class TestVerticalPartitioner:
    def test_split_counts(self):
        ds = VerticalPartitioner(["age", "port"], ["deck", "fare"]).split(
            encoded_demo(), rng=0
        )
        assert ds.d_task == 4  # age + 3 port indicators
        assert ds.d_data == 3  # 2 deck indicators + fare

    def test_indicators_stay_on_one_party(self):
        ds = VerticalPartitioner(["age", "port"], ["deck", "fare"]).split(
            encoded_demo(), rng=0
        )
        assert all(n.startswith(("age", "port")) for n in ds.task_feature_names)
        assert all(n.startswith(("deck", "fare")) for n in ds.data_feature_names)

    def test_overlapping_assignment_rejected(self):
        with pytest.raises(ValueError, match="both parties"):
            VerticalPartitioner(["age"], ["age", "port"])

    def test_incomplete_assignment_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            VerticalPartitioner(["age"], ["deck"]).split(encoded_demo(), rng=0)

    def test_unknown_column_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            VerticalPartitioner(["age", "port", "ghost"], ["deck", "fare"]).split(
                encoded_demo(), rng=0
            )

    def test_train_test_views_align_with_labels(self):
        ds = VerticalPartitioner(["age", "port"], ["deck", "fare"]).split(
            encoded_demo(), rng=3
        )
        assert ds.task_train.shape[0] == ds.y_train.shape[0]
        assert ds.task_test.shape[0] == ds.y_test.shape[0]
        assert ds.task_train.shape[0] + ds.task_test.shape[0] == ds.n_samples

    def test_data_view_selects_bundle_columns(self):
        ds = VerticalPartitioner(["age", "port"], ["deck", "fare"]).split(
            encoded_demo(), rng=0
        )
        view = ds.data_view([0, 2])
        np.testing.assert_array_equal(view[:, 0], ds.X_data[:, 0])
        np.testing.assert_array_equal(view[:, 1], ds.X_data[:, 2])

    def test_summary_shape(self):
        ds = VerticalPartitioner(["age", "port"], ["deck", "fare"]).split(
            encoded_demo(), rng=0
        )
        summary = ds.summary()
        assert set(summary) == {
            "n_samples",
            "original_features_total",
            "task_party_features",
            "data_party_features",
        }
