"""Tests for imputation, indicator encoding and splitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Column, ColumnKind, Schema, Standardizer, Table
from repro.data.preprocess import encode_indicators, impute_missing, train_test_split


def demo_schema():
    return Schema.of(
        [
            Column("age", ColumnKind.NUMERIC),
            Column("vip", ColumnKind.BINARY),
            Column("port", ColumnKind.CATEGORICAL, ("S", "C", "Q")),
        ],
        name="demo",
    )


def demo_table():
    return Table(
        {
            "age": [30.0, np.nan, 50.0, 40.0],
            "vip": [0, 1, 0, -1],
            "port": [0, 2, -1, 1],
        }
    )


class TestImputeMissing:
    def test_numeric_median_fill(self):
        out = impute_missing(demo_table(), demo_schema())
        assert out["age"][1] == pytest.approx(40.0)  # median of 30/50/40

    def test_categorical_mode_fill(self):
        t = Table({"age": [1.0] * 4, "vip": [1, 1, 0, 1], "port": [0, 0, -1, 1]})
        out = impute_missing(t, demo_schema())
        assert out["port"][2] == 0

    def test_binary_missing_code_filled(self):
        out = impute_missing(demo_table(), demo_schema())
        assert out["vip"][3] in (0, 1)

    def test_no_missing_is_identity(self):
        t = Table({"age": [1.0, 2.0], "vip": [0, 1], "port": [0, 1]})
        assert impute_missing(t, demo_schema()) == t


class TestEncodeIndicators:
    def test_shapes_and_names(self):
        table = impute_missing(demo_table(), demo_schema())
        enc = encode_indicators(table, demo_schema(), y=np.zeros(4, dtype=int))
        assert enc.X.shape == (4, 5)
        assert enc.feature_names == ("age", "vip", "port=S", "port=C", "port=Q")

    def test_one_hot_rows_sum_to_one(self):
        table = impute_missing(demo_table(), demo_schema())
        enc = encode_indicators(table, demo_schema(), y=np.zeros(4, dtype=int))
        port_block = enc.X[:, [2, 3, 4]]
        np.testing.assert_array_equal(port_block.sum(axis=1), np.ones(4))

    def test_groups_partition_columns(self):
        table = impute_missing(demo_table(), demo_schema())
        enc = encode_indicators(table, demo_schema(), y=np.zeros(4, dtype=int))
        assert enc.groups == {"age": (0,), "vip": (1,), "port": (2, 3, 4)}

    def test_unimputed_missing_rejected(self):
        with pytest.raises(ValueError, match="impute first"):
            encode_indicators(demo_table(), demo_schema(), y=np.zeros(4, dtype=int))

    def test_out_of_range_code_rejected(self):
        t = Table({"age": [1.0], "vip": [0], "port": [7]})
        with pytest.raises(ValueError, match="outside"):
            encode_indicators(t, demo_schema(), y=np.zeros(1, dtype=int))

    def test_index_and_group_lookup(self):
        table = impute_missing(demo_table(), demo_schema())
        enc = encode_indicators(table, demo_schema(), y=np.zeros(4, dtype=int))
        assert enc.index_of("port=C") == 3
        assert enc.group_of("port") == (2, 3, 4)
        with pytest.raises(KeyError):
            enc.index_of("nope")
        with pytest.raises(KeyError):
            enc.group_of("nope")


class TestStandardizer:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(0)
        X = rng.normal(5.0, 3.0, size=(200, 2))
        Z = Standardizer().fit_transform(X)
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(Z.std(axis=0), 1.0, atol=1e-10)

    def test_indicator_columns_left_alone(self):
        X = np.column_stack([np.array([0.0, 1.0, 1.0, 0.0]), np.arange(4.0)])
        Z = Standardizer().fit_transform(X)
        np.testing.assert_array_equal(Z[:, 0], X[:, 0])

    def test_constant_column_no_nan(self):
        X = np.full((10, 1), 7.0)
        Z = Standardizer().fit_transform(X)
        assert np.all(np.isfinite(Z))

    def test_transform_before_fit_rejected(self):
        with pytest.raises(ValueError, match="fit"):
            Standardizer().transform(np.zeros((2, 2)))

    def test_train_statistics_applied_to_test(self):
        scaler = Standardizer().fit(np.array([[0.0], [10.0]]))
        np.testing.assert_allclose(scaler.transform(np.array([[5.0]])), [[0.0]])


class TestTrainTestSplit:
    def test_sizes(self):
        train, test = train_test_split(100, rng=0)
        assert len(train) == 75 and len(test) == 25

    def test_disjoint_and_cover(self):
        train, test = train_test_split(50, rng=1)
        combined = np.sort(np.concatenate([train, test]))
        np.testing.assert_array_equal(combined, np.arange(50))

    def test_deterministic_given_rng(self):
        a = train_test_split(30, rng=5)
        b = train_test_split(30, rng=5)
        np.testing.assert_array_equal(a[0], b[0])

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            train_test_split(2)


@settings(max_examples=20, deadline=None)
@given(codes=st.lists(st.integers(min_value=0, max_value=2), min_size=2, max_size=60))
def test_encoding_preserves_category_counts(codes):
    """Sum of each indicator column equals the category's frequency."""
    n = len(codes)
    schema = Schema.of([Column("c", ColumnKind.CATEGORICAL, ("a", "b", "c"))])
    table = Table({"c": np.asarray(codes, dtype=np.int64)})
    enc = encode_indicators(table, schema, y=np.zeros(n, dtype=int))
    counts = np.bincount(np.asarray(codes), minlength=3)
    np.testing.assert_array_equal(enc.X.sum(axis=0), counts.astype(float))
