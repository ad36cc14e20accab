"""Shared-binning exactness: slices equal per-course re-bins."""

import numpy as np
import pytest

from repro.data import load_titanic
from repro.ml.tree import quantile_bin
from repro.oracle_factory import SharedDesigns, slice_design
from repro.utils.rng import spawn


@pytest.fixture(scope="module")
def dataset():
    return load_titanic(500, seed=0).prepare(seed=0)


@pytest.fixture(scope="module")
def shared(dataset):
    return SharedDesigns(dataset, max_bins=32)


def assert_designs_equal(a, b):
    np.testing.assert_array_equal(a.codes, b.codes)
    assert a.n_bins == b.n_bins
    assert len(a.edges) == len(b.edges)
    for ea, eb in zip(a.edges, b.edges):
        np.testing.assert_array_equal(ea, eb)


class TestSliceDesign:
    def test_slice_equals_rebin(self, dataset):
        """The heart of shared binning: edges are per-column, so a
        column slice of the full design equals re-binning the subset."""
        X = np.hstack([dataset.task_train, dataset.data_train])
        full = quantile_bin(X, max_bins=32)
        rng = spawn(0, "cols")
        for _ in range(10):
            k = int(rng.integers(1, X.shape[1] + 1))
            cols = np.sort(rng.choice(X.shape[1], size=k, replace=False))
            sliced = slice_design(full, cols)
            rebinned = quantile_bin(X[:, cols], max_bins=32)
            assert_designs_equal(sliced, rebinned)

    def test_n_bins_recomputed_from_slice(self, dataset):
        """A slice of low-cardinality columns must not inherit the full
        design's padded bin count."""
        X = np.hstack([dataset.task_train, dataset.data_train])
        full = quantile_bin(X, max_bins=32)
        per_col_max = full.codes.max(axis=0)
        narrow = int(np.argmin(per_col_max))
        sliced = slice_design(full, [narrow])
        assert sliced.n_bins == int(per_col_max[narrow]) + 1
        assert sliced.n_bins <= full.n_bins

    def test_bad_columns_rejected(self, dataset):
        X = np.hstack([dataset.task_train, dataset.data_train])
        full = quantile_bin(X, max_bins=32)
        with pytest.raises(ValueError, match="at least one column"):
            slice_design(full, [])
        with pytest.raises(ValueError, match="columns must be in"):
            slice_design(full, [X.shape[1]])


class TestSharedDesigns:
    def test_course_design_equals_manual_rebin(self, dataset, shared):
        bundle = (0, 3, 5)
        X = np.hstack(
            [dataset.task_train, dataset.data_train[:, list(bundle)]]
        )
        assert_designs_equal(shared.course_design(bundle), quantile_bin(X))

    def test_isolated_design_is_task_only(self, dataset, shared):
        assert_designs_equal(
            shared.course_design(None), quantile_bin(dataset.task_train)
        )
        assert shared.course_design(None).n_features == dataset.d_task

    def test_test_codes_use_prediction_semantics(self, dataset, shared):
        """side="left" codes: code <= b  <=>  x <= edges[b]."""
        codes = shared.course_test_codes(None)
        X_test = dataset.task_test
        for j in range(min(4, codes.shape[1])):
            edges = shared.joint_design.edges[j]
            for b in range(edges.shape[0]):
                np.testing.assert_array_equal(
                    codes[:, j] <= b, X_test[:, j] <= edges[b]
                )

    def test_bad_bundle_rejected(self, shared):
        with pytest.raises(ValueError, match="bundle indices"):
            shared.course_design((shared.d_data,))
        with pytest.raises(ValueError, match="at least one feature"):
            shared.course_design(())
