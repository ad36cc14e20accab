"""Tests for input-validation helpers."""

import numpy as np
import pytest

from repro.utils import (
    check_in_range,
    check_matrix,
    check_positive,
    check_probability,
    check_vector,
    require,
)


class TestRequire:
    def test_passes_silently(self):
        require(True, "never raised")

    def test_raises_with_message(self):
        with pytest.raises(ValueError, match="boom"):
            require(False, "boom")


class TestCheckMatrix:
    def test_accepts_2d(self):
        out = check_matrix([[1, 2], [3, 4]])
        assert out.shape == (2, 2)
        assert out.dtype == np.float64

    def test_promotes_1d_to_column(self):
        assert check_matrix([1.0, 2.0, 3.0]).shape == (3, 1)

    def test_rejects_3d(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            check_matrix(np.zeros((2, 2, 2)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one row"):
            check_matrix(np.zeros((0, 3)))


class TestCheckVector:
    def test_accepts_1d(self):
        assert check_vector([1, 2, 3]).shape == (3,)

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-dimensional"):
            check_vector([[1], [2]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            check_vector(np.array([]))


class TestScalarChecks:
    def test_check_positive(self):
        assert check_positive(2, "x") == 2.0
        with pytest.raises(ValueError, match="must be > 0"):
            check_positive(0, "x")

    def test_check_in_range_inclusive(self):
        assert check_in_range(0.0, "x", 0.0, 1.0) == 0.0
        with pytest.raises(ValueError):
            check_in_range(1.5, "x", 0.0, 1.0)

    def test_check_probability(self):
        assert check_probability(0.5) == 0.5
        with pytest.raises(ValueError):
            check_probability(-0.01)
