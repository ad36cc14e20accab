"""Input-validation helpers used across the library.

All public entry points validate their inputs eagerly so that failures
surface at the API boundary with actionable messages, instead of deep
inside numpy broadcasting.
"""

from __future__ import annotations

import numpy as np
from typing import Any

from numpy.typing import NDArray

__all__ = [
    "check_in_range",
    "check_matrix",
    "check_positive",
    "check_probability",
    "check_vector",
    "require",
]


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValueError` with ``message`` unless ``condition`` holds."""
    if not condition:
        raise ValueError(message)


def check_matrix(
    x: object, name: str = "X", *, dtype: type[Any] = np.float64
) -> NDArray[Any]:
    """Coerce ``x`` to a 2-D float array, raising on wrong dimensionality."""
    arr = np.asarray(x, dtype=dtype)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    require(arr.ndim == 2, f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    require(arr.shape[0] > 0, f"{name} must have at least one row")
    return arr


def check_vector(
    y: object, name: str = "y", *, dtype: type[Any] = np.float64
) -> NDArray[Any]:
    """Coerce ``y`` to a 1-D array, raising on wrong dimensionality."""
    arr = np.asarray(y, dtype=dtype)
    require(arr.ndim == 1, f"{name} must be 1-dimensional, got ndim={arr.ndim}")
    require(arr.shape[0] > 0, f"{name} must be non-empty")
    return arr


def check_positive(value: float, name: str) -> float:
    """Raise unless ``value`` is strictly positive."""
    require(value > 0, f"{name} must be > 0, got {value!r}")
    return float(value)


def check_in_range(value: float, name: str, low: float, high: float) -> float:
    """Raise unless ``low <= value <= high``."""
    value = float(value)
    require(low <= value <= high, f"{name} must be in [{low}, {high}], got {value}")
    return value


def check_probability(value: float, name: str = "probability") -> float:
    """Raise unless ``value`` lies in the closed unit interval."""
    return check_in_range(value, name, 0.0, 1.0)
