"""Shared utilities: deterministic RNG trees, validation helpers, logging."""

from repro.utils.log import get_logger
from repro.utils.rng import as_generator, spawn
from repro.utils.validation import (
    check_in_range,
    check_matrix,
    check_positive,
    check_probability,
    check_vector,
    require,
)

__all__ = [
    "as_generator",
    "check_in_range",
    "check_matrix",
    "check_positive",
    "check_probability",
    "check_vector",
    "get_logger",
    "require",
    "spawn",
]
