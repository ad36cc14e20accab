"""Preprocessing pipeline: imputation, indicator encoding, standardisation.

Mirrors the paper's §4.1.1: *"We convert the multi-class categorical
features in the original datasets into indicator features and then split
the features into task-party-owned and data-party-owned. Note that
indicator features of the same original feature are on the same party."*

The key artefact here is :class:`EncodedDataset`, which carries the
encoded feature matrix **together with the grouping of encoded features
by original column**, so the partitioner can honour the same-party
invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.schema import ColumnKind, Schema
from repro.data.table import Table
from repro.utils.rng import as_generator
from repro.utils.validation import require

__all__ = [
    "EncodedDataset",
    "Standardizer",
    "encode_indicators",
    "impute_missing",
    "train_test_split",
]


def impute_missing(table: Table, schema: Schema) -> Table:
    """Fill missing values: numeric -> median, categorical/binary -> mode.

    Raw tables may carry NaN in numeric columns (e.g. Titanic ``age``).
    Categorical code columns use ``-1`` as the missing marker.
    """
    out = table
    for col in schema:
        values = np.asarray(table.column(col.name), dtype=np.float64)
        if col.kind is ColumnKind.NUMERIC:
            mask = ~np.isfinite(values)
            if mask.any():
                fill = float(np.nanmedian(values))
                filled = values.copy()
                filled[mask] = fill
                out = out.with_column(col.name, filled)
        else:
            codes = np.asarray(table.column(col.name), dtype=np.int64)
            mask = codes < 0
            if mask.any():
                present = codes[~mask]
                mode = int(np.bincount(present).argmax()) if present.size else 0
                filled_codes = codes.copy()
                filled_codes[mask] = mode
                out = out.with_column(col.name, filled_codes)
    return out


@dataclass(frozen=True)
class EncodedDataset:
    """An indicator-encoded dataset ready for vertical partitioning.

    Attributes
    ----------
    X:
        ``(n, d)`` float matrix of encoded features.
    y:
        ``(n,)`` integer label vector.
    feature_names:
        Encoded feature names (length ``d``), e.g. ``"embarked=S"``.
    groups:
        Maps each *original* column name to the indices (into ``X``
        columns) of the encoded features it expanded to.  Partitioning
        assigns whole groups to parties.
    schema:
        The raw schema the encoding came from.
    """

    X: np.ndarray
    y: np.ndarray
    feature_names: tuple[str, ...]
    groups: dict[str, tuple[int, ...]]
    schema: Schema
    _name_to_index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        require(self.X.ndim == 2, "X must be 2-D")
        require(self.X.shape[0] == self.y.shape[0], "X and y row mismatch")
        require(
            self.X.shape[1] == len(self.feature_names),
            "feature_names length must match X columns",
        )
        covered = sorted(i for idx in self.groups.values() for i in idx)
        require(
            covered == list(range(self.X.shape[1])),
            "groups must partition the encoded columns exactly",
        )
        object.__setattr__(
            self,
            "_name_to_index",
            {name: i for i, name in enumerate(self.feature_names)},
        )

    @property
    def n_samples(self) -> int:
        """Number of rows."""
        return int(self.X.shape[0])

    def index_of(self, feature_name: str) -> int:
        """Column index of an encoded feature name."""
        try:
            return self._name_to_index[feature_name]
        except KeyError:
            raise KeyError(f"unknown encoded feature {feature_name!r}") from None

    def group_of(self, original_column: str) -> tuple[int, ...]:
        """Encoded column indices of one original column."""
        try:
            return self.groups[original_column]
        except KeyError:
            raise KeyError(f"unknown original column {original_column!r}") from None


def encode_indicators(table: Table, schema: Schema, y: np.ndarray) -> EncodedDataset:
    """Indicator-encode a raw table per its schema.

    * numeric columns pass through (one feature each);
    * binary columns pass through as 0/1 (one feature each);
    * categorical columns expand into one 0/1 indicator per category.

    Missing values must already be imputed (see :func:`impute_missing`).
    """
    blocks: list[np.ndarray] = []
    names: list[str] = []
    groups: dict[str, tuple[int, ...]] = {}
    cursor = 0
    for col in schema:
        if col.kind is ColumnKind.CATEGORICAL:
            codes = np.asarray(table.column(col.name), dtype=np.int64)
            require(
                codes.min() >= 0 and codes.max() < len(col.categories),
                f"column {col.name!r} has codes outside its categories "
                f"(found range [{codes.min()}, {codes.max()}])",
            )
            block = np.zeros((codes.shape[0], len(col.categories)))
            block[np.arange(codes.shape[0]), codes] = 1.0
        else:
            values = np.asarray(table.column(col.name), dtype=np.float64)
            require(
                bool(np.all(np.isfinite(values))),
                f"column {col.name!r} still has missing values; impute first",
            )
            block = values.reshape(-1, 1)
        blocks.append(block)
        encoded = col.encoded_names()
        names.extend(encoded)
        groups[col.name] = tuple(range(cursor, cursor + len(encoded)))
        cursor += len(encoded)
    X = np.hstack(blocks)
    return EncodedDataset(
        X=X,
        y=np.asarray(y, dtype=np.int64),
        feature_names=tuple(names),
        groups=groups,
        schema=schema,
    )


class Standardizer:
    """Column-wise zero-mean/unit-variance scaling (fit on train only).

    Indicator columns are detected (values within {0, 1}) and left
    unscaled so tree models keep clean split semantics.
    """

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None
        self.is_indicator_: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "Standardizer":
        """Learn per-column statistics from ``X``."""
        X = np.asarray(X, dtype=np.float64)
        is_ind = np.array(
            [bool(np.isin(np.unique(X[:, j]), (0.0, 1.0)).all()) for j in range(X.shape[1])]
        )
        mean = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale == 0] = 1.0
        mean[is_ind] = 0.0
        scale[is_ind] = 1.0
        self.mean_, self.scale_, self.is_indicator_ = mean, scale, is_ind
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Apply the learned scaling."""
        require(self.mean_ is not None, "Standardizer must be fit before transform")
        assert self.mean_ is not None and self.scale_ is not None
        return (np.asarray(X, dtype=np.float64) - self.mean_) / self.scale_

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        """Fit, then transform, in one call."""
        return self.fit(X).transform(X)


#: Share of rows held out for testing (the paper's 75/25 split).
_TEST_FRACTION = 0.25


def train_test_split(
    n_samples: int, *, rng: object = None
) -> tuple[np.ndarray, np.ndarray]:
    """Shuffled train/test index split (``_TEST_FRACTION`` held out).

    Returns ``(train_idx, test_idx)``; deterministic given ``rng``.
    """
    require(n_samples >= 4, "need at least 4 samples to split")
    gen = as_generator(rng)
    order = gen.permutation(n_samples)
    n_test = max(1, int(round(n_samples * _TEST_FRACTION)))
    return np.sort(order[n_test:]), np.sort(order[:n_test])
