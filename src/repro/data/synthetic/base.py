"""Synthetic tabular data generation framework.

The evaluation datasets (Kaggle Titanic, UCI Credit, UCI Adult) cannot
be downloaded in this offline environment, so each is replaced by a
schema-faithful synthetic generator (see DESIGN.md §5).  The generators
share one causal template:

1. every row draws a few **latent factors** (e.g. socio-economic status);
2. each raw column is sampled conditioned on a latent with a per-column
   correlation strength, giving realistic inter-feature correlation;
3. the label is Bernoulli in a **score** that sums per-column *direct
   effects* of varying strength, so different columns (and hence
   different traded feature bundles) carry genuinely different amounts
   of label signal — exactly the structure the bargaining market prices.

What the market consumes from a dataset is only the *performance-gain
landscape over bundles*: monotone-ish in bundle informativeness, with
diminishing returns and noise.  The latent-plus-direct-effects template
reproduces that structure by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.partition import PartitionedDataset, VerticalPartitioner
from repro.data.preprocess import Standardizer, encode_indicators, impute_missing
from repro.data.schema import Schema
from repro.data.table import Table
from repro.utils.rng import as_generator, spawn
from repro.utils.validation import check_probability, require

__all__ = [
    "RawDataset",
    "categorical_column",
    "categorical_effect",
    "fit_intercept_for_rate",
    "labels_from_score",
    "numeric_column",
    "sigmoid",
]


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically-stable logistic function."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def fit_intercept_for_rate(score: np.ndarray, rate: float) -> float:
    """Find ``b`` such that ``mean(sigmoid(score + b)) ~= rate`` by bisection."""
    check_probability(rate, "rate")
    lo, hi = -30.0, 30.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if float(sigmoid(score + mid).mean()) < rate:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def labels_from_score(
    rng: np.random.Generator, score: np.ndarray, positive_rate: float
) -> np.ndarray:
    """Draw Bernoulli labels whose marginal rate matches ``positive_rate``."""
    intercept = fit_intercept_for_rate(score, positive_rate)
    probs = sigmoid(score + intercept)
    return (rng.random(score.shape[0]) < probs).astype(np.int64)


def numeric_column(
    rng: np.random.Generator,
    latent: np.ndarray,
    *,
    rho: float,
    loc: float = 0.0,
    scale: float = 1.0,
    dist: str = "normal",
    clip: tuple[float, float] | None = None,
    round_to: int | None = None,
    missing_rate: float = 0.0,
) -> np.ndarray:
    """Sample a numeric column correlated with ``latent`` at strength ``rho``.

    ``dist="lognormal"`` exponentiates the correlated normal draw
    (useful for fares/balances); ``round_to`` quantises (counts);
    ``missing_rate`` injects NaN at random (imputation exercises).
    """
    require(-1.0 <= rho <= 1.0, f"rho must be in [-1, 1], got {rho}")
    n = latent.shape[0]
    base = rho * latent + np.sqrt(max(0.0, 1.0 - rho * rho)) * rng.standard_normal(n)
    if dist == "normal":
        values = loc + scale * base
    elif dist == "lognormal":
        values = np.exp(loc + scale * base)
    else:
        raise ValueError(f"unknown dist {dist!r}")
    if clip is not None:
        values = np.clip(values, clip[0], clip[1])
    if round_to is not None:
        values = np.round(values, round_to)
        if round_to == 0:
            values = values.astype(np.float64)
    if missing_rate > 0:
        mask = rng.random(n) < missing_rate
        values = values.astype(np.float64)
        values[mask] = np.nan
    return values


def categorical_column(
    rng: np.random.Generator,
    latent: np.ndarray,
    *,
    base_logits: object,
    slopes: object,
) -> np.ndarray:
    """Sample integer category codes with latent-dependent probabilities.

    ``P(code=k | h) = softmax(base_logits + h * slopes)[k]`` — categories
    with larger slope become more likely as the latent grows, which is
    how e.g. cabin deck correlates with wealth.
    """
    logits0 = np.asarray(base_logits, dtype=np.float64)
    slope = np.asarray(slopes, dtype=np.float64)
    require(logits0.shape == slope.shape, "base_logits and slopes shape mismatch")
    logits = logits0[None, :] + latent[:, None] * slope[None, :]
    logits -= logits.max(axis=1, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    cumulative = probs.cumsum(axis=1)
    draws = rng.random(latent.shape[0])[:, None]
    return (draws > cumulative).sum(axis=1).astype(np.int64)


def categorical_effect(codes: np.ndarray, effects: object) -> np.ndarray:
    """Per-row score contribution of a categorical column.

    ``effects[k]`` is the label-score effect of category ``k``; missing
    codes (``-1``) contribute zero.
    """
    table = np.asarray(effects, dtype=np.float64)
    out = np.zeros(codes.shape[0])
    valid = codes >= 0
    out[valid] = table[codes[valid]]
    return out


@dataclass(frozen=True)
class RawDataset:
    """A generated raw dataset plus its party assignment.

    Attributes
    ----------
    name:
        Dataset identifier (``"titanic"``, ``"credit"``, ``"adult"``).
    table / schema / y:
        Raw (pre-encoding) columns, their schema, and binary labels.
    task_columns / data_columns:
        Original-column ownership, matching the paper's split counts.
    n_original_features:
        The upstream CSV's variable count as the paper's Table 2 reports
        it (11 / 25 / 14); may differ from ``len(schema)`` when the
        generator materialises engineered aggregates as raw columns.
    """

    name: str
    table: Table
    schema: Schema
    y: np.ndarray
    task_columns: tuple[str, ...]
    data_columns: tuple[str, ...]
    n_original_features: int

    @property
    def n_samples(self) -> int:
        """Number of generated rows."""
        return int(self.y.shape[0])

    def prepare(
        self,
        *,
        seed: object = 0,
        n_subsample: int | None = None,
    ) -> PartitionedDataset:
        """Run the full preprocessing pipeline of §4.1.1.

        impute -> indicator-encode -> vertical partition -> train/test
        split -> standardise (fitted on the training rows).
        ``n_subsample`` keeps a random row subset first (used by
        quick-mode experiments).
        """
        rng = as_generator(spawn(seed, self.name, "prepare"))
        table, y = self.table, self.y
        if n_subsample is not None and n_subsample < self.n_samples:
            keep = np.sort(rng.choice(self.n_samples, size=n_subsample, replace=False))
            table, y = table.take(keep), y[keep]
        table = impute_missing(table, self.schema)
        encoded = encode_indicators(table, self.schema, y)
        partitioner = VerticalPartitioner(self.task_columns, self.data_columns)
        dataset = partitioner.split(encoded, rng=rng, name=self.name)
        X_task = Standardizer().fit(dataset.task_train).transform(dataset.X_task)
        X_data = Standardizer().fit(dataset.data_train).transform(dataset.X_data)
        return PartitionedDataset(
            name=dataset.name,
            X_task=X_task,
            X_data=X_data,
            y=dataset.y,
            task_feature_names=dataset.task_feature_names,
            data_feature_names=dataset.data_feature_names,
            task_columns=dataset.task_columns,
            data_columns=dataset.data_columns,
            train_idx=dataset.train_idx,
            test_idx=dataset.test_idx,
            n_raw_features=self.n_original_features,
        )
