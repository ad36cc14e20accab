"""Online ΔG estimators for the imperfect-information setting (§3.5.1).

* :class:`TaskGainEstimator` — the task party's ``f(p, P0, Ph) → ΔG``
  (Eq. 9): a 3-layer MLP (64/32/16) over a normalised price feature
  vector.  The paper notes ``f`` is trained only on quotes conforming
  to the Eq. 5 constraint, focusing it on equilibrium-consistent
  prices.
* :class:`DataGainEstimator` — the data party's ``g(F) → ΔG`` (Eq. 8):
  per-feature embeddings averaged over the bundle, then the same MLP
  trunk (§4.4's ``nn.Embedding`` + mean construction).

Both train **while bargaining**: each VFL course appends one labelled
sample to a replay buffer and triggers a handful of gradient passes
over it.  ``mse_history`` records the post-update buffer MSE each
round — the series plotted in the paper's Figure 4.

The replay buffers are maintained incrementally: raw samples live in
amortised-growth arrays, bundles are validated/converted exactly once
on arrival, and normalisation moments are taken straight off the
stored array — so each round costs one appended row plus the
(vectorised) gradient passes, not a from-scratch rebuild and
re-validation of the entire Python-object buffer, whose cost grew
quadratically with the number of rounds.

The bundle buffer is kept directly in the packed form
:class:`~repro.ml.nn.layers.EmbeddingBag` pools over
(:class:`~repro.ml.nn.layers.PackedSets`): the concatenated feature
ids, a K-major ``(K, n)`` id matrix padded with the sentinel ``-1``
(which the embedding gathers as a row of ``-0.0``, an exact additive
identity), and the bundle sizes, all append-only with amortised growth
(``K`` widens when a bundle wider than any before it arrives).  A
gradient pass therefore costs one gather, one reduction and one
``bincount`` over views of these buffers, not one numpy call per
replayed bundle or per column.
Training trajectories equal the rebuild-everything reference bit for
bit (``tests/market/test_estimation.py``).
"""

from __future__ import annotations

import numpy as np

from repro.market.bundle import FeatureBundle
from repro.market.pricing import QuotedPrice
from repro.ml.nn.layers import PackedSets
from repro.ml.nn.regressor import MLPRegressor, SetEmbeddingRegressor
from repro.utils.rng import spawn
from repro.utils.validation import require

__all__ = ["DataGainEstimator", "TaskGainEstimator"]

_INITIAL_CAPACITY = 64


class TaskGainEstimator:
    """Price-to-gain regressor with running input normalisation."""

    def __init__(
        self,
        *,
        hidden: tuple[int, ...] = (64, 32, 16),
        lr: float = 5e-3,
        train_passes: int = 8,
        rng: object = None,
    ):
        self.model = MLPRegressor(4, hidden, lr=lr, rng=spawn(rng, "task_estimator"))
        self.train_passes = int(train_passes)
        self._X_raw = np.empty((_INITIAL_CAPACITY, 4), dtype=np.float64)
        self._y = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self._n = 0
        self._mean = np.zeros(4)
        self._std = np.ones(4)
        self.mse_history: list[float] = []

    @staticmethod
    def _raw_features(quote: QuotedPrice) -> tuple[float, float, float, float]:
        # The turning point is *the* decision quantity; giving it to the
        # network explicitly accelerates convergence markedly.
        return (*quote.as_tuple(), quote.turning_point)

    @property
    def n_observations(self) -> int:
        """Replay-buffer size."""
        return self._n

    def _append(self, row: np.ndarray, target: float) -> None:
        if self._n == self._X_raw.shape[0]:
            grow = 2 * self._X_raw.shape[0]
            self._X_raw = np.concatenate(
                [self._X_raw, np.empty_like(self._X_raw)]
            )[:grow]
            self._y = np.concatenate([self._y, np.empty_like(self._y)])[:grow]
        self._X_raw[self._n] = row
        self._y[self._n] = target
        self._n += 1
        # Two-pass moments over the stored buffer: O(n) vectorised (the
        # same order as the gradient passes that follow) and immune to
        # the catastrophic cancellation a running sum-of-squares shows
        # on large-offset/small-spread features.
        buf = self._X_raw[: self._n]
        std = buf.std(axis=0)
        self._mean = buf.mean(axis=0)
        self._std = np.where(std < 1e-9, 1.0, std)

    def observe(self, quote: QuotedPrice, delta_g: float) -> None:
        """Append one (quote, realised ΔG) sample and update the network."""
        self._append(
            np.asarray(self._raw_features(quote), dtype=np.float64), float(delta_g)
        )
        X = (self._X_raw[: self._n] - self._mean) / self._std
        y = self._y[: self._n]
        self.model.partial_fit(X, y, steps=self.train_passes)
        self.mse_history.append(self.model.mse(X, y))

    def predict(self, quotes: list[QuotedPrice]) -> np.ndarray:
        """Predicted ΔG for candidate quotes (zeros before any data)."""
        require(bool(quotes), "need at least one quote")
        return self.predict_features(
            np.asarray([self._raw_features(q) for q in quotes], dtype=np.float64)
        )

    def predict_features(self, raw: np.ndarray) -> np.ndarray:
        """Predicted ΔG for raw ``(p, P0, Ph, turning point)`` rows.

        The array form of :meth:`predict`, for callers that hold their
        candidate quotes as columns rather than :class:`QuotedPrice`
        objects.
        """
        if not self._n:
            return np.zeros(raw.shape[0])
        return self.model.predict((raw - self._mean) / self._std)


class DataGainEstimator:
    """Bundle-to-gain regressor over mean feature embeddings."""

    def __init__(
        self,
        n_features: int,
        *,
        embed_dim: int = 16,
        hidden: tuple[int, ...] = (64, 32, 16),
        lr: float = 5e-3,
        train_passes: int = 8,
        rng: object = None,
    ):
        self.model = SetEmbeddingRegressor(
            n_features,
            embed_dim=embed_dim,
            hidden=hidden,
            lr=lr,
            rng=spawn(rng, "data_estimator"),
        )
        self.train_passes = int(train_passes)
        # Bundles are validated and packed exactly once, on arrival;
        # every later round trains on views of the packed buffers.
        self._flat = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._idx = np.full((1, _INITIAL_CAPACITY), -1, dtype=np.int64)
        self._counts = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._y = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self._n = 0
        self._n_flat = 0
        self.mse_history: list[float] = []

    @property
    def n_observations(self) -> int:
        """Replay-buffer size."""
        return self._n

    def _append(self, ids: np.ndarray, target: float) -> None:
        n, size = self._n, ids.size
        if n == self._counts.shape[0]:
            self._idx = np.concatenate([self._idx, np.full_like(self._idx, -1)], axis=1)
            self._counts = np.concatenate([self._counts, np.empty_like(self._counts)])
            self._y = np.concatenate([self._y, np.empty_like(self._y)])
        if size > self._idx.shape[0]:
            pad = size - self._idx.shape[0]
            self._idx = np.pad(self._idx, ((0, pad), (0, 0)), constant_values=-1)
        while self._n_flat + size > self._flat.shape[0]:
            self._flat = np.concatenate([self._flat, np.empty_like(self._flat)])
        self._flat[self._n_flat : self._n_flat + size] = ids
        self._idx[:size, n] = ids
        self._counts[n] = size
        self._y[n] = target
        self._n += 1
        self._n_flat += size

    def observe(self, bundle: FeatureBundle, delta_g: float) -> None:
        """Append one (bundle, realised ΔG) sample and update the network."""
        self._append(self.model.validate_set(list(bundle)), float(delta_g))
        n = self._n
        packed = PackedSets(
            self._flat[: self._n_flat], self._idx[:, :n], self._counts[:n]
        )
        y = self._y[:n]
        self.model.partial_fit(packed, y, steps=self.train_passes)
        self.mse_history.append(self.model.mse(packed, y))

    def predict(self, bundles: list[FeatureBundle]) -> np.ndarray:
        """Predicted ΔG for candidate bundles (zeros before any data)."""
        require(bool(bundles), "need at least one bundle")
        if not self._n:
            return np.zeros(len(bundles))
        return self.model.predict([list(b) for b in bundles])
