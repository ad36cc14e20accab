"""Online MLP regressors for the ΔG-estimation networks (§3.5.1, §4.4).

Two variants, matching the paper:

* :class:`MLPRegressor` — the task party's estimator ``f``: a 3-layer
  MLP (widths 64/32/16) mapping a quoted price ``(p, P0, Ph)`` to a
  predicted performance gain.
* :class:`SetEmbeddingRegressor` — the data party's estimator ``g``:
  each singular feature gets an embedding; a bundle is represented by
  the **mean of its feature embeddings**, fed to the same MLP trunk.

Both support :meth:`partial_fit` because the paper trains the
estimators *while bargaining* — each VFL course appends one labelled
sample and triggers a few gradient steps.
"""

from __future__ import annotations

import numpy as np

from repro.ml.nn.layers import Dense, EmbeddingBag, PackedSets, ReLU, Sequential
from repro.ml.nn.losses import mse_loss
from repro.ml.nn.optim import Adam
from repro.utils.rng import as_generator, spawn
from repro.utils.validation import check_matrix, check_vector, require

__all__ = ["MLPRegressor", "SetEmbeddingRegressor"]


def _trunk(n_in: int, hidden: tuple[int, ...], rng: np.random.Generator) -> Sequential:
    layers: list[object] = []
    widths = [n_in, *hidden]
    for i, (a, b) in enumerate(zip(widths[:-1], widths[1:])):
        layers.append(Dense(a, b, rng=spawn(rng, "dense", i)))
        layers.append(ReLU())
    layers.append(Dense(widths[-1], 1, rng=spawn(rng, "head")))
    return Sequential(*layers)


class MLPRegressor:
    """Scalar-output MLP with MSE loss and incremental training."""

    def __init__(
        self,
        n_in: int,
        hidden: tuple[int, ...] = (64, 32, 16),
        *,
        lr: float = 1e-2,
        rng: object = None,
    ):
        require(n_in >= 1, "n_in must be >= 1")
        self.n_in = int(n_in)
        self.hidden = tuple(int(h) for h in hidden)
        self.rng = as_generator(rng)
        self.net = _trunk(self.n_in, self.hidden, self.rng)
        self.optimizer = Adam(self.net.parameters(), lr=lr)
        self.n_updates_ = 0

    def partial_fit(self, X: object, y: object, *, steps: int = 1) -> float:
        """Run ``steps`` full-batch gradient updates; returns final loss."""
        X = check_matrix(X)
        y = check_vector(y)
        require(X.shape[0] == y.shape[0], "X and y row mismatch")
        require(X.shape[1] == self.n_in, f"expected {self.n_in} inputs")
        loss = float("nan")
        for _ in range(max(1, int(steps))):
            pred = self.net.forward(X)
            loss, grad = mse_loss(pred, y)
            self.optimizer.zero_grad()
            self.net.backward(grad)
            self.optimizer.step()
            self.n_updates_ += 1
        return loss

    def predict(self, X: object) -> np.ndarray:
        """Point predictions for each row."""
        X = check_matrix(X)
        require(X.shape[1] == self.n_in, f"expected {self.n_in} inputs")
        return self.net.forward(X).reshape(-1)

    def mse(self, X: object, y: object) -> float:
        """Mean squared error on held-out pairs."""
        y = check_vector(y)
        return float(np.mean((self.predict(X) - y) ** 2))


class SetEmbeddingRegressor:
    """Bundle-to-ΔG regressor: mean feature embeddings + MLP trunk.

    Parameters
    ----------
    n_items:
        Vocabulary size (number of singular features the data party owns).
    embed_dim:
        Embedding width; the paper embeds then averages (§4.4).
    hidden:
        Trunk widths after the pooled embedding.
    """

    def __init__(
        self,
        n_items: int,
        *,
        embed_dim: int = 16,
        hidden: tuple[int, ...] = (64, 32, 16),
        lr: float = 1e-2,
        rng: object = None,
    ):
        require(n_items >= 1, "n_items must be >= 1")
        self.n_items = int(n_items)
        self.rng = as_generator(rng)
        self.embedding = EmbeddingBag(self.n_items, embed_dim, rng=spawn(self.rng, "emb"))
        self.trunk = _trunk(embed_dim, tuple(int(h) for h in hidden), self.rng)
        params = self.embedding.parameters() + self.trunk.parameters()
        self.optimizer = Adam(params, lr=lr)
        self.n_updates_ = 0

    def validate_set(self, indices: object) -> np.ndarray:
        """One index set checked and converted to an ``int64`` array.

        Callers that keep a replay buffer validate each set once on
        arrival and pass ``validate=False`` on later rounds, so the
        per-round cost tracks the buffer *growth*, not its size.
        """
        arr = np.asarray(list(indices), dtype=np.int64)
        require(arr.size > 0, "bundles must be non-empty")
        require(
            arr.min() >= 0 and arr.max() < self.n_items,
            f"feature ids must be in [0, {self.n_items})",
        )
        return arr

    def _pack(
        self, index_sets: list[object] | PackedSets, validate: bool
    ) -> PackedSets:
        if isinstance(index_sets, PackedSets):
            return index_sets  # packed from already-validated sets
        if validate:
            index_sets = [self.validate_set(ix) for ix in index_sets]
        return PackedSets.pack(index_sets)

    def partial_fit(
        self,
        index_sets: list[object] | PackedSets,
        y: object,
        *,
        steps: int = 1,
        validate: bool = True,
    ) -> float:
        """Run ``steps`` gradient updates on (bundle, ΔG) pairs; returns final loss.

        The sets are packed once per call and the packed form is reused
        by every pass; pass :class:`PackedSets` to skip even that.
        """
        batch = self._pack(index_sets, validate)
        y = check_vector(y)
        require(len(batch.counts) == y.shape[0], "index_sets and y length mismatch")
        loss = float("nan")
        for _ in range(max(1, int(steps))):
            pooled = self.embedding.forward(batch)
            pred = self.trunk.forward(pooled)
            loss, grad = mse_loss(pred, y)
            self.optimizer.zero_grad()
            grad_pooled = self.trunk.backward(grad)
            self.embedding.backward(grad_pooled)
            self.optimizer.step()
            self.n_updates_ += 1
        return loss

    def predict(
        self, index_sets: list[object] | PackedSets, *, validate: bool = True
    ) -> np.ndarray:
        """Predicted ΔG for each bundle."""
        batch = self._pack(index_sets, validate)
        pooled = self.embedding.forward(batch)
        return self.trunk.forward(pooled).reshape(-1)

    def mse(
        self, index_sets: list[object] | PackedSets, y: object, *, validate: bool = True
    ) -> float:
        """Mean squared error on held-out pairs."""
        y = check_vector(y)
        return float(
            np.mean((self.predict(index_sets, validate=validate) - y) ** 2)
        )
