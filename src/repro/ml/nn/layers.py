"""Neural-network building blocks with explicit forward/backward passes.

A deliberately small autograd-free design: each layer caches what it
needs during ``forward`` and returns input gradients from ``backward``.
Parameters are :class:`Parameter` objects (value + grad) so optimizers
can update them in place.  The VFL SplitNN protocol relies on this
explicitness — the boundary between parties is literally the boundary
between two layer stacks, with activations/gradients as the only
exchanged messages.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.utils.rng import as_generator
from repro.utils.validation import require

__all__ = ["Dense", "EmbeddingBag", "PackedSets", "Parameter", "ReLU", "Sequential"]


class Parameter:
    """A trainable array with an accumulated gradient.

    An :class:`~repro.ml.nn.optim.Adam` optimizer rebinds ``value`` and
    ``grad`` to views into its own flat buffers and sets ``pooled``, so
    a parameter can belong to at most one such optimizer.
    """

    __slots__ = ("value", "grad", "pooled")

    def __init__(self, value: np.ndarray):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.pooled = False

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to zero."""
        self.grad.fill(0.0)


class Layer:
    """Base class: stateless layers simply override the two passes."""

    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def parameters(self) -> list[Parameter]:
        """Trainable parameters (empty for stateless layers)."""
        return []


class Dense(Layer):
    """Affine map ``y = xW + b`` with He-scaled initialisation."""

    def __init__(self, n_in: int, n_out: int, *, rng: object = None):
        require(n_in >= 1 and n_out >= 1, "Dense dims must be >= 1")
        gen = as_generator(rng)
        scale = np.sqrt(2.0 / n_in)
        self.W = Parameter(gen.normal(0.0, scale, size=(n_in, n_out)))
        self.b = Parameter(np.zeros(n_out))
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return x @ self.W.value + self.b.value

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        require(self._x is not None, "backward called before forward")
        assert self._x is not None
        self.W.grad += self._x.T @ grad_out
        self.b.grad += grad_out.sum(axis=0)
        return grad_out @ self.W.value.T

    def parameters(self) -> list[Parameter]:
        return [self.W, self.b]


class ReLU(Layer):
    """Elementwise max(x, 0)."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        require(self._mask is not None, "backward called before forward")
        return grad_out * self._mask


class PackedSets(NamedTuple):
    """Variable-length index sets packed for vectorised pooling.

    ``flat`` concatenates the sets in order.  ``idx`` is K-major: column
    ``i`` of the ``(K, n)`` matrix holds set ``i``'s ids top-aligned,
    padded with the sentinel ``-1`` down to the widest set's size ``K``.
    ``counts`` holds the set sizes (all >= 1).
    """

    flat: np.ndarray
    idx: np.ndarray
    counts: np.ndarray

    @classmethod
    def pack(cls, index_sets: list[object]) -> "PackedSets":
        """Pack index sets (each converted to ``int64``; none may be empty).

        Ids must be non-negative: ``-1`` is the padding sentinel.
        """
        require(len(index_sets) > 0, "EmbeddingBag received an empty batch")
        index_sets = [np.asarray(ix, dtype=np.int64) for ix in index_sets]
        for ix in index_sets:
            require(ix.size > 0, "EmbeddingBag received an empty index set")
        counts = np.fromiter(
            (ix.size for ix in index_sets), dtype=np.int64, count=len(index_sets)
        )
        flat = np.concatenate(index_sets)
        require(int(flat.min()) >= 0, "EmbeddingBag ids must be >= 0")
        real = np.arange(int(counts.max()))[:, None] < counts
        idx = np.full(real.shape, -1, dtype=np.int64)
        idx.T[real.T] = flat  # the transpose's row-major order is set by set
        return cls(flat, idx, counts)


class EmbeddingBag(Layer):
    """Mean-pooled embedding lookup over variable-length index sets.

    The paper's data-party estimator ``g`` embeds each singular feature
    with ``nn.Embedding`` and averages the embeddings of the features in
    a bundle (§4.4).  ``forward`` takes a list of integer index arrays
    (one set per sample), or the same sets already packed as
    :class:`PackedSets`, and returns the per-sample mean embedding.

    Both passes cost a fixed handful of numpy calls per batch, whatever
    the widest set, and equal the per-set ``table[ix].mean(axis=0)`` and
    ``add.at`` formulation bit for bit.

    Forward appends one row of ``-0.0`` to the table, so the ``-1``
    sentinel of the K-major ``idx`` gathers it, and one ``np.take``
    yields a ``(K, n, dim)`` block.  Reducing over its outer axis adds
    the K slices in order, the same sequential order ``mean(axis=0)``
    adds a set's rows in.  ``x + (-0.0) == x`` for every ``x``, both
    zeros included, so the padding is an exact identity however numpy
    seeds the reduction (a ``+0.0`` pad would turn a ``-0.0`` running
    sum into ``+0.0``).  ``np.add.reduceat`` is deliberately not used:
    its inner reduction groups the additions differently and differs
    from ``mean`` in the last bit for sets of three or more ids.  With
    a one-wide table ``mean(axis=0)`` itself switches to pairwise
    summation, so that case keeps the per-set loop.

    Backward is one ``np.bincount`` over the concatenated ids, each
    spread over its ``dim`` cells: ``bincount`` adds its weights in
    input order from zero, so when ``weight.grad`` starts zeroed (as
    every optimizer step leaves it) each gradient cell receives the
    same additions in the same order as one ``add.at`` per set.
    """

    def __init__(self, num_embeddings: int, dim: int, *, rng: object = None):
        require(num_embeddings >= 1 and dim >= 1, "EmbeddingBag dims must be >= 1")
        gen = as_generator(rng)
        self.weight = Parameter(gen.normal(0.0, 0.1, size=(num_embeddings, dim)))
        self._packed: PackedSets | None = None

    def forward(self, index_sets: list[object] | PackedSets) -> np.ndarray:  # type: ignore[override]
        table = self.weight.value
        if isinstance(index_sets, PackedSets):
            packed = index_sets  # ids already known to lie in the table
        else:
            packed = PackedSets.pack(index_sets)
            require(
                int(packed.flat.max()) < table.shape[0],
                f"EmbeddingBag ids must be < {table.shape[0]}",
            )
        self._packed = packed
        if table.shape[1] == 1:
            return np.stack([
                table[packed.idx[:c, i]].mean(axis=0)
                for i, c in enumerate(packed.counts)
            ])
        padded = np.concatenate([table, np.full((1, table.shape[1]), -0.0)])
        acc = np.add.reduce(np.take(padded, packed.idx, axis=0), axis=0)
        acc /= packed.counts[:, None]
        return acc

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        require(self._packed is not None, "backward called before forward")
        assert self._packed is not None
        counts = self._packed.counts
        n_items, dim = self.weight.grad.shape
        rows = np.repeat(grad_out / counts[:, None], counts, axis=0)
        cells = self._packed.flat[:, None] * dim + np.arange(dim)
        self.weight.grad += np.bincount(
            cells.ravel(), weights=rows.ravel(), minlength=n_items * dim
        ).reshape(n_items, dim)
        # Index inputs have no gradient; return zeros of matching length.
        return np.zeros((counts.shape[0], 0))

    def parameters(self) -> list[Parameter]:
        return [self.weight]


class Sequential(Layer):
    """Chain of layers applied in order."""

    def __init__(self, *layers: Layer):
        require(len(layers) >= 1, "Sequential needs at least one layer")
        self.layers = list(layers)

    def forward(self, x: object) -> np.ndarray:
        out = x
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad = grad_out
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params
