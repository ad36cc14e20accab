"""Optimizers updating :class:`~repro.ml.nn.layers.Parameter` objects in place."""

from __future__ import annotations

import numpy as np

from repro.ml.nn.layers import Parameter
from repro.utils.validation import check_positive, require

__all__ = ["SGD", "Adam"]


class SGD:
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, params: list[Parameter], lr: float = 1e-2, momentum: float = 0.0):
        self.params = list(params)
        require(bool(self.params), "optimizer needs at least one parameter")
        self.lr = check_positive(lr, "lr")
        require(0.0 <= momentum < 1.0, "momentum must be in [0, 1)")
        self.momentum = float(momentum)
        self._velocity = [np.zeros_like(p.value) for p in self.params]

    def step(self) -> None:
        """Apply one update from the accumulated gradients."""
        for p, v in zip(self.params, self._velocity):
            if self.momentum:
                v *= self.momentum
                v += p.grad
                p.value -= self.lr * v
            else:
                p.value -= self.lr * p.grad

    def zero_grad(self) -> None:
        """Clear all parameter gradients."""
        for p in self.params:
            p.zero_grad()


class Adam:
    """Adam (Kingma & Ba, 2015) with bias correction.

    All parameters live in one contiguous value buffer (and one grad
    buffer): each ``Parameter.value``/``.grad`` is rebound to a reshaped
    view into it, so :meth:`step` is a handful of whole-buffer array
    operations and :meth:`zero_grad` a single ``fill``, however many
    parameters there are.  The update is elementwise, so every value
    equals the per-parameter update's bit for bit.  Because the arrays
    become views, a parameter may belong to only one ``Adam``.
    """

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 1e-2,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        self.params = list(params)
        require(bool(self.params), "optimizer needs at least one parameter")
        require(
            not any(p.pooled for p in self.params)
            and len({id(p) for p in self.params}) == len(self.params),
            "a Parameter can belong to only one Adam optimizer "
            "(its value/grad become views into the optimizer's buffer)",
        )
        self.lr = check_positive(lr, "lr")
        self.beta1, self.beta2 = betas
        require(0.0 <= self.beta1 < 1.0, "beta1 must be in [0, 1)")
        require(0.0 <= self.beta2 < 1.0, "beta2 must be in [0, 1)")
        self.eps = float(eps)
        total = sum(p.value.size for p in self.params)
        self._value = np.empty(total)
        self._grad = np.empty(total)
        offset = 0
        for p in self.params:
            end = offset + p.value.size
            value = self._value[offset:end].reshape(p.value.shape)
            grad = self._grad[offset:end].reshape(p.value.shape)
            value[...] = p.value
            grad[...] = p.grad
            p.value, p.grad, p.pooled = value, grad, True
            offset = end
        self._m = np.zeros(total)
        self._v = np.zeros(total)
        self._t = 0

    def step(self) -> None:
        """Apply one update from the accumulated gradients."""
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        m, v, grad = self._m, self._v, self._grad
        m *= self.beta1
        m += (1 - self.beta1) * grad
        v *= self.beta2
        v += (1 - self.beta2) * grad**2
        self._value -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)

    def zero_grad(self) -> None:
        """Clear all parameter gradients."""
        self._grad.fill(0.0)
