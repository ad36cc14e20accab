"""From-scratch numpy neural networks (layers, losses, optimizers, models)."""

from repro.ml.nn.layers import Dense, EmbeddingBag, Parameter, ReLU, Sequential
from repro.ml.nn.losses import bce_with_logits, mse_loss, sigmoid
from repro.ml.nn.mlp import MLPClassifier
from repro.ml.nn.optim import Adam
from repro.ml.nn.regressor import MLPRegressor, SetEmbeddingRegressor

__all__ = [
    "Adam",
    "Dense",
    "EmbeddingBag",
    "MLPClassifier",
    "MLPRegressor",
    "Parameter",
    "ReLU",
    "Sequential",
    "SetEmbeddingRegressor",
    "bce_with_logits",
    "mse_loss",
    "sigmoid",
]
