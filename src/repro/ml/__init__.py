"""Machine-learning substrate: what the paper trains, and nothing else.

* :class:`~repro.ml.forest.RandomForestClassifier` (over
  :class:`~repro.ml.tree.DecisionTreeClassifier` and the shared
  :func:`~repro.ml.tree.quantile_bin` designs) — the tree base model.
* :class:`~repro.ml.nn.mlp.MLPClassifier` — the 3-layer MLP base model.
* :class:`~repro.ml.nn.regressor.MLPRegressor` /
  :class:`~repro.ml.nn.regressor.SetEmbeddingRegressor` — the ΔG
  estimation networks of the imperfect-information setting, trained
  with :class:`~repro.ml.nn.optim.Adam`.

Everything is implemented from scratch on numpy (no sklearn/torch).
"""

from repro.ml.forest import RandomForestClassifier
from repro.ml.nn import MLPClassifier, MLPRegressor, SetEmbeddingRegressor
from repro.ml.tree import DecisionTreeClassifier, quantile_bin

__all__ = [
    "DecisionTreeClassifier",
    "MLPClassifier",
    "MLPRegressor",
    "RandomForestClassifier",
    "SetEmbeddingRegressor",
    "quantile_bin",
]
