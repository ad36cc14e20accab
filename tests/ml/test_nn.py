"""Tests for NN layers (gradient checks), losses, optimizers, and models."""

import numpy as np
import pytest

from repro.ml.nn import (
    Adam,
    Dense,
    EmbeddingBag,
    MLPClassifier,
    MLPRegressor,
    Parameter,
    ReLU,
    Sequential,
    SetEmbeddingRegressor,
    bce_with_logits,
    mse_loss,
    sigmoid,
)


def numerical_grad(f, x, eps=1e-6):
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        ix = it.multi_index
        orig = x[ix]
        x[ix] = orig + eps
        fp = f()
        x[ix] = orig - eps
        fm = f()
        x[ix] = orig
        grad[ix] = (fp - fm) / (2 * eps)
        it.iternext()
    return grad


class TestDenseGradients:
    def test_weight_and_bias_gradients(self):
        rng = np.random.default_rng(0)
        layer = Dense(4, 3, rng=rng)
        x = rng.normal(size=(5, 4))
        target = rng.normal(size=(5, 3))

        def loss_fn():
            return 0.5 * np.sum((layer.forward(x) - target) ** 2)

        out = layer.forward(x)
        layer.W.zero_grad()
        layer.b.zero_grad()
        layer.backward(out - target)
        np.testing.assert_allclose(
            layer.W.grad, numerical_grad(loss_fn, layer.W.value), atol=1e-5
        )
        np.testing.assert_allclose(
            layer.b.grad, numerical_grad(loss_fn, layer.b.value), atol=1e-5
        )

    def test_input_gradient(self):
        rng = np.random.default_rng(1)
        layer = Dense(3, 2, rng=rng)
        x = rng.normal(size=(4, 3))
        target = rng.normal(size=(4, 2))

        def loss_fn():
            return 0.5 * np.sum((layer.forward(x) - target) ** 2)

        out = layer.forward(x)
        grad_in = layer.backward(out - target)
        np.testing.assert_allclose(grad_in, numerical_grad(loss_fn, x), atol=1e-5)


class TestReLU:
    def test_forward_clamps(self):
        relu = ReLU()
        np.testing.assert_array_equal(
            relu.forward(np.array([[-1.0, 2.0]])), [[0.0, 2.0]]
        )

    def test_backward_masks(self):
        relu = ReLU()
        relu.forward(np.array([[-1.0, 2.0]]))
        np.testing.assert_array_equal(
            relu.backward(np.array([[5.0, 5.0]])), [[0.0, 5.0]]
        )


class TestEmbeddingBag:
    def test_forward_is_mean_of_rows(self):
        bag = EmbeddingBag(5, 3, rng=0)
        table = bag.weight.value
        out = bag.forward([np.array([0, 2]), np.array([4])])
        np.testing.assert_array_equal(out[0], (table[0] + table[2]) / 2)
        np.testing.assert_array_equal(out[1], table[4])

    def test_gradient_matches_numerical(self):
        rng = np.random.default_rng(2)
        bag = EmbeddingBag(4, 2, rng=rng)
        sets = [np.array([0, 1]), np.array([1, 2, 3])]
        target = rng.normal(size=(2, 2))

        def loss_fn():
            return 0.5 * np.sum((bag.forward(sets) - target) ** 2)

        out = bag.forward(sets)
        bag.weight.zero_grad()
        bag.backward(out - target)
        np.testing.assert_allclose(
            bag.weight.grad, numerical_grad(loss_fn, bag.weight.value), atol=1e-5
        )

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            EmbeddingBag(3, 2, rng=0).forward([np.array([], dtype=int)])


class TestSequentialGradients:
    def test_chain_gradient_matches_numerical(self):
        rng = np.random.default_rng(3)
        net = Sequential(Dense(3, 5, rng=rng), ReLU(), Dense(5, 1, rng=rng))
        x = rng.normal(size=(6, 3))
        y = rng.normal(size=6)

        def loss_fn():
            return mse_loss(net.forward(x), y)[0]

        pred = net.forward(x)
        _, grad = mse_loss(pred, y)
        for p in net.parameters():
            p.zero_grad()
        net.backward(grad)
        for p in net.parameters():
            np.testing.assert_allclose(p.grad, numerical_grad(loss_fn, p.value), atol=1e-5)


class TestLosses:
    def test_bce_gradient_matches_numerical(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(7, 1))
        y = rng.integers(0, 2, 7).astype(float)

        def loss_fn():
            return bce_with_logits(logits, y)[0]

        _, grad = bce_with_logits(logits, y)
        np.testing.assert_allclose(grad, numerical_grad(loss_fn, logits), atol=1e-6)

    def test_bce_stable_for_large_logits(self):
        loss, grad = bce_with_logits(np.array([1000.0, -1000.0]), np.array([1.0, 0.0]))
        assert np.isfinite(loss) and np.all(np.isfinite(grad))
        assert loss < 1e-6

    def test_mse_gradient_matches_numerical(self):
        rng = np.random.default_rng(5)
        pred = rng.normal(size=(6, 1))
        y = rng.normal(size=6)

        def loss_fn():
            return mse_loss(pred, y)[0]

        _, grad = mse_loss(pred, y)
        np.testing.assert_allclose(grad, numerical_grad(loss_fn, pred), atol=1e-6)

    def test_sigmoid_range(self):
        z = np.linspace(-50, 50, 101)
        s = sigmoid(z)
        assert s.min() >= 0.0 and s.max() <= 1.0


class TestOptimizers:
    def test_minimizes_quadratic(self):
        p = Parameter(np.array([5.0, -3.0]))
        opt = Adam([p], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            p.grad += 2 * p.value  # d/dx of ||x||^2
            opt.step()
        assert np.abs(p.value).max() < 1e-2

    def test_zero_grad_clears(self):
        p = Parameter(np.ones(2))
        opt = Adam([p], lr=0.1)
        p.grad += 1.0
        opt.zero_grad()
        np.testing.assert_array_equal(p.grad, 0.0)

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)


class TestMLPClassifier:
    def test_learns_xor(self):
        X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        y = np.array([0.0, 1.0, 1.0, 0.0])
        X_rep = np.repeat(X, 50, axis=0) + np.random.default_rng(0).normal(
            0, 0.05, (200, 2)
        )
        y_rep = np.repeat(y, 50)
        clf = MLPClassifier((16, 8), epochs=200, batch_size=32, lr=1e-2, rng=0)
        clf.fit(X_rep, y_rep)
        assert clf.score(X, y.astype(int)) == 1.0

    def test_loss_curve_decreases(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(300, 4))
        y = (X[:, 0] + X[:, 1] > 0).astype(float)
        clf = MLPClassifier((8,), epochs=30, rng=0).fit(X, y)
        assert clf.loss_curve_[-1] < clf.loss_curve_[0]

    def test_predict_proba_bounds(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(100, 3))
        y = (X[:, 0] > 0).astype(float)
        proba = MLPClassifier((8,), epochs=10, rng=0).fit(X, y).predict_proba(X)
        assert proba.min() >= 0.0 and proba.max() <= 1.0

    def test_unfit_predict_rejected(self):
        with pytest.raises(ValueError, match="fit"):
            MLPClassifier().predict(np.zeros((1, 2)))

    def test_nonbinary_rejected(self):
        with pytest.raises(ValueError, match="binary"):
            MLPClassifier(epochs=1).fit(np.zeros((3, 2)), np.array([0.0, 1.0, 2.0]))


class TestRegressors:
    def test_mlp_regressor_fits_linear_map(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(400, 3))
        y = X @ np.array([1.0, -2.0, 0.5])
        reg = MLPRegressor(3, (32, 16), lr=5e-3, rng=0)
        for _ in range(400):
            reg.partial_fit(X, y)
        assert reg.mse(X, y) < 0.05

    def test_set_embedding_regressor_fits_bundle_values(self):
        rng = np.random.default_rng(1)
        item_value = rng.normal(0, 1, 8)
        bundles = [rng.choice(8, size=rng.integers(1, 5), replace=False) for _ in range(300)]
        y = np.array([item_value[b].mean() for b in bundles])
        reg = SetEmbeddingRegressor(8, embed_dim=8, hidden=(32, 16), lr=5e-3, rng=0)
        for _ in range(300):
            reg.partial_fit(bundles, y)
        assert reg.mse(bundles, y) < 0.05

    def test_partial_fit_reduces_loss(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(100, 2))
        y = X[:, 0] * 2
        reg = MLPRegressor(2, (16,), lr=1e-2, rng=0)
        first = reg.partial_fit(X, y)
        for _ in range(100):
            last = reg.partial_fit(X, y)
        assert last < first

    def test_bad_feature_ids_rejected(self):
        reg = SetEmbeddingRegressor(4, rng=0)
        with pytest.raises(ValueError, match="feature ids"):
            reg.predict([[9]])

    def test_input_width_validated(self):
        reg = MLPRegressor(3, rng=0)
        with pytest.raises(ValueError, match="expected 3"):
            reg.predict(np.zeros((2, 5)))
