"""Bit-identity of the vectorised NN kernels against frozen references.

``_ReferenceEmbeddingBag`` and ``_ReferenceAdam`` are verbatim copies of
the per-set embedding pooling and per-parameter Adam update the packed
``EmbeddingBag`` and one-buffer ``Adam`` replaced.  Every comparison is
of bit patterns (``_same_bits``), so even ``-0.0`` against ``+0.0``
fails: the fast forms reorder no floating point operation, so the ΔG
estimators' training trajectories and the ``mlp`` base model's (and
hence its GainCache entries) are unchanged.
"""

import numpy as np
import pytest

from repro.ml.nn import (
    Adam,
    Dense,
    EmbeddingBag,
    MLPClassifier,
    Parameter,
    ReLU,
    Sequential,
    SetEmbeddingRegressor,
)
from repro.ml.nn.layers import PackedSets
from repro.vfl import Channel, SplitNN
from repro.vfl.parties import DataParty, TaskParty


class _ReferenceEmbeddingBag(EmbeddingBag):
    """One Python iteration per set per pass (the pre-packing code)."""

    def forward(self, index_sets):
        if isinstance(index_sets, PackedSets):  # as SetEmbeddingRegressor passes them
            index_sets = [index_sets.idx[:c, i] for i, c in enumerate(index_sets.counts)]
        batch = [np.asarray(ix, dtype=np.int64) for ix in index_sets]
        self._batch = batch
        table = self.weight.value
        return np.stack([table[ix].mean(axis=0) for ix in batch])

    def backward(self, grad_out):
        for row_grad, ix in zip(grad_out, self._batch):
            np.add.at(self.weight.grad, ix, row_grad / ix.size)
        return np.zeros((len(self._batch), 0))


class _ReferenceAdam:
    """Per-parameter Adam (the pre-buffer code)."""

    def __init__(self, params, lr=1e-2, betas=(0.9, 0.999), eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = float(eps)
        self._m = [np.zeros_like(p.value) for p in self.params]
        self._v = [np.zeros_like(p.value) for p in self.params]
        self._t = 0

    def step(self):
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for p, m, v in zip(self.params, self._m, self._v):
            m *= self.beta1
            m += (1 - self.beta1) * p.grad
            v *= self.beta2
            v += (1 - self.beta2) * p.grad**2
            p.value -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()


def _same_bits(a, b):
    """Equal shapes and bit patterns (``-0.0`` differs from ``+0.0``)."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _random_sets(rng, n_items, n_sets, max_size):
    return [
        rng.integers(0, n_items, size=int(rng.integers(1, max_size + 1)))
        for _ in range(n_sets)
    ]


def _check_against_reference(table, sets, grad_out, seed=0):
    n_items, dim = table.shape
    fast = EmbeddingBag(n_items, dim, rng=seed)
    ref = _ReferenceEmbeddingBag(n_items, dim, rng=seed)
    fast.weight.value[...] = table
    ref.weight.value[...] = table
    assert _same_bits(fast.forward(sets), ref.forward(sets))
    fast.weight.grad[...] = 0.0
    ref.weight.grad[...] = 0.0
    fast.backward(grad_out)
    ref.backward(grad_out)
    assert _same_bits(fast.weight.grad, ref.weight.grad)


class TestPackedEmbeddingBag:
    @pytest.mark.parametrize("dim", [1, 2, 3, 16, 33])
    @pytest.mark.parametrize("max_size", [1, 3, 8, 9, 24])
    def test_forward_and_backward_match_per_set_reference(self, dim, max_size):
        # Sets wider than 8 ids cross numpy's pairwise-summation block;
        # dim 1 is where ``mean(axis=0)`` itself sums pairwise.
        rng = np.random.default_rng(dim * 100 + max_size)
        for trial in range(10):
            n_items = int(rng.integers(1, 40))
            table = rng.normal(size=(n_items, dim)) * 10.0 ** rng.uniform(
                -4, 4, size=(n_items, dim)
            )
            sets = _random_sets(rng, n_items, int(rng.integers(1, 30)), max_size)
            grad_out = rng.normal(size=(len(sets), dim))
            _check_against_reference(table, sets, grad_out, seed=trial)

    @pytest.mark.parametrize("dim", [1, 4])
    def test_signed_zero_table(self, dim):
        # Rows of exactly +-0.0: a set whose column is all -0.0 must pool
        # to whatever ``mean`` gives, so the padding has to be an exact
        # additive identity for -0.0 as well as +0.0.
        rng = np.random.default_rng(11)
        table = np.where(rng.random((6, dim)) < 0.5, -0.0, 0.0)
        table[0] = -0.0
        sets = [[0], [0, 0], [1], [0, 5, 0, 2], [3, 4], [5, 4, 3, 2, 1, 0]]
        sets += _random_sets(rng, 6, 20, 9)
        grad_out = np.where(rng.random((len(sets), dim)) < 0.5, -0.0, 0.0)
        _check_against_reference(table, sets, grad_out)

    def test_repeated_ids_within_a_set(self):
        # Three ids, each repeated within sets of different sizes: every
        # gradient cell sums many rows, so any scatter order other than
        # add.at's (set by set, id by id) rounds differently.
        rng = np.random.default_rng(12)
        table = rng.normal(size=(3, 4))
        sets = [[2, 2, 2], [0, 2, 0, 2, 0], [1], [1, 0, 1, 0, 1, 0, 1, 0, 1, 2]]
        sets += [rng.integers(0, 3, size=int(rng.integers(2, 12))) for _ in range(20)]
        grad_out = rng.normal(size=(len(sets), 4))
        _check_against_reference(table, sets, grad_out)

    def test_packed_input_equals_list_input(self):
        rng = np.random.default_rng(4)
        sets = _random_sets(rng, 12, 20, 11)
        bag = EmbeddingBag(12, 5, rng=0)
        assert _same_bits(bag.forward(PackedSets.pack(sets)), bag.forward(sets))

    def test_pack_layout(self):
        packed = PackedSets.pack([[3, 1], [2], [0, 4, 5]])
        assert packed.flat.tolist() == [3, 1, 2, 0, 4, 5]
        assert packed.idx.tolist() == [[3, 2, 0], [1, -1, 4], [-1, -1, 5]]
        assert packed.counts.tolist() == [2, 1, 3]

    def test_empty_batch_rejected(self):
        model = SetEmbeddingRegressor(4, embed_dim=2, hidden=(3,), rng=0)
        for call in (lambda: PackedSets.pack([]), lambda: model.predict([]),
                     lambda: model.partial_fit([], [])):
            with pytest.raises(ValueError, match="EmbeddingBag received an empty batch"):
                call()

    def test_ids_outside_table_rejected(self):
        # -1 is the padding sentinel and the table's own length would
        # gather the -0.0 pad row: neither may pass as a real id.
        bag = EmbeddingBag(4, 2, rng=0)
        with pytest.raises(ValueError, match="ids must be >= 0"):
            bag.forward([[0, -1]])
        with pytest.raises(ValueError, match="ids must be < 4"):
            bag.forward([[1], [4]])


def _mlp_stack(seed):
    return Sequential(
        Dense(5, 7, rng=seed), ReLU(), Dense(7, 3, rng=seed + 1), ReLU(),
        Dense(3, 1, rng=seed + 2),
    )


class TestOneBufferAdam:
    def test_updates_match_per_parameter_reference(self):
        rng = np.random.default_rng(0)
        fast_net, ref_net = _mlp_stack(1), _mlp_stack(1)
        fast = Adam(fast_net.parameters(), lr=3e-2)
        ref = _ReferenceAdam(ref_net.parameters(), lr=3e-2)
        for _ in range(40):
            X = rng.normal(size=(9, 5))
            for net, opt in ((fast_net, fast), (ref_net, ref)):
                opt.zero_grad()
                net.backward(net.forward(X) - 1.0)
                opt.step()
            for p, q in zip(fast_net.parameters(), ref_net.parameters()):
                assert np.array_equal(p.value, q.value)
                assert np.array_equal(p.grad, q.grad)

    def test_parameters_become_views_into_one_buffer(self):
        params = _mlp_stack(2).parameters()
        before = [p.value.copy() for p in params]
        opt = Adam(params)
        for p, value in zip(params, before):
            assert np.array_equal(p.value, value)
            assert p.value.base is opt._value
            assert p.grad.base is opt._grad
        params[0].grad += 1.0
        opt.zero_grad()
        assert not opt._grad.any()

    def test_second_optimizer_rejected(self):
        params = _mlp_stack(3).parameters()
        Adam(params)
        with pytest.raises(ValueError, match="only one Adam"):
            Adam(params[:1])

    def test_duplicate_parameter_rejected(self):
        p = Parameter(np.ones(3))
        with pytest.raises(ValueError, match="only one Adam"):
            Adam([p, p])
        assert not p.pooled  # a rejected optimizer leaves it untouched


class TestTrainingTrajectoriesUnchanged:
    def test_set_embedding_regressor(self):
        rng = np.random.default_rng(7)
        fast = SetEmbeddingRegressor(14, embed_dim=6, hidden=(8, 4), lr=1e-2, rng=3)
        ref = SetEmbeddingRegressor(14, embed_dim=6, hidden=(8, 4), lr=1e-2, rng=3)
        ref.embedding.__class__ = _ReferenceEmbeddingBag
        ref.optimizer = _ReferenceAdam(
            ref.embedding.parameters() + ref.trunk.parameters(), lr=1e-2
        )
        sets = _random_sets(rng, 14, 30, 12)
        y = rng.normal(size=30)
        for n in range(1, 31):
            assert _same_bits(
                fast.partial_fit(sets[:n], y[:n], steps=3),
                ref.partial_fit(sets[:n], y[:n], steps=3),
            )
        assert _same_bits(fast.predict(sets), ref.predict(sets))
        for p, q in zip(fast.optimizer.params, ref.optimizer.params):
            assert _same_bits(p.value, q.value)

    def test_mlp_classifier_loss_curve(self, monkeypatch):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(150, 4))
        y = (X[:, 0] + X[:, 1] > 0).astype(float)
        fast = MLPClassifier((8, 4), epochs=6, batch_size=32, rng=2).fit(X, y)
        monkeypatch.setattr("repro.ml.nn.mlp.Adam", _ReferenceAdam)
        ref = MLPClassifier((8, 4), epochs=6, batch_size=32, rng=2).fit(X, y)
        assert _same_bits(fast.loss_curve_, ref.loss_curve_)
        assert _same_bits(fast.predict_proba(X), ref.predict_proba(X))

    def test_splitnn_trajectory(self, monkeypatch):
        rng = np.random.default_rng(2)
        X_t, X_d = rng.normal(size=(120, 2)), rng.normal(size=(120, 3))
        y = ((X_t[:, 0] > 0) ^ (X_d[:, 0] > 0)).astype(np.float64)
        train, test = np.arange(96), np.arange(96, 120)
        task = TaskParty(X=X_t, y=y, train_idx=train, test_idx=test)
        data = DataParty(X=X_d, train_idx=train, test_idx=test)

        def fit():
            net = SplitNN(2, 2, embed_dim=6, top_hidden=4, epochs=5,
                          batch_size=32, rng=4)
            return net.fit(task, data, (0, 2), Channel())

        fast = fit()
        monkeypatch.setattr("repro.vfl.splitnn.Adam", _ReferenceAdam)
        ref = fit()
        assert _same_bits(fast.loss_curve_, ref.loss_curve_)
        assert _same_bits(
            fast.predict_proba(test, Channel()), ref.predict_proba(test, Channel())
        )
