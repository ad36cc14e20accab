"""Tests for the online ΔG estimators (f and g, §3.5.1)."""

import numpy as np
import pytest

from repro.market import (
    DataGainEstimator,
    FeatureBundle,
    QuotedPrice,
    TaskGainEstimator,
)
from repro.utils import spawn


def synthetic_price_gain(rng, n=120):
    """ΔG grows with the turning point, saturating at 0.2."""
    quotes, gains = [], []
    for _ in range(n):
        rate = rng.uniform(5, 12)
        base = rng.uniform(0.8, 1.5)
        cap = base + rate * rng.uniform(0.01, 0.25)
        q = QuotedPrice(rate, base, cap)
        quotes.append(q)
        gains.append(min(q.turning_point, 0.2) * 0.9 + rng.normal(0, 0.005))
    return quotes, np.asarray(gains)


class TestTaskGainEstimator:
    def test_learns_price_to_gain_map(self):
        rng = spawn(0, "f")
        est = TaskGainEstimator(rng=rng, train_passes=6)
        quotes, gains = synthetic_price_gain(rng)
        for q, g in zip(quotes, gains):
            est.observe(q, g)
        assert est.mse_history[-1] < est.mse_history[2]
        assert est.mse_history[-1] < 0.003

    def test_prediction_tracks_turning_point(self):
        rng = spawn(1, "f")
        est = TaskGainEstimator(rng=rng, train_passes=6)
        quotes, gains = synthetic_price_gain(rng, n=150)
        for q, g in zip(quotes, gains):
            est.observe(q, g)
        low = QuotedPrice(8.0, 1.0, 1.0 + 8.0 * 0.05)
        high = QuotedPrice(8.0, 1.0, 1.0 + 8.0 * 0.18)
        pred_low, pred_high = est.predict([low, high])
        assert pred_high > pred_low

    def test_predicts_zeros_before_data(self):
        est = TaskGainEstimator(rng=spawn(2, "f"))
        np.testing.assert_array_equal(
            est.predict([QuotedPrice(8.0, 1.0, 2.0)]), [0.0]
        )

    def test_observation_count(self):
        est = TaskGainEstimator(rng=spawn(3, "f"))
        est.observe(QuotedPrice(8.0, 1.0, 2.0), 0.1)
        assert est.n_observations == 1

    def test_empty_predict_rejected(self):
        with pytest.raises(ValueError):
            TaskGainEstimator(rng=spawn(0, "f")).predict([])


class TestDataGainEstimator:
    def item_values(self, n_features=10, seed=0):
        rng = spawn(seed, "vals")
        return rng.uniform(0.0, 0.04, n_features)

    def test_learns_bundle_values(self):
        values = self.item_values()
        rng = spawn(0, "g")
        est = DataGainEstimator(10, rng=rng, train_passes=6)
        for _ in range(200):
            size = int(rng.integers(1, 6))
            bundle = FeatureBundle.of(rng.choice(10, size=size, replace=False))
            est.observe(bundle, float(values[list(bundle)].sum()))
        assert est.mse_history[-1] < est.mse_history[2]

    def test_ranks_strong_bundles_higher(self):
        values = self.item_values()
        rng = spawn(1, "g")
        est = DataGainEstimator(10, rng=rng, train_passes=6)
        for _ in range(250):
            size = int(rng.integers(1, 6))
            bundle = FeatureBundle.of(rng.choice(10, size=size, replace=False))
            est.observe(bundle, float(values[list(bundle)].sum()))
        weak = FeatureBundle.of([int(np.argmin(values))])
        strong = FeatureBundle.of(list(np.argsort(values)[-3:]))
        pred_weak, pred_strong = est.predict([weak, strong])
        assert pred_strong > pred_weak

    def test_predicts_zeros_before_data(self):
        est = DataGainEstimator(5, rng=spawn(2, "g"))
        np.testing.assert_array_equal(est.predict([FeatureBundle.of([0])]), [0.0])

    def test_mse_history_tracks_observations(self):
        est = DataGainEstimator(5, rng=spawn(3, "g"))
        for i in range(4):
            est.observe(FeatureBundle.of([i]), 0.01 * i)
        assert len(est.mse_history) == 4

    def test_bad_bundle_rejected_on_observe(self):
        est = DataGainEstimator(5, rng=spawn(4, "g"))
        with pytest.raises(ValueError, match="feature ids"):
            est.observe(FeatureBundle.of([7]), 0.01)


class _RebuildTaskEstimator:
    """The pre-incremental implementation: rebuild + re-normalise the
    whole replay buffer every round.  Kept as the semantic reference
    for the O(buffer growth) fast path."""

    def __init__(self, *, train_passes=8, rng=None):
        from repro.ml.nn.regressor import MLPRegressor

        self.model = MLPRegressor(
            4, (64, 32, 16), lr=5e-3, rng=spawn(rng, "task_estimator")
        )
        self.train_passes = train_passes
        self._quotes, self._gains, self.mse_history = [], [], []

    def observe(self, quote, delta_g):
        self._quotes.append((*quote.as_tuple(), quote.turning_point))
        self._gains.append(float(delta_g))
        ref = np.asarray(self._quotes, dtype=np.float64)
        mean, std = ref.mean(axis=0), ref.std(axis=0)
        std = np.where(std < 1e-9, 1.0, std)
        X = (ref - mean) / std
        y = np.asarray(self._gains)
        self.model.partial_fit(X, y, steps=self.train_passes)
        self.mse_history.append(self.model.mse(X, y))


class _RebuildDataEstimator:
    """Pre-incremental reference for the bundle estimator."""

    def __init__(self, n_features, *, train_passes=8, rng=None):
        from repro.ml.nn.regressor import SetEmbeddingRegressor

        self.model = SetEmbeddingRegressor(
            n_features, embed_dim=16, hidden=(64, 32, 16), lr=5e-3,
            rng=spawn(rng, "data_estimator"),
        )
        self.train_passes = train_passes
        self._bundles, self._gains, self.mse_history = [], [], []

    def observe(self, bundle, delta_g):
        self._bundles.append(bundle)
        self._gains.append(float(delta_g))
        sets = [list(b) for b in self._bundles]
        y = np.asarray(self._gains)
        self.model.partial_fit(sets, y, steps=self.train_passes)
        self.mse_history.append(self.model.mse(sets, y))


class TestIncrementalBufferEquivalence:
    """The incremental replay buffers must track the rebuild-everything
    reference bit for bit: same raw samples, same two-pass moments,
    same gradient trajectories."""

    def test_task_mse_history_matches_reference_exactly(self):
        rng = spawn(0, "equiv")
        fast = TaskGainEstimator(rng=9)
        ref = _RebuildTaskEstimator(rng=9)
        quotes, gains = synthetic_price_gain(rng, n=60)
        for q, g in zip(quotes, gains):
            fast.observe(q, g)
            ref.observe(q, g)
        assert fast.mse_history == ref.mse_history
        assert fast.n_observations == 60

    def test_task_predictions_match_reference_exactly(self):
        rng = spawn(1, "equiv")
        fast = TaskGainEstimator(rng=5)
        ref = _RebuildTaskEstimator(rng=5)
        quotes, gains = synthetic_price_gain(rng, n=40)
        for q, g in zip(quotes, gains):
            fast.observe(q, g)
            ref.observe(q, g)
        probe = quotes[:8]
        ref_arr = np.asarray(
            [(*q.as_tuple(), q.turning_point) for q in probe], dtype=np.float64
        )
        buf = np.asarray(ref._quotes, dtype=np.float64)
        mean, std = buf.mean(axis=0), buf.std(axis=0)
        std = np.where(std < 1e-9, 1.0, std)
        expected = ref.model.predict((ref_arr - mean) / std)
        np.testing.assert_array_equal(fast.predict(probe), expected)

    def test_task_large_offset_feature_normalised_correctly(self):
        """Large-magnitude, tiny-spread features must not lose their
        std to cancellation (the failure mode of running sum-of-squares
        moments)."""
        est = TaskGainEstimator(rng=2, train_passes=1)
        rng = spawn(5, "offset")
        for _ in range(30):
            base = 1.0e6 + float(rng.normal(0.0, 1e-4))
            est.observe(QuotedPrice(rate=8.0, base=base, cap=base + 1.0), 0.1)
        # std of the 'base' feature is ~1e-4, far above the 1e-9 fallback
        # threshold; the two-pass moment must find it.
        assert est._std[1] < 1.0e-2
        assert est._std[1] > 1.0e-9

    def test_data_mse_history_matches_reference_exactly(self):
        # No normalisation on the bundle path: trajectories are equal
        # bit for bit.
        rng = spawn(2, "equiv")
        fast = DataGainEstimator(10, rng=4)
        ref = _RebuildDataEstimator(10, rng=4)
        for _ in range(50):
            size = int(rng.integers(1, 5))
            bundle = FeatureBundle.of(rng.choice(10, size=size, replace=False))
            g = 0.01 * len(bundle) + float(rng.normal(0, 0.002))
            fast.observe(bundle, g)
            ref.observe(bundle, g)
        assert fast.mse_history == ref.mse_history

    def test_data_packed_buffer_widens_and_grows(self):
        # Bundles arrive narrow first and widen past numpy's 8-element
        # pairwise block, and the buffer outgrows its initial capacity:
        # the packed id matrix is widened and regrown in place.
        rng = spawn(6, "equiv")
        fast = DataGainEstimator(14, rng=8, train_passes=2)
        ref = _RebuildDataEstimator(14, rng=8, train_passes=2)
        for i in range(90):
            size = min(1 + i // 6, 14)
            bundle = FeatureBundle.of(rng.choice(14, size=size, replace=False))
            g = 0.01 * len(bundle) + float(rng.normal(0, 0.002))
            fast.observe(bundle, g)
            ref.observe(bundle, g)
        assert fast.mse_history == ref.mse_history
        assert fast._idx.shape[0] == 14  # K-major: one row per bundle position
        assert fast._idx[1:, 0].tolist() == [-1] * 13  # first bundle had one id
        probe = [FeatureBundle.of(range(k)) for k in (1, 5, 9, 14)]
        np.testing.assert_array_equal(fast.predict(probe), ref.model.predict(
            [list(b) for b in probe]))

    def test_task_buffer_growth_beyond_initial_capacity(self):
        rng = spawn(3, "equiv")
        est = TaskGainEstimator(rng=1, train_passes=1)
        quotes, gains = synthetic_price_gain(rng, n=140)  # > 2x capacity 64
        for q, g in zip(quotes, gains):
            est.observe(q, g)
        assert est.n_observations == 140
        assert len(est.mse_history) == 140

    def test_data_buffer_growth_beyond_initial_capacity(self):
        rng = spawn(4, "equiv")
        est = DataGainEstimator(8, rng=1, train_passes=1)
        for i in range(140):
            est.observe(FeatureBundle.of([i % 8]), 0.01)
        assert est.n_observations == 140
