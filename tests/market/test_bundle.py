"""Tests for feature bundles and catalogue generation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.market import FeatureBundle, sample_bundles


class TestFeatureBundle:
    def test_sorted_and_deduplicated(self):
        assert FeatureBundle.of([3, 1, 2]).indices == (1, 2, 3)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FeatureBundle((1, 1))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            FeatureBundle(())

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            FeatureBundle((-1, 2))

    def test_container_protocol(self):
        b = FeatureBundle.of([0, 2])
        assert len(b) == 2 and b.size == 2
        assert 2 in b and 1 not in b
        assert list(b) == [0, 2]

    def test_union(self):
        assert FeatureBundle.of([0]).union(FeatureBundle.of([2])).indices == (0, 2)

    def test_hashable_and_equal(self):
        assert FeatureBundle.of([1, 2]) == FeatureBundle.of([2, 1])
        assert len({FeatureBundle.of([1, 2]), FeatureBundle.of([2, 1])}) == 1

    def test_label(self):
        assert FeatureBundle.of([0, 3]).label() == "{0,3}"


class TestSampleBundles:
    def test_distinct(self):
        bundles = sample_bundles(10, 15, rng=0)
        assert len({b.indices for b in bundles}) == len(bundles)

    def test_includes_full_bundle(self):
        bundles = sample_bundles(8, 10, rng=0)
        assert FeatureBundle.of(range(8)) in bundles

    def test_deterministic(self):
        a = sample_bundles(12, 8, rng=7)
        b = sample_bundles(12, 8, rng=7)
        assert a == b

    def test_size_bounds_respected(self):
        bundles = sample_bundles(12, 20, rng=1)
        assert bundles[0] == FeatureBundle.of(range(12))
        sizes = {b.size for b in bundles[1:]}
        assert min(sizes) >= 1 and max(sizes) <= 12
        assert len(sizes) > 1  # sizes are drawn, not fixed


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=1, max_value=12), seed=st.integers(0, 100))
def test_sampled_bundles_always_valid(n, seed):
    for bundle in sample_bundles(n, min(6, 2**n - 1), rng=seed):
        assert 1 <= bundle.size <= n
        assert all(0 <= i < n for i in bundle)
