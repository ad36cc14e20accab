"""Tests for quoted/reserved prices and the payment function (Defs. 2.2-2.4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.market import FeatureBundle, QuotedPrice, ReservedPrice
from repro.market.pricing import cost_based_reserved_prices

prices = st.tuples(
    st.floats(min_value=0.1, max_value=100),   # rate
    st.floats(min_value=0.0, max_value=10),    # base
    st.floats(min_value=0.0, max_value=10),    # extra cap headroom C
)
gains = st.floats(min_value=-5.0, max_value=5.0)


class TestQuotedPrice:
    def test_validation(self):
        with pytest.raises(ValueError, match="p must be > 0"):
            QuotedPrice(0.0, 1.0, 2.0)
        with pytest.raises(ValueError, match="P0 must be >= 0"):
            QuotedPrice(1.0, -0.1, 2.0)
        with pytest.raises(ValueError, match="Ph"):
            QuotedPrice(1.0, 2.0, 1.0)

    def test_payment_piecewise_regions(self):
        q = QuotedPrice(rate=10.0, base=1.0, cap=3.0)
        assert q.payment(-1.0) == 1.0          # floor
        assert q.payment(0.1) == pytest.approx(2.0)  # linear region
        assert q.payment(10.0) == 3.0          # cap

    def test_turning_point(self):
        q = QuotedPrice(rate=10.0, base=1.0, cap=3.0)
        assert q.turning_point == pytest.approx(0.2)
        assert q.payment(q.turning_point) == pytest.approx(q.cap)

    def test_str_contains_components(self):
        assert "P0=1.000" in str(QuotedPrice(2.0, 1.0, 5.0))


@settings(max_examples=200, deadline=None)
@given(p=prices, dg=gains)
def test_payment_bounds_property(p, dg):
    """Payment is always within [P0, Ph] (Def. 2.3)."""
    rate, base, headroom = p
    q = QuotedPrice(rate, base, base + headroom)
    pay = q.payment(dg)
    assert base - 1e-12 <= pay <= base + headroom + 1e-12


@settings(max_examples=100, deadline=None)
@given(p=prices, dg1=gains, dg2=gains)
def test_payment_monotone_property(p, dg1, dg2):
    """Payment is non-decreasing in ΔG."""
    rate, base, headroom = p
    q = QuotedPrice(rate, base, base + headroom)
    lo, hi = sorted((dg1, dg2))
    assert q.payment(lo) <= q.payment(hi) + 1e-12


class TestReservedPrice:
    def test_satisfied_by(self):
        r = ReservedPrice(rate=5.0, base=1.0)
        assert r.satisfied_by(QuotedPrice(5.0, 1.0, 2.0))
        assert r.satisfied_by(QuotedPrice(6.0, 1.5, 2.0))
        assert not r.satisfied_by(QuotedPrice(4.9, 1.5, 2.0))
        assert not r.satisfied_by(QuotedPrice(6.0, 0.9, 2.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            ReservedPrice(rate=0.0, base=1.0)
        with pytest.raises(ValueError):
            ReservedPrice(rate=1.0, base=-1.0)


class TestCostBasedReservedPrices:
    def bundles(self):
        return [FeatureBundle.of([0]), FeatureBundle.of([0, 1, 2])]

    def test_larger_bundles_cost_more(self):
        prices = cost_based_reserved_prices(
            self.bundles(),
            rate_floor=5.0, rate_per_feature=0.5,
            base_floor=1.0, base_per_feature=0.1,
            rng=0,
        )
        small, big = prices[self.bundles()[0]], prices[self.bundles()[1]]
        assert big.rate > small.rate
        assert big.base > small.base

    def test_value_premium_requires_gains(self):
        with pytest.raises(ValueError, match="gains"):
            cost_based_reserved_prices(
                self.bundles(),
                rate_floor=5.0, rate_per_feature=0.1,
                base_floor=1.0, base_per_feature=0.1,
                rate_value=1.0,
            )

    def test_value_premium_prices_quality(self):
        b_small, b_big = self.bundles()
        gains = {b_small: 0.2, b_big: 0.05}
        prices = cost_based_reserved_prices(
            [b_small, b_big],
            rate_floor=5.0, rate_per_feature=0.0,
            base_floor=1.0, base_per_feature=0.0,
            rate_value=4.0, base_value=0.5, gains=gains, rng=0,
        )
        # The small bundle has 4x the gain -> higher reserved price
        # despite identical size cost.
        assert prices[b_small].rate > prices[b_big].rate

    def test_noise_is_nonnegative_markup(self):
        bundles = self.bundles()
        noiseless = cost_based_reserved_prices(
            bundles, rate_floor=5.0, rate_per_feature=0.5,
            base_floor=1.0, base_per_feature=0.1, rng=0,
        )
        noisy = cost_based_reserved_prices(
            bundles, rate_floor=5.0, rate_per_feature=0.5,
            base_floor=1.0, base_per_feature=0.1,
            rate_noise=0.5, base_noise=0.1, rng=0,
        )
        for b in bundles:
            assert noisy[b].rate >= noiseless[b].rate
            assert noisy[b].base >= noiseless[b].base
