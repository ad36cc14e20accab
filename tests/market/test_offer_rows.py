"""The data party's array rule: Case 1, the Eq. 4 offer, Eq. 6's target.

:func:`~repro.market.strategies.data_party.offer_rows` is the one
statement of the rule; :meth:`StrategicDataParty.respond` calls it on
one row and the population kernel on every live session.  Its picks
must equal the reference written out below over Python floats, on
catalogues with duplicate gains, gains one ulp apart, turning points
exactly at a gain and quotes exactly at (or 1e-12 under) a reserved
price.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.market import (
    FeatureBundle,
    MarketConfig,
    QuotedPrice,
    ReservedPrice,
    StrategicDataParty,
)
from repro.market.pricing import meets_floors, purchase_floor
from repro.market.strategies.baselines import RandomBundleDataParty
from repro.market.strategies.data_party import offer_rows
from repro.market.strategies.imperfect import ImperfectDataParty
from repro.market.termination import Decision


def reference(gains, reserved, rate, base, tp):
    """``(offer, target)`` for one quote, as the rule is written:
    affordable when ``rate >= p_l - 1e-12`` and ``base >= P_l - 1e-12``;
    the largest affordable gain ``<= tp``, else the smallest affordable
    gain, at its first catalogue index (``-1``: nothing affordable); the
    target is the first index of the smallest ``|gain - tp|``."""
    affordable = [
        j for j, (p_l, b_l) in enumerate(reserved)
        if rate >= p_l - 1e-12 and base >= b_l - 1e-12
    ]
    offer = -1
    if affordable:
        below = [j for j in affordable if gains[j] <= tp]
        pool = below or affordable
        best = max(gains[j] for j in pool) if below else min(gains[j] for j in pool)
        offer = next(j for j in pool if gains[j] == best)
    gaps = [abs(g - tp) for g in gains]
    return offer, gaps.index(min(gaps))


def _pick(gains, tp):
    """The Eq. 4 offer's gain for one quote that affords every bundle."""
    g = np.asarray(gains, dtype=float)
    free = np.zeros((1, g.size))
    offer, _ = offer_rows(g, np.ones((1, 1)), np.ones((1, 1)), np.array([[tp]]),
                          free, free)
    return g[offer[0]]


class TestEq4Pick:
    def test_picks_closest_below_turning_point(self):
        assert _pick([0.05, 0.12, 0.20], 0.15) == 0.12

    def test_all_overshoot_picks_smallest(self):
        assert _pick([0.05, 0.12, 0.20], 0.01) == 0.05

    def test_exact_match_preferred(self):
        assert _pick([0.05, 0.12, 0.20], 0.12) == 0.12

    def test_equal_gaps_go_to_the_larger_gain(self):
        """``1.0 - 0.1`` and ``1.0 - nextafter(0.1, 1)`` round to the same
        gap; the offer is the larger gain, not the first bundle."""
        close = math.nextafter(0.1, 1.0)
        assert 1.0 - 0.1 == 1.0 - close
        assert _pick([0.1, close], 1.0) == close

    def test_duplicate_gains_offer_the_first_affordable_index(self):
        gains = np.array([0.12, 0.12, 0.05, 0.12])
        floor_rate = purchase_floor(np.array([[9.0, 1.0, 1.0, 1.0]]))
        offer, _ = offer_rows(gains, np.array([[2.0]]), np.array([[1.0]]),
                              np.array([[0.15]]), floor_rate, np.zeros((1, 4)))
        assert offer[0] == 1

    def test_case1_is_minus_one(self):
        offer, _ = offer_rows(np.array([0.1, 0.2]), np.array([[1.0]]),
                              np.array([[1.0]]), np.array([[0.1]]),
                              np.full((1, 2), 2.0), np.zeros((1, 2)))
        assert offer[0] == -1


class TestAffordability:
    def test_satisfied_by_form(self):
        """A quote 1e-12 under the floor still buys, as
        :meth:`ReservedPrice.satisfied_by` says."""
        floor = ReservedPrice(rate=7.0, base=1.0)
        for rate in (7.0 - 1e-12, math.nextafter(7.0 - 1e-12, 0.0)):
            quote = QuotedPrice(rate=rate, base=1.0, cap=3.0)
            mask = meets_floors(np.array([[rate]]), np.array([[1.0]]),
                                purchase_floor(np.array([[7.0]])),
                                purchase_floor(np.array([[1.0]])))
            assert bool(mask[0, 0]) is floor.satisfied_by(quote)


# ----------------------------------------------------------------------
# The property: every pick equals the written-out reference.
# ----------------------------------------------------------------------
_UNIT = st.floats(min_value=0.001, max_value=0.3)


@st.composite
def catalogues(draw):
    """Gains with duplicates and one-ulp neighbours."""
    seeds = draw(st.lists(_UNIT, min_size=1, max_size=5))
    gains = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        g = draw(st.sampled_from(seeds))
        step = draw(st.sampled_from((0, 0, 1, -1, 2)))
        for _ in range(abs(step)):
            g = math.nextafter(g, math.inf if step > 0 else -math.inf)
        gains.append(g)
    return gains


@st.composite
def markets(draw):
    """A catalogue, reserved prices and quotes (rows) to test it at."""
    gains = draw(catalogues())
    floors = st.tuples(st.floats(min_value=1.0, max_value=9.0),
                       st.floats(min_value=0.1, max_value=2.0))
    reserved = [draw(floors) for _ in gains]
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        j = draw(st.integers(min_value=0, max_value=len(gains) - 1))
        near = draw(st.sampled_from(("at", "under", "past", "free")))
        p_l, b_l = reserved[j]
        if near == "at":  # exactly at a reserved price
            rate, base = p_l, b_l
        elif near == "under":  # exactly at the 1e-12 slack, or one ulp under it
            rate = draw(st.sampled_from((p_l - 1e-12,
                                         math.nextafter(p_l - 1e-12, 0.0))))
            base = draw(st.sampled_from((b_l - 1e-12,
                                         math.nextafter(b_l - 1e-12, 0.0))))
        elif near == "past":
            rate, base = p_l + 1.0, b_l + 1.0
        else:
            rate, base = draw(floors)
        tp = draw(st.one_of(
            st.sampled_from(gains),  # exactly at a gain
            st.sampled_from(gains).map(lambda g: math.nextafter(g, 1.0)),
            st.floats(min_value=0.0, max_value=0.4),
        ))
        rows.append((rate, base, tp))
    return gains, reserved, rows


@settings(max_examples=300, deadline=None)
@given(market=markets())
def test_offer_rows_equal_the_reference(market):
    gains, reserved, rows = market
    rate, base, tp = (np.array(col)[:, None] for col in zip(*rows))
    res = np.array(reserved)
    n = len(rows)
    offer, target = offer_rows(
        np.array(gains), rate, base, tp,
        purchase_floor(np.repeat(res[None, :, 0], n, axis=0)),
        purchase_floor(np.repeat(res[None, :, 1], n, axis=0)),
    )
    for i, (r, b, t) in enumerate(rows):
        assert (int(offer[i]), int(target[i])) == reference(gains, reserved, r, b, t)


@settings(max_examples=150, deadline=None)
@given(market=markets())
def test_parties_respond_with_the_reference_pick(market):
    """``respond`` is ``offer_rows`` on a batch of one, and the other
    data parties pick from the same affordable set."""
    gains, reserved, rows = market
    bundles = [FeatureBundle.of([j]) for j in range(len(gains))]
    gain_of = dict(zip(bundles, gains))
    floors = {b: ReservedPrice(rate=p, base=q) for b, (p, q) in zip(bundles, reserved)}
    config = MarketConfig(utility_rate=500.0, budget=50.0, initial_rate=1.0,
                          initial_base=0.1, eps_d=1e-9, exploration_rounds=1)
    strategic = StrategicDataParty(gain_of, floors, config)
    random_bundle = RandomBundleDataParty(gain_of, floors, config,
                                          rng=np.random.default_rng(0))
    random_draws = np.random.default_rng(0)
    imperfect = ImperfectDataParty(bundles, floors, config, len(bundles), rng=0)
    for rate, base, tp in rows:
        quote = QuotedPrice(rate=rate, base=base, cap=base + rate * tp)
        offer, _ = reference(gains, reserved, rate, base, quote.turning_point)
        affordable = [b for j, b in enumerate(bundles)
                      if rate >= reserved[j][0] - 1e-12
                      and base >= reserved[j][1] - 1e-12]
        response = strategic.respond(quote, 1)
        if offer < 0:
            assert response.decision is Decision.FAIL
        else:
            assert response.bundle == bundles[offer]
        response = random_bundle.respond(quote, 1)
        if affordable:
            pick = int(random_draws.integers(0, len(affordable)))
            assert response.bundle == affordable[pick]
        else:
            assert response.decision is Decision.FAIL
        assert imperfect.respond(quote, 1).bundle in (affordable or bundles)
        if not affordable:  # past the exploration window: Case I
            assert imperfect.respond(quote, 2).decision is Decision.FAIL
