"""Batch composition is a pure execution concern of the kernel.

:func:`simulate_strategic_batch` runs the sessions of one population at
any index set.  Each session's record must be the same bits whichever
other sessions share its call, in whatever order they come, and however
often the call is repeated — for generated populations over catalogue
widths, sampling depths, round caps, strategy mixes (with stepwise rows
left out of the kernel's index set) and every built-in cost kind.
"""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.simulate.kernel import STATUS_MAX_ROUNDS, simulate_strategic_batch
from repro.simulate.population import PopulationSpec, sample_population

MIXES = (
    (("strategic", "strategic", 1.0),),
    (("strategic", "strategic", 0.6), ("increase_price", "strategic", 0.4)),
    (("increase_price", "strategic", 0.5), ("strategic", "random_bundle", 0.5)),
)
COST_MIXES = (
    (("none", 0.0, 1.0),),
    (("none", 0.0, 1.0), ("constant", 0.5, 1.0), ("linear", 0.01, 1.0),
     ("exponential", 1.01, 1.0)),
)

PROPERTY = settings(max_examples=15, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def populations(draw):
    """A small population and its kernel-eligible indices (two or more)."""
    spec = PopulationSpec(
        preset="synthetic",
        n_bundles=draw(st.integers(min_value=2, max_value=30)),
        n_price_samples=draw(st.sampled_from((1, 3, 31, 120))),
        max_rounds=draw(st.sampled_from((1, 2, 25, 500))),
        strategy_mix=draw(st.sampled_from(MIXES)),
        cost_mix=draw(st.sampled_from(COST_MIXES)),
    )
    pop = sample_population(spec, draw(st.integers(min_value=2, max_value=40)),
                            seed=draw(st.integers(min_value=0, max_value=2**16)))
    eligible = np.flatnonzero(pop.kernel_eligible())
    assume(eligible.size >= 2)
    return pop, eligible


def _assert_same_bits(got, want):
    assert got.keys() == want.keys()
    for key in want:
        assert got[key].dtype == want[key].dtype, key
        assert np.array_equal(got[key], want[key], equal_nan=True), key


@PROPERTY
@given(world=populations(), data=st.data())
def test_any_split_equals_one_call(world, data):
    pop, eligible = world
    cuts = sorted(data.draw(st.sets(
        st.integers(min_value=1, max_value=eligible.size - 1), max_size=6)))
    parts = [simulate_strategic_batch(pop, part) for part in np.split(eligible, cuts)]
    joined = {key: np.concatenate([p[key] for p in parts]) for key in parts[0]}
    _assert_same_bits(joined, simulate_strategic_batch(pop, eligible))


@PROPERTY
@given(world=populations(), data=st.data())
def test_any_permutation_equals_one_call(world, data):
    pop, eligible = world
    order = np.array(data.draw(st.permutations(range(eligible.size))))
    full = simulate_strategic_batch(pop, eligible)
    _assert_same_bits(simulate_strategic_batch(pop, eligible[order]),
                      {key: values[order] for key, values in full.items()})


@PROPERTY
@given(world=populations())
def test_a_second_call_returns_the_same_bits(world):
    pop, eligible = world
    first = simulate_strategic_batch(pop, eligible)
    _assert_same_bits(simulate_strategic_batch(pop, eligible), first)


@PROPERTY
@given(world=populations())
def test_every_traded_gain_is_in_the_catalogue(world):
    pop, eligible = world
    gains = simulate_strategic_batch(pop, eligible)["delta_g"]
    assert np.isin(gains[np.isfinite(gains)], pop.gains).all()


@PROPERTY
@given(world=populations())
def test_rounds_are_capped_at_the_spec_max_rounds(world):
    pop, eligible = world
    out = simulate_strategic_batch(pop, eligible)
    assert (out["n_rounds"] >= 1).all()
    assert (out["n_rounds"] <= pop.spec.max_rounds).all()
    capped = out["status"] == STATUS_MAX_ROUNDS
    assert (out["n_rounds"][capped] == pop.spec.max_rounds).all()
