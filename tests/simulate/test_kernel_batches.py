"""Batch composition is a pure execution concern of the kernel.

:func:`simulate_strategic_batch` runs the sessions of one population at
any index set.  Each session's record must be the same bits whichever
other sessions share its call, in whatever order they come, and however
often the call is repeated — for generated populations over catalogue
widths, sampling depths, round caps, strategy mixes (with stepwise rows
left out of the kernel's index set) and every built-in cost kind.  And
each record is the one the session's stepwise engine returns.
"""

import numpy as np
from engine_records import assert_kernel_equals_engine
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.simulate.kernel import STATUS_MAX_ROUNDS, simulate_strategic_batch
from repro.simulate.population import PopulationSpec, sample_population

MIXES = (
    (("strategic", "strategic", 1.0),),
    (("strategic", "strategic", 0.6), ("increase_price", "strategic", 0.4)),
    (("increase_price", "strategic", 0.5), ("strategic", "random_bundle", 0.5)),
    (("increase_price", "strategic", 1.0),),
)
COST_MIXES = (
    (("none", 0.0, 1.0),),
    (("none", 0.0, 1.0), ("constant", 0.5, 1.0), ("linear", 0.01, 1.0),
     ("exponential", 1.01, 1.0)),
)

PROPERTY = settings(max_examples=15, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _world(n_sessions, seed, **spec):
    """A population and its kernel-eligible indices."""
    pop = sample_population(PopulationSpec(preset="synthetic", **spec),
                            n_sessions, seed=seed)
    return pop, np.flatnonzero(pop.kernel_eligible())


@st.composite
def populations(draw):
    """A small population and its kernel-eligible indices (two or more)."""
    pop, eligible = _world(
        draw(st.integers(min_value=2, max_value=40)),
        draw(st.integers(min_value=0, max_value=2**16)),
        n_bundles=draw(st.integers(min_value=2, max_value=30)),
        n_price_samples=draw(st.sampled_from((1, 3, 31, 120))),
        max_rounds=draw(st.sampled_from((1, 2, 25, 500))),
        strategy_mix=draw(st.sampled_from(MIXES)),
        cost_mix=draw(st.sampled_from(COST_MIXES)),
    )
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


def test_an_empty_index_set_returns_empty_records():
    pop, eligible = _world(8, 0)
    empty = simulate_strategic_batch(pop, np.arange(0))
    full = simulate_strategic_batch(pop, eligible)
    _assert_same_bits(empty, {key: values[:0] for key, values in full.items()})


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


@PROPERTY
@given(world=populations())
# One candidate per round next to three-double Increase-Price rounds,
# and batches with no strategic row at all.
@example(world=_world(30, 1, n_price_samples=1, strategy_mix=MIXES[1],
                      cost_mix=COST_MIXES[1]))
@example(world=_world(30, 2, n_price_samples=1, strategy_mix=MIXES[3],
                      cost_mix=COST_MIXES[1]))
@example(world=_world(30, 3, n_price_samples=120, strategy_mix=MIXES[3]))
def test_every_session_equals_its_engine(world):
    pop, eligible = world
    assert_kernel_equals_engine(simulate_strategic_batch(pop, eligible),
                                pop, eligible)
