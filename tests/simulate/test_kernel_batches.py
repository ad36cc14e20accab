"""Externally-assembled kernel batches: assembly, concat, heterogeneity.

The contract under test: :func:`simulate_assembled_batch` over a batch
merged from *different* populations (different catalogue widths, round
caps, sampling depths) returns, for every session, records bit-identical
to running that session's home population alone — padding and batch
composition are pure execution concerns.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.simulate.kernel import (
    assemble_strategic_batch,
    concat_strategic_batches,
    simulate_assembled_batch,
    simulate_strategic_batch,
)
from repro.simulate.population import PopulationSpec, sample_population


def _population(seed, *, n_sessions=40, n_bundles=24, max_rounds=500,
                n_price_samples=120, preset="synthetic"):
    spec = PopulationSpec(
        preset=preset,
        n_bundles=n_bundles,
        max_rounds=max_rounds,
        n_price_samples=n_price_samples,
    )
    return sample_population(spec, n_sessions, seed=seed)


def _assert_records_equal(got, want, rows_got, rows_want):
    for key in want:
        np.testing.assert_array_equal(
            got[key][rows_got], want[key][rows_want], err_msg=key
        )


class TestAssembledEntryPoint:
    def test_wrapper_equals_assemble_plus_simulate(self):
        pop = _population(0)
        indices = np.arange(pop.n_sessions)
        via_wrapper = simulate_strategic_batch(pop, indices)
        via_parts = simulate_assembled_batch(
            assemble_strategic_batch(pop, indices)
        )
        _assert_records_equal(via_parts, via_wrapper,
                              slice(None), slice(None))

    def test_batch_carries_per_session_protocol_constants(self):
        pop = _population(3, max_rounds=77, n_price_samples=31)
        batch = assemble_strategic_batch(pop, np.arange(5))
        assert len(batch) == 5
        assert (batch.max_rounds == 77).all()
        assert (batch.n_price_samples == 31).all()

    def test_seed_word_count_mismatch_rejected(self):
        pop = _population(1)
        batch = assemble_strategic_batch(pop, np.arange(4))
        with pytest.raises(ValueError, match="seed_words"):
            replace(batch, seed_words=batch.seed_words[:-1])

    @pytest.mark.parametrize("field", [
        "gains", "utility_rate", "budget", "cost_kind", "n_price_samples",
        "max_rounds",
    ])
    def test_every_per_session_field_length_checked(self, field):
        batch = assemble_strategic_batch(_population(1), np.arange(4))
        with pytest.raises(ValueError, match=field):
            replace(batch, **{field: getattr(batch, field)[:3]})

    def test_batch_can_be_run_again(self):
        batch = assemble_strategic_batch(_population(4), np.arange(40))
        first = simulate_assembled_batch(batch)
        _assert_records_equal(simulate_assembled_batch(batch), first,
                              slice(None), slice(None))

    def test_self_concat_runs_each_half_like_the_batch_alone(self):
        batch = assemble_strategic_batch(_population(5), np.arange(40))
        alone = simulate_assembled_batch(batch)
        out = simulate_assembled_batch(concat_strategic_batches([batch, batch]))
        _assert_records_equal(out, alone, slice(0, 40), slice(None))
        _assert_records_equal(out, alone, slice(40, 80), slice(None))


class TestHeterogeneousConcat:
    def test_concat_of_one_is_identity(self):
        pop = _population(2)
        batch = assemble_strategic_batch(pop, np.arange(8))
        assert concat_strategic_batches([batch]) is batch

    def test_concat_requires_a_batch(self):
        with pytest.raises(ValueError, match="at least one"):
            concat_strategic_batches([])

    def test_mixed_catalogue_widths_bit_identical_to_solo_runs(self):
        """Sessions from three differently-shaped populations merged
        into one kernel invocation terminate exactly as they do alone."""
        pops = [
            _population(10, n_sessions=30, n_bundles=12),
            _population(11, n_sessions=25, n_bundles=40,
                        n_price_samples=60),
            _population(12, n_sessions=20, n_bundles=24, max_rounds=50),
        ]
        solo = [
            simulate_strategic_batch(pop, np.arange(pop.n_sessions))
            for pop in pops
        ]
        merged = concat_strategic_batches(
            [assemble_strategic_batch(pop, np.arange(pop.n_sessions))
             for pop in pops]
        )
        assert merged.gains.shape == (75, 40)
        out = simulate_assembled_batch(merged)
        start = 0
        for pop, want in zip(pops, solo):
            rows = slice(start, start + pop.n_sessions)
            _assert_records_equal(out, want, rows, slice(None))
            start += pop.n_sessions

    def test_padding_columns_are_never_traded(self):
        """A padded column must never be offered: every transacted gain
        of the narrow population exists in its real catalogue."""
        narrow = _population(20, n_sessions=30, n_bundles=8)
        wide = _population(21, n_sessions=30, n_bundles=32)
        merged = concat_strategic_batches([
            assemble_strategic_batch(narrow, np.arange(narrow.n_sessions)),
            assemble_strategic_batch(wide, np.arange(wide.n_sessions)),
        ])
        out = simulate_assembled_batch(merged)
        gains = out["delta_g"][:narrow.n_sessions]
        real = set(float(g) for g in narrow.gains)
        for value in gains[np.isfinite(gains)]:
            assert float(value) in real

    def test_interleaved_cost_mixes_survive_concat(self):
        spec = PopulationSpec(
            preset="synthetic",
            cost_mix=(("none", 0.0, 1.0), ("linear", 0.05, 1.0)),
        )
        pop_a = sample_population(spec, 20, seed=30)
        pop_b = _population(31, n_sessions=15, n_bundles=10)
        solo_a = simulate_strategic_batch(pop_a, np.arange(20))
        solo_b = simulate_strategic_batch(pop_b, np.arange(15))
        out = simulate_assembled_batch(concat_strategic_batches([
            assemble_strategic_batch(pop_a, np.arange(20)),
            assemble_strategic_batch(pop_b, np.arange(15)),
        ]))
        _assert_records_equal(out, solo_a, slice(0, 20), slice(None))
        _assert_records_equal(out, solo_b, slice(20, 35), slice(None))
