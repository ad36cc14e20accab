"""Tests for deterministic RNG trees."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import as_generator, spawn
from repro.utils.rng import (
    generator_from_seed_words,
    replay_block,
    stream_seed_words,
)


class TestSpawn:
    def test_same_path_same_stream(self):
        a = spawn(7, "market", 3).random(5)
        b = spawn(7, "market", 3).random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_keys_different_streams(self):
        a = spawn(7, "market", 3).random(5)
        b = spawn(7, "market", 4).random(5)
        assert not np.allclose(a, b)

    def test_different_seeds_different_streams(self):
        a = spawn(7, "market").random(5)
        b = spawn(8, "market").random(5)
        assert not np.allclose(a, b)

    def test_string_keys_stable_across_calls(self):
        # CRC32 of repr is process-independent, unlike hash().
        a = spawn(0, "alpha", "beta").integers(0, 1 << 30)
        b = spawn(0, "alpha", "beta").integers(0, 1 << 30)
        assert a == b

    def test_spawn_from_generator_does_not_advance_parent(self):
        parent = np.random.default_rng(3)
        state_before = parent.bit_generator.state
        spawn(parent, "child").random(3)
        assert parent.bit_generator.state == state_before

    def test_spawn_from_seedsequence(self):
        seq = np.random.SeedSequence(42)
        a = spawn(seq, "x").random(3)
        b = spawn(seq, "x").random(3)
        np.testing.assert_array_equal(a, b)

    def test_none_seed_gives_generator(self):
        assert isinstance(spawn(None, "x"), np.random.Generator)

    def test_tuple_keys_supported(self):
        a = spawn(1, ("run", 2)).random(2)
        b = spawn(1, ("run", 2)).random(2)
        np.testing.assert_array_equal(a, b)


class TestAsGenerator:
    def test_passthrough_generator(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen

    def test_int_seed_deterministic(self):
        np.testing.assert_array_equal(
            as_generator(5).random(4), as_generator(5).random(4)
        )

    def test_seedsequence(self):
        seq = np.random.SeedSequence(9)
        a = as_generator(seq).random(3)
        b = as_generator(np.random.SeedSequence(9)).random(3)
        np.testing.assert_array_equal(a, b)

    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)


def _after_integers(seed):
    rng = np.random.default_rng(seed)
    rng.integers(0, 10)
    return rng


class TestReplayBlock:
    @pytest.mark.parametrize("used", [0, 1, 7, 16])
    def test_stream_continues_as_if_only_used_doubles_were_drawn(self, used):
        fast = np.random.default_rng(3)
        ref = np.random.default_rng(3)
        result = replay_block(fast, 16, lambda tape: (tape[:used].copy(), used))
        expected = np.array([ref.random() for _ in range(used)])
        np.testing.assert_array_equal(result, expected)
        assert fast.bit_generator.state == ref.bit_generator.state
        np.testing.assert_array_equal(fast.random(5), ref.random(5))

    @pytest.mark.parametrize("used", [0, 5, 12])
    def test_buffered_half_word_survives_the_replay(self, used):
        # ``integers`` with a 32-bit range leaves half of a 64-bit word
        # buffered; the scalar ``random()`` calls never touch it, so the
        # next ``integers`` must still return it.  A bare ``advance``
        # discards it and this test fails.
        fast = _after_integers(11)
        ref = _after_integers(11)
        assert fast.bit_generator.state["has_uint32"] == 1
        replay_block(fast, 12, lambda tape: (None, used))
        for _ in range(used):
            ref.random()
        assert fast.bit_generator.state == ref.bit_generator.state
        assert [int(fast.integers(0, 10)) for _ in range(6)] == [
            int(ref.integers(0, 10)) for _ in range(6)
        ]

    def test_interleaved_blocks_and_integers_match_scalar_stream(self):
        fast = np.random.default_rng(5)
        ref = np.random.default_rng(5)
        for round_ in range(20):
            used = (round_ * 7) % 9
            block = replay_block(fast, 8, lambda tape: (tape[:used].copy(), used))
            scalar = [ref.uniform(0.0, 1.0) for _ in range(used)]
            np.testing.assert_array_equal(block, scalar)
            assert int(fast.integers(0, 1000)) == int(ref.integers(0, 1000))

    @pytest.mark.parametrize("bitgen", [np.random.PCG64, np.random.PCG64DXSM])
    def test_exact_skip_generators_replay(self, bitgen):
        fast = np.random.Generator(bitgen(0))
        ref = np.random.Generator(bitgen(0))
        replay_block(fast, 8, lambda tape: (None, 5))
        ref.random(5)
        assert fast.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("bitgen", [np.random.Philox, np.random.MT19937,
                                        np.random.SFC64])
    def test_other_generators_rejected_untouched(self, bitgen):
        # Philox's ``advance`` counts 4-word blocks; MT19937 and SFC64
        # have none.
        rng = np.random.Generator(bitgen(0))
        with pytest.raises(ValueError, match="PCG64"):
            replay_block(rng, 8, lambda tape: (None, 5))
        np.testing.assert_array_equal(
            rng.random(4), np.random.Generator(bitgen(0)).random(4)
        )


def _assert_streams_match_spawn(root, indices, prefix=(), suffix=()):
    words = stream_seed_words(root, indices, prefix=prefix, suffix=suffix)
    assert words.shape == (len(indices), 4)
    assert words.dtype == np.uint64
    for row, i in zip(words, indices):
        fast = generator_from_seed_words(row)
        ref = spawn(root, *prefix, int(i), *suffix)
        assert fast.bit_generator.state == ref.bit_generator.state, (root, i)


class TestStreamSeedWords:
    @pytest.mark.parametrize("root", [0, 7, 123456, 2**32 - 1, 2**32 + 5,
                                      2**64 + 9, 2**70 + 3])
    def test_generator_state_equals_spawn(self, root):
        # Roots past 2**32 and 2**64 enter SeedSequence as two and three
        # entropy words, which pushes the entropy past the 4-word pool.
        _assert_streams_match_spawn(root, np.arange(40),
                                    ("session",), ("task",))

    def test_string_and_numpy_roots(self):
        _assert_streams_match_spawn("titanic", np.arange(10), ("session",))
        _assert_streams_match_spawn(np.int64(11), np.arange(10), (), ("x",))

    @pytest.mark.parametrize("prefix,suffix", [
        ((), ()),                       # two words: the pool is zero-padded
        (("a",), ()),
        ((), ("b", 4)),
        (("x", ("run", 2)), ("y", "z")),  # seven words: folded past the pool
    ])
    def test_any_key_path_shape(self, prefix, suffix):
        _assert_streams_match_spawn(3, np.arange(6), prefix, suffix)

    def test_many_indices_including_wrapped_ones(self):
        # spawn keeps an integer key's low 32 bits, negative ones too.
        indices = np.concatenate([np.arange(0, 50_000, 997),
                                  [2**32, 2**32 + 3, -1, -(2**31)]])
        _assert_streams_match_spawn(5, indices, ("session",), ("task",))

    def test_draws_equal_spawn_draws(self):
        words = stream_seed_words(9, [0, 1, 2], prefix=("session",))
        for i, row in enumerate(words):
            np.testing.assert_array_equal(
                generator_from_seed_words(row).random((2, 7)),
                spawn(9, "session", i).random((2, 7)),
            )

    def test_empty_indices(self):
        assert stream_seed_words(1, np.arange(0)).shape == (0, 4)

    @pytest.mark.parametrize("root", [None, np.random.default_rng(0),
                                      np.random.SeedSequence(0)])
    def test_non_key_roots_rejected(self, root):
        with pytest.raises(TypeError):
            stream_seed_words(root, [0])

    def test_negative_root_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            stream_seed_words(-1, [0])

    def test_generator_needs_four_words(self):
        with pytest.raises(ValueError, match="4 seed words"):
            generator_from_seed_words(np.zeros(3, dtype=np.uint64))


@settings(max_examples=40, deadline=None)
@given(
    root=st.one_of(st.integers(min_value=0, max_value=2**96),
                   st.text(max_size=8)),
    indices=st.lists(st.integers(min_value=-(2**40), max_value=2**40),
                     min_size=1, max_size=8),
    n_prefix=st.integers(min_value=0, max_value=3),
    n_suffix=st.integers(min_value=0, max_value=2),
)
def test_seed_words_property(root, indices, n_prefix, n_suffix):
    prefix = tuple(f"p{j}" for j in range(n_prefix))
    suffix = tuple(range(n_suffix))
    _assert_streams_match_spawn(root, np.array(indices), prefix, suffix)
