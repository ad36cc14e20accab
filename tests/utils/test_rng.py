"""Tests for deterministic RNG trees."""

import numpy as np
import pytest

from repro.utils import as_generator, spawn
from repro.utils.rng import can_replay_block, replay_block


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

    def test_only_exact_skip_generators_replay(self):
        assert can_replay_block(np.random.default_rng(0))
        assert can_replay_block(np.random.Generator(np.random.PCG64DXSM(0)))
        # Philox's ``advance`` counts 4-word blocks; MT19937 has none.
        assert not can_replay_block(np.random.Generator(np.random.Philox(0)))
        assert not can_replay_block(np.random.Generator(np.random.MT19937(0)))
