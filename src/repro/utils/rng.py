"""Deterministic random-number-generator trees.

Every stochastic component in the library draws from a
:class:`numpy.random.Generator`.  To keep experiments reproducible while
letting independent subsystems (dataset synthesis, model initialisation,
bargaining strategies, ...) consume randomness without interfering with
each other, generators are derived from a root seed plus a path of string
keys, in the spirit of JAX's key-splitting:

>>> root = spawn(7, "titanic")
>>> model_rng = spawn(7, "titanic", "forest")
>>> market_rng = spawn(7, "titanic", "market", 3)

The same ``(seed, *keys)`` path always yields the same stream, and
distinct paths yield statistically independent streams.

Code that needs thousands of sibling streams ``spawn(seed, *prefix, i,
*suffix)`` computes their seed words in one vectorised pass
(:func:`stream_seed_words`) and builds each generator only when it is
first drawn from (:func:`generator_from_seed_words`).
"""

from __future__ import annotations

import zlib
from collections.abc import Callable
from typing import Any, TypeVar, cast

import numpy as np
from numpy.random.bit_generator import ISeedSequence
from numpy.typing import ArrayLike, NDArray

__all__ = [
    "as_generator",
    "can_replay_block",
    "generator_from_seed_words",
    "replay_block",
    "spawn",
    "stream_seed_words",
]

_SeedLike = int | np.random.Generator | np.random.SeedSequence | None
_T = TypeVar("_T")

#: Bit generators whose ``advance(k)`` skips exactly ``k`` doubles.
#: Philox also has ``advance``, but it counts 4-word counter blocks and
#: drops the buffered words, so it cannot replay a partial block.
_REPLAYABLE = (np.random.PCG64, np.random.PCG64DXSM)

# ``np.random.SeedSequence``'s hash constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = 16


def _key_to_int(key: object) -> int:
    """Map an arbitrary hashable key to a stable 32-bit integer.

    ``hash()`` is salted per-process for strings, so we use CRC32 of the
    ``repr`` instead; this keeps derived streams stable across runs and
    machines.
    """
    if isinstance(key, (int, np.integer)):
        return int(key) & 0xFFFFFFFF
    return zlib.crc32(repr(key).encode("utf-8"))


def spawn(seed: _SeedLike, *keys: object) -> np.random.Generator:
    """Return a generator for the stream identified by ``(seed, *keys)``.

    Parameters
    ----------
    seed:
        Root entropy.  ``None`` gives a nondeterministic generator;
        an existing :class:`~numpy.random.Generator` is *split* (the
        parent stream is not advanced).
    keys:
        Path of identifiers (strings, ints, tuples, ...) naming the
        subsystem that will consume the stream.
    """
    if isinstance(seed, np.random.Generator):
        # Split deterministically off the generator's current state.
        base = int(seed.bit_generator.state["state"]["state"]) & 0xFFFFFFFF
        seq = np.random.SeedSequence([base, *(_key_to_int(k) for k in keys)])
        return np.random.default_rng(seq)
    if isinstance(seed, np.random.SeedSequence):
        seq = np.random.SeedSequence(
            entropy=seed.entropy, spawn_key=tuple(_key_to_int(k) for k in keys)
        )
        return np.random.default_rng(seq)
    if seed is None:
        return np.random.default_rng()
    root = int(seed) if isinstance(seed, (int, np.integer)) else _key_to_int(seed)
    seq = np.random.SeedSequence([root, *(_key_to_int(k) for k in keys)])
    return np.random.default_rng(seq)


def as_generator(seed: _SeedLike) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh entropy), an integer seed, a
    :class:`~numpy.random.SeedSequence`, or an existing generator (returned
    unchanged so that callers can thread one stream through a pipeline).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def can_replay_block(rng: np.random.Generator) -> bool:
    """Whether :func:`replay_block` can serve ``rng``; callers keep a
    draw-for-draw scalar loop for the other bit generators."""
    return isinstance(rng.bit_generator, _REPLAYABLE)


def replay_block(
    rng: np.random.Generator,
    size: int,
    consume: Callable[[NDArray[np.float64]], tuple[_T, int]],
) -> _T:
    """Vectorise a loop of scalar ``random()``-based draws.

    ``consume(tape)`` receives ``size`` doubles drawn as one block and
    returns ``(result, used)``, where ``used`` is how many doubles the
    equivalent scalar loop would have drawn.  ``rng`` is then left
    exactly where that loop would have left it: rewound to the saved
    state and advanced by ``used``.  ``uniform(a, b)`` is
    ``a + (b - a) * random()`` draw for draw, so a loop of ``uniform``
    calls can be replayed on the tape bit-identically.

    ``advance`` also discards the half of a 64-bit word that a previous
    ``integers()`` call buffered (``has_uint32``/``uinteger``); the
    scalar ``random()`` calls never touch that half, so it is restored
    afterwards, or a later ``integers()`` would diverge from the scalar
    stream.  The state is read once per call (twice when a half-word is
    buffered).  Requires :func:`can_replay_block`.
    """
    bitgen: Any = rng.bit_generator  # PCG64 or PCG64DXSM
    state = bitgen.state
    result, used = consume(rng.random(size))
    bitgen.state = state
    bitgen.advance(used)
    if state["has_uint32"]:
        bitgen.state = {
            **bitgen.state,
            "has_uint32": state["has_uint32"],
            "uinteger": state["uinteger"],
        }
    return result


def _uint32_words(value: int) -> list[int]:
    """``value`` as little-endian 32-bit words, as ``SeedSequence``
    splits an entropy integer (``0`` is one word)."""
    if value < 0:
        raise ValueError(f"seed words need a non-negative root, got {value}")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hash_constants(init: int, mult: int, count: int) -> NDArray[np.uint32]:
    """The first ``count + 1`` values of a ``hash_const *= mult`` chain."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)


def _hashmix(values: NDArray[Any], consts: NDArray[np.uint32],
             start: int) -> NDArray[Any]:
    """``SeedSequence``'s ``hashmix`` for the calls ``start, start + 1,
    ...`` of one ``hash_const`` chain, one call per column of ``values``."""
    stop = start + values.shape[1]
    mixed = (values ^ consts[start:stop]) * consts[start + 1:stop + 1]
    return mixed ^ (mixed >> _XSHIFT)


def _mix(x: NDArray[Any], y: NDArray[Any]) -> NDArray[Any]:
    mixed = _MIX_MULT_L * x - _MIX_MULT_R * y
    return mixed ^ (mixed >> _XSHIFT)


def stream_seed_words(
    seed: object,
    indices: ArrayLike,
    *,
    prefix: tuple[object, ...] = (),
    suffix: tuple[object, ...] = (),
) -> NDArray[np.uint64]:
    """PCG64 seed words of ``spawn(seed, *prefix, i, *suffix)`` for
    every ``i`` in ``indices``, as an ``(n, 4)`` uint64 array.

    A vectorised port of ``np.random.SeedSequence``'s entropy mixing
    (pool size 4, multi-word roots) and ``generate_state(4, uint64)``:
    one pass over uint32 columns costs a few hundred microseconds for
    thousands of streams, where each ``spawn`` costs tens.  Row ``j``
    turned into a generator by :func:`generator_from_seed_words` has
    exactly the state of ``spawn(seed, *prefix, indices[j], *suffix)``.
    ``seed`` is an integer or a key, as for :func:`spawn`.
    """
    if seed is None or isinstance(seed, (np.random.Generator, np.random.SeedSequence)):
        raise TypeError("stream_seed_words needs an integer or key root")
    root = int(seed) if isinstance(seed, (int, np.integer)) else _key_to_int(seed)
    head = [*_uint32_words(root), *(_key_to_int(k) for k in prefix)]
    tail = [_key_to_int(k) for k in suffix]
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    n, width = idx.size, len(head) + 1 + len(tail)
    entropy = np.zeros((n, max(width, _POOL_SIZE)), dtype=np.uint32)
    entropy[:, :len(head)] = head
    entropy[:, len(head)] = idx & _MASK32
    entropy[:, len(head) + 1:width] = tail

    # mix_entropy: hashmix the first pool-size words, cross-mix every
    # pair of pool words, then fold in the words past the pool.
    calls = _POOL_SIZE * _POOL_SIZE + _POOL_SIZE * max(width - _POOL_SIZE, 0)
    consts = _hash_constants(_INIT_A, _MULT_A, calls)
    pool = _hashmix(entropy[:, :_POOL_SIZE], consts, 0)
    call = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        hashed = _hashmix(np.repeat(pool[:, src:src + 1], len(dst), axis=1),
                          consts, call)
        pool[:, dst] = _mix(pool[:, dst], hashed)
        call += len(dst)
    for src in range(_POOL_SIZE, width):
        hashed = _hashmix(np.repeat(entropy[:, src:src + 1], _POOL_SIZE, axis=1),
                          consts, call)
        pool = _mix(pool, hashed)
        call += _POOL_SIZE

    # generate_state(4, uint64): eight uint32 words cycled off the pool.
    consts = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    state = _hashmix(np.tile(pool, 2), consts, 0)
    words: NDArray[np.uint64] = (
        state.astype("<u4", copy=False).view("<u8").astype(np.uint64)
    )
    return words


class _SeedWords(ISeedSequence):
    """A seed sequence that hands PCG64 precomputed state words."""

    __slots__ = ("words",)

    def __init__(self, words: NDArray[np.uint64]) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype: Any = np.uint32) -> NDArray[Any]:
        if n_words != len(self.words) or np.dtype(dtype) != np.dtype(np.uint64):
            raise ValueError(
                f"seed words hold {len(self.words)} uint64 words; "
                f"asked for {n_words} of {np.dtype(dtype)}"
            )
        return self.words


def generator_from_seed_words(words: ArrayLike) -> np.random.Generator:
    """The generator whose PCG64 state is seeded by one row of
    :func:`stream_seed_words`; equal to the matching :func:`spawn`."""
    row = np.ascontiguousarray(words, dtype=np.uint64)
    if row.shape != (4,):
        raise ValueError(f"PCG64 takes 4 seed words, got shape {row.shape}")
    # numpy's stubs type PCG64's seed as a SeedSequence; at run time any
    # ISeedSequence is accepted.
    return np.random.Generator(np.random.PCG64(cast(Any, _SeedWords(row))))
