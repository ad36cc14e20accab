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
"""

from __future__ import annotations

import zlib
from collections.abc import Callable
from typing import Any, TypeVar

import numpy as np
from numpy.typing import NDArray

__all__ = ["as_generator", "can_replay_block", "replay_block", "spawn"]

_SeedLike = int | np.random.Generator | np.random.SeedSequence | None
_T = TypeVar("_T")

#: Bit generators whose ``advance(k)`` skips exactly ``k`` doubles.
#: Philox also has ``advance``, but it counts 4-word counter blocks and
#: drops the buffered words, so it cannot replay a partial block.
_REPLAYABLE = (np.random.PCG64, np.random.PCG64DXSM)


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
