"""Vectorised secure bargaining: packed Paillier at population scale.

The seed serial path (:mod:`repro.security.secure_compare`) performs
one full-width modular exponentiation per encryption and per
decryption, per session, per comparison — the slowest code in the
repo.  This module keeps the protocol (semi-honest parties, blinded
sign tests, linear payment under encryption) but restructures the
arithmetic so whole *rounds* of sessions settle in a handful of
big-int operations:

* **Slot packing** — each session's quantised gain is encrypted
  pre-positioned at a fixed-width slot ``value · B^j`` (``B = 2^W``)
  with a public sign offset, so the product of ``k`` ciphertexts is
  one ciphertext of ``k`` independently-addressable slots.  Per-slot
  homomorphic add and scalar-mul survive because slot arithmetic is
  exact integer arithmetic: only the *final* slot values must fit in
  ``W`` bits, intermediate overlaps cancel against the evaluator's
  plaintext correction term.
* **CRT decryption** — one
  :meth:`~repro.security.paillier.PaillierPrivateKey.raw_decrypt_crt`
  call (half-size moduli and exponents, pinned equal to
  ``raw_decrypt``) recovers all ``k`` slots at once.
* **Obfuscation pool** — :class:`ObfuscationPool` precomputes ``r^n``
  randomisers and draws fresh products of random pairs, so each
  encryption costs ~2 modular multiplications instead of a full
  ``n``-bit exponentiation.  (A randomiser pool narrows the
  randomiser space — a standard simulation-grade relaxation; the
  serial path keeps textbook fresh randomisers.)

Every decrypted outcome is **value-identical** to the seed serial
path: the packed slots carry the *same integers* the serial fixed-point
pipeline produces (``m_g·m_r + m_b·S`` for payments,
``s·(m_g − m_t)`` for blinded comparisons), so the final float
divisions are bit-for-bit the same, and comparison bits never depend
on the blinds.  The serial path is retained verbatim behind
:func:`secure_payment_serial_reference` /
:func:`secure_threshold_check_serial_reference`.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass

from repro import obs
from repro.market.pricing import QuotedPrice
from repro.security.paillier import (
    FLOAT_SCALE,
    PaillierPrivateKey,
    PaillierPublicKey,
    _rand_int_below,
    generate_keypair,
)
from repro.security.secure_compare import (
    BLIND_RANGE,
    BlindedComparison,
    encrypted_gain,
    secure_payment,
    secure_threshold_check,
)
from repro.utils.rng import as_generator, spawn
from repro.utils.validation import require

__all__ = [
    "ObfuscationPool",
    "SecureSettlement",
    "SlotLayout",
    "pack_values",
    "secure_payment_batch",
    "secure_payment_serial_reference",
    "secure_threshold_check_batch",
    "secure_threshold_check_serial_reference",
    "settlement_for",
    "slot_layout",
    "unpack_values",
]

#: Gain-mantissa contract, mirroring ``encrypted_gain``'s plausible
#: range check (−1.0 <= ΔG <= 10.0 at ``FLOAT_SCALE`` fixed point).
_GAIN_MANT_MIN = -FLOAT_SCALE
_GAIN_MANT_MAX = 10 * FLOAT_SCALE

#: Public pre-offset added to every gain mantissa before encryption so
#: the slot-positioned plaintext is non-negative (a negative mantissa
#: would wrap mod ``n`` and smear across every higher slot).  The
#: evaluator knows it and subtracts ``coeff · _GAIN_OFFSET`` from its
#: plaintext correction.
_GAIN_OFFSET = 2 * FLOAT_SCALE

#: Settlement telemetry (monotonic timings only — this module is
#: digest-bearing, and settled payments must stay bit-identical with
#: metrics on or off).
_SETTLE_SECONDS = obs.REGISTRY.histogram(
    "repro_secure_settle_seconds",
    "Batched Paillier settle() latency per call (monotonic, seconds).",
)
_SETTLED_SESSIONS = obs.REGISTRY.counter(
    "repro_secure_settled_sessions_total",
    "Sessions whose payments were settled under encryption.",
)


def _quantise(value: float) -> int:
    """``encode``'s float mantissa: ``round(value · FLOAT_SCALE)``."""
    return int(round(float(value) * FLOAT_SCALE))


def _quantise_gain(delta_g: float) -> int:
    require(-1.0 <= float(delta_g) <= 10.0, "gain outside plausible range")
    return _quantise(delta_g)


# ----------------------------------------------------------------------
# Slot layout
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SlotLayout:
    """Fixed-width packing geometry: ``slots`` values of ``width`` bits.

    Each slot stores ``value + offset`` with ``offset = 2^(width−1)``
    (sign-offset encoding), so signed slot values in
    ``(−offset, offset)`` pack into non-negative fields.
    """

    width: int
    slots: int

    @property
    def offset(self) -> int:
        """The per-slot sign offset (half the slot range)."""
        return 1 << (self.width - 1)

    @property
    def mask(self) -> int:
        return (1 << self.width) - 1


def slot_layout(public_key: PaillierPublicKey, max_abs: int) -> SlotLayout:
    """The widest packing whose slots safely hold ``|value| <= max_abs``.

    ``width`` leaves two guard bits over the magnitude bound;
    ``slots`` fills the key's plaintext space minus two bits, so the
    packed total always stays below ``n`` (no modular wrap) and below
    the signed-decode boundary ``n/2``.
    """
    require(max_abs >= 0, "max_abs must be >= 0")
    width = max(int(max_abs).bit_length() + 2, 8)
    slots = (public_key.n.bit_length() - 2) // width
    require(
        slots >= 1,
        f"key too small: one {width}-bit slot does not fit "
        f"{public_key.n.bit_length()}-bit plaintexts",
    )
    return SlotLayout(width=width, slots=slots)


def pack_values(values: list[int], layout: SlotLayout) -> int:
    """Pack signed slot values into one integer (sign-offset encoded)."""
    require(len(values) <= layout.slots, "more values than slots")
    total = 0
    for j, value in enumerate(values):
        field = int(value) + layout.offset
        require(0 <= field <= layout.mask,
                "slot value outside the layout's signed range")
        total |= field << (j * layout.width)
    return total


def unpack_values(total: int, count: int, layout: SlotLayout) -> list[int]:
    """Invert :func:`pack_values` for the first ``count`` slots."""
    require(0 <= count <= layout.slots, "count outside the layout")
    return [
        ((total >> (j * layout.width)) & layout.mask) - layout.offset
        for j in range(count)
    ]


# ----------------------------------------------------------------------
# Obfuscation pool
# ----------------------------------------------------------------------
class ObfuscationPool:
    """Precomputed ``r^n mod n²`` randomisers for amortised encryption.

    Building the pool costs ``size`` full modular exponentiations —
    once per round (or per settlement).  Each draw multiplies two
    distinct pool entries (``r_i^n · r_j^n = (r_i·r_j)^n``, still a
    valid randomiser), so every subsequent encryption is ~2 modular
    multiplications.
    """

    def __init__(
        self,
        public_key: PaillierPublicKey,
        *,
        size: int = 32,
        rng: object = None,
    ):
        require(size >= 2, "pool size must be >= 2")
        self.public_key = public_key
        gen = as_generator(rng)
        n, n_sq = public_key.n, public_key.n_squared
        entries = []
        while len(entries) < size:
            r = 1 + _rand_int_below(gen, n - 1)
            if math.gcd(r, n) == 1:
                entries.append(pow(r, n, n_sq))
        self._entries = entries
        self._rng = gen
        self.draws = 0

    def draw(self) -> int:
        """A fresh randomiser ``(r_i · r_j)^n mod n²`` (i ≠ j)."""
        size = len(self._entries)
        i = int(self._rng.integers(size))
        j = int(self._rng.integers(size - 1))
        if j >= i:
            j += 1
        self.draws += 1
        return (self._entries[i] * self._entries[j]) % self.public_key.n_squared

    def raw_encrypt(self, mantissa: int) -> int:
        """``Enc(mantissa)`` using a pooled randomiser (~2 modmuls)."""
        n, n_sq = self.public_key.n, self.public_key.n_squared
        return ((1 + n * (mantissa % n)) % n_sq) * self.draw() % n_sq


# ----------------------------------------------------------------------
# The packed affine core
# ----------------------------------------------------------------------
def _packed_affine(
    gain_mantissas: list[int],
    coeffs: list[int],
    consts: list[int],
    public_key: PaillierPublicKey,
    private_key: PaillierPrivateKey,
    pool: ObfuscationPool,
) -> list[int]:
    """``coeffs[i]·m_i + consts[i]`` for every ``i``, under encryption.

    The task party encrypts each gain slot-positioned with the public
    offset: ``Enc((m_i + _GAIN_OFFSET) · B^j)``.  The evaluator (who
    never decrypts) raises each ciphertext to its small positive
    coefficient, multiplies the pack together, and adds one known
    plaintext correction ``Σ_j (offset + consts − coeffs·_GAIN_OFFSET)
    · B^j``; the key holder then recovers all slots with a single CRT
    decryption.  Slot values are exact integers, so results are
    independent of the pack width and grouping.
    """
    require(len(coeffs) == len(gain_mantissas) == len(consts),
            "batch inputs must have equal lengths")
    bound = 1
    for a, c in zip(coeffs, consts):
        require(a >= 0, "coefficients must be non-negative")
        bound = max(bound, abs(a * _GAIN_MANT_MAX + c),
                    abs(a * _GAIN_MANT_MIN + c))
    layout = slot_layout(public_key, bound)
    n, n_sq = public_key.n, public_key.n_squared
    out: list[int] = []
    for start in range(0, len(gain_mantissas), layout.slots):
        stop = min(start + layout.slots, len(gain_mantissas))
        packed = 1
        correction = 0
        for j, i in enumerate(range(start, stop)):
            shift = j * layout.width
            cipher = pool.raw_encrypt(
                (gain_mantissas[i] + _GAIN_OFFSET) << shift
            )
            packed = (packed * pow(cipher, coeffs[i], n_sq)) % n_sq
            correction += (
                layout.offset + consts[i] - coeffs[i] * _GAIN_OFFSET
            ) << shift
        packed = (packed * ((1 + n * (correction % n)) % n_sq)) % n_sq
        total = private_key.raw_decrypt_crt(packed)
        out.extend(unpack_values(total, stop - start, layout))
    return out


# ----------------------------------------------------------------------
# Batched protocol fronts
# ----------------------------------------------------------------------
def secure_threshold_check_batch(
    gains: list[float],
    thresholds: list[float],
    public_key: PaillierPublicKey,
    private_key: PaillierPrivateKey,
    *,
    rng: object = None,
    pool: ObfuscationPool | None = None,
) -> list[BlindedComparison]:
    """``ΔG_i >= t_i`` for a whole round of sessions, packed.

    Per slot the key holder sees ``s_i·(m_g − m_t)`` — the same
    multiplicatively-blinded difference the serial protocol reveals,
    one fresh positive blind per session.  The comparison bits are
    blind-independent, so they match the serial path exactly.
    """
    gen = as_generator(rng)
    if pool is None:
        pool = ObfuscationPool(public_key, rng=gen)
    mantissas = [_quantise_gain(g) for g in gains]
    t_mants = [_quantise(t) for t in thresholds]
    blinds = [_quantise(float(gen.uniform(*BLIND_RANGE))) for _ in gains]
    values = _packed_affine(
        mantissas,
        blinds,
        [-s * t for s, t in zip(blinds, t_mants)],
        public_key,
        private_key,
        pool,
    )
    divisor = float(FLOAT_SCALE**2)
    return [
        BlindedComparison(result=(v / divisor) >= 0.0,
                          blinded_value=v / divisor)
        for v in values
    ]


def secure_payment_batch(
    gains: list[float],
    quotes: list[QuotedPrice],
    public_key: PaillierPublicKey,
    private_key: PaillierPrivateKey,
    *,
    rng: object = None,
    pool: ObfuscationPool | None = None,
) -> list[float]:
    """Def. 2.3 payments for a whole round, value-identical to serial.

    Mirrors :func:`repro.security.secure_compare.secure_payment`'s
    adaptive structure, one packed round per stage instead of one
    big-int op per session: (1) blinded cap checks for everyone,
    (2) blinded floor checks for the uncapped, (3) packed linear
    payments ``m_g·m_r + m_b·S`` for the in-range remainder — the same
    integers the serial fixed-point pipeline decrypts, so the returned
    floats are bit-for-bit equal.
    """
    require(len(gains) == len(quotes), "gains/quotes must have equal lengths")
    gen = as_generator(rng)
    if pool is None:
        pool = ObfuscationPool(public_key, rng=gen)
    payments = [0.0] * len(gains)

    at_cap = secure_threshold_check_batch(
        gains, [q.turning_point for q in quotes],
        public_key, private_key, rng=gen, pool=pool,
    )
    uncapped = []
    for i, check in enumerate(at_cap):
        if check.result:
            payments[i] = quotes[i].cap
        else:
            uncapped.append(i)
    if not uncapped:
        return payments

    above_floor = secure_threshold_check_batch(
        [gains[i] for i in uncapped], [0.0] * len(uncapped),
        public_key, private_key, rng=gen, pool=pool,
    )
    linear = []
    for i, check in zip(uncapped, above_floor):
        if check.result:
            linear.append(i)
        else:
            payments[i] = quotes[i].base
    if not linear:
        return payments

    values = _packed_affine(
        [_quantise_gain(gains[i]) for i in linear],
        [_quantise(quotes[i].rate) for i in linear],
        [_quantise(quotes[i].base) * FLOAT_SCALE for i in linear],
        public_key,
        private_key,
        pool,
    )
    divisor = float(FLOAT_SCALE**2)
    for i, value in zip(linear, values):
        payments[i] = float(value / divisor)
    return payments


# ----------------------------------------------------------------------
# The retained seed serial path (the reference the batch is pinned to)
# ----------------------------------------------------------------------
def secure_threshold_check_serial_reference(
    gains: list[float],
    thresholds: list[float],
    public_key: PaillierPublicKey,
    private_key: PaillierPrivateKey,
    *,
    rng: object = None,
) -> list[BlindedComparison]:
    """The seed serial path, looped: one encrypt + check per session."""
    gen = as_generator(rng)
    out = []
    for gain, threshold in zip(gains, thresholds):
        enc = encrypted_gain(float(gain), public_key, rng=gen)
        out.append(secure_threshold_check(enc, float(threshold), private_key, rng=gen))
    return out


def secure_payment_serial_reference(
    gains: list[float],
    quotes: list[QuotedPrice],
    public_key: PaillierPublicKey,
    private_key: PaillierPrivateKey,
    *,
    rng: object = None,
) -> list[float]:
    """The seed serial path, looped: one encrypt + payment per session."""
    gen = as_generator(rng)
    out = []
    for gain, quote in zip(gains, quotes):
        enc = encrypted_gain(float(gain), public_key, rng=gen)
        out.append(secure_payment(enc, quote, private_key, rng=gen))
    return out


# ----------------------------------------------------------------------
# Settlement: the simulator/service front
# ----------------------------------------------------------------------
class SecureSettlement:
    """Deterministic secure-payment engine for a (seed, key_bits) pair.

    Rebuildable from a job spec alone: the keypair comes from
    :func:`generate_keypair(seed=...) <repro.security.paillier.generate_keypair>`
    and the obfuscation pool from a named child stream, so every shard
    of a sharded secure job derives the identical keys.  Settled
    payments depend only on each session's ``(ΔG, quote)`` — never on
    the blinds, the pack grouping, or which other sessions share the
    batch — which is what keeps sharded secure reports digest-equal.
    """

    def __init__(self, *, seed: int = 0, key_bits: int = 256):
        require(key_bits >= 64, "key_bits must be >= 64")
        self.seed = int(seed)
        self.key_bits = int(key_bits)
        self.public_key, self.private_key = generate_keypair(
            bits=self.key_bits, seed=self.seed
        )
        self.pool = ObfuscationPool(
            self.public_key, rng=spawn(self.seed, "paillier-pool", self.key_bits)
        )
        self._lock = threading.Lock()
        self.settled_sessions = 0

    def settle(self, gains: list[float], quotes: list[QuotedPrice],
               *, rng: object = None) -> list[float]:
        """Batched secure payments for accepted sessions, in order."""
        if not gains:
            return []
        t0 = time.perf_counter()
        with self._lock:  # the pool's RNG draw is shared mutable state
            payments = secure_payment_batch(
                gains, quotes, self.public_key, self.private_key,
                rng=as_generator(rng) if rng is not None
                else spawn(self.seed, "paillier-blinds", self.key_bits),
                pool=self.pool,
            )
            self.settled_sessions += len(gains)
        _SETTLE_SECONDS.observe(time.perf_counter() - t0)
        _SETTLED_SESSIONS.inc(len(gains))
        return payments


#: Process-level settlement memo: workers running many chunks of one
#: secure job (and the parent merging them) build keys once.
_SETTLEMENTS: dict[tuple[int, int], SecureSettlement] = {}
_SETTLEMENTS_LOCK = threading.Lock()


def settlement_for(seed: int, key_bits: int) -> SecureSettlement:
    """The process-wide :class:`SecureSettlement` for ``(seed, key_bits)``."""
    key = (int(seed), int(key_bits))
    with _SETTLEMENTS_LOCK:
        settlement = _SETTLEMENTS.get(key)
        if settlement is None:
            settlement = SecureSettlement(seed=key[0], key_bits=key[1])
            _SETTLEMENTS[key] = settlement
        return settlement
