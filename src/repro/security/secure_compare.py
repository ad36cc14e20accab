"""Privacy-preserving ΔG exchange for the bargaining phase (§3.6).

The threat the paper identifies: the raw performance gain crosses the
party boundary every round, and a curious counterparty can run
inference attacks on it.  The mitigation sketched in §3.6 is HE/SMC for
the multiplication/comparison operations bargaining actually needs.
This module instantiates that sketch with Paillier:

* :func:`secure_payment` — the data party computes the *linear region*
  of the payment ``P0 + p·ΔG`` homomorphically from ``Enc(ΔG)`` without
  ever seeing ΔG; the cap/floor clamp resolves through two blinded
  comparisons.
* :class:`BlindedComparison` — a two-message protocol deciding
  ``ΔG >= t`` where the evaluator learns only the *sign* of a
  multiplicatively-blinded difference, not its magnitude.

Model: semi-honest parties (follow the protocol, try to infer).  The
blinding leaks one bit per comparison — exactly the bit the protocol is
supposed to output.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.market.pricing import QuotedPrice
from repro.security.paillier import (
    EncryptedNumber,
    PaillierPrivateKey,
    PaillierPublicKey,
)
from repro.utils.rng import as_generator
from repro.utils.validation import require

__all__ = ["BlindedComparison", "secure_payment", "secure_threshold_check"]

#: Range of the uniform multiplicative blind ``s`` (serial and batched).
BLIND_RANGE = (1.0, 1000.0)


@dataclass(frozen=True)
class BlindedComparison:
    """Outcome of one blinded threshold comparison.

    ``blinded`` is what the key holder decrypts: ``s·(ΔG − t)`` for a
    random positive blind ``s``; its sign answers the query, its
    magnitude is uniformly scaled noise.
    """

    result: bool
    blinded_value: float


def secure_threshold_check(
    enc_gain: EncryptedNumber,
    threshold: float,
    private_key: PaillierPrivateKey,
    *,
    rng: object = None,
) -> BlindedComparison:
    """Decide ``ΔG >= threshold`` from ``Enc(ΔG)`` with a blinded sign test.

    The holder of ``enc_gain`` (who cannot decrypt) computes
    ``Enc(s·(ΔG − t))`` for a fresh uniform blind ``s`` and hands it to
    the key holder, who learns only the sign.
    """
    gen = as_generator(rng)
    blind = float(gen.uniform(*BLIND_RANGE))
    masked = (enc_gain - threshold) * blind
    revealed = float(private_key.decrypt(masked))
    return BlindedComparison(result=revealed >= 0.0, blinded_value=revealed)


def secure_payment(
    enc_gain: EncryptedNumber,
    quote: QuotedPrice,
    private_key: PaillierPrivateKey,
    *,
    rng: object = None,
) -> float:
    """Compute the Def. 2.3 payment without revealing ΔG.

    The data party (no private key) computes the linear payment
    ``Enc(P0 + p·ΔG)`` homomorphically and resolves the clamp with two
    blinded comparisons against the turning point and zero:

    * ``ΔG >= (Ph − P0)/p``  -> payment saturates at ``Ph``;
    * ``ΔG < 0``            -> payment floors at ``P0``;
    * otherwise the key holder decrypts the *linear payment only* —
      which both parties are entitled to know, since it is the invoice.
    """
    gen = as_generator(rng)
    at_cap = secure_threshold_check(
        enc_gain, quote.turning_point, private_key, rng=gen
    )
    if at_cap.result:
        return quote.cap
    above_floor = secure_threshold_check(enc_gain, 0.0, private_key, rng=gen)
    if not above_floor.result:
        return quote.base
    linear = enc_gain * quote.rate + quote.base
    return float(private_key.decrypt(linear))


def encrypted_gain(
    delta_g: float, public_key: PaillierPublicKey, *, rng: object = None
) -> EncryptedNumber:
    """The task party's encrypted report of a VFL course's gain."""
    require(-1.0 <= delta_g <= 10.0, "gain outside plausible range")
    return public_key.encrypt(float(delta_g), rng=as_generator(rng))
