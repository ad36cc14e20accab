"""Participant objectives (Eqs. 3-4) and derived decision quantities.

* Task party (buyer): maximise **net profit** ``u·ΔG − payment`` —
  utility of the gained performance minus what it pays (Eq. 3).
* Data party (seller): offer the bundle whose ΔG lands closest to (but
  not beyond) the quote's turning point, maximising its payment under
  the cap (Eq. 4).
"""

from __future__ import annotations

import numpy as np

from repro.market.pricing import QuotedPrice

__all__ = [
    "break_even_gain",
    "task_net_profit",
]


def task_net_profit(quote: QuotedPrice, delta_g: float, utility_rate: float) -> float:
    """Realised net profit of the task party (Eq. 3 for a fixed quote)."""
    return utility_rate * delta_g - quote.payment(delta_g)


def break_even_gain(rate, base, utility_rate):
    """Minimum ΔG for non-negative task-party profit: ``P0/(u − p)``.

    Below this gain the task party loses money (Case 4 / Case IV
    failure threshold, :func:`~repro.market.termination.task_fails_regression`).
    Takes numbers or numpy rows.  Requires individual rationality
    ``u > p`` (§3.4.2).
    """
    if not np.all(utility_rate > rate):  # the message is formatted on failure only
        raise ValueError(
            f"individual rationality requires u > p (u={utility_rate}, p={rate})"
        )
    return base / (utility_rate - rate)
