"""In-process communication channel with traffic accounting.

Real VFL deployments pay for every float crossing the party boundary —
the paper's bargaining-cost analysis (§3.4.4) cites exactly this
accumulating communication/training cost.  The simulated channel
records message counts, payload bytes, and protocol rounds so the cost
models can be grounded in measured traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.validation import require

__all__ = ["Channel", "Message"]


def _payload_bytes(payload: object) -> int:
    """Approximate serialised size of a message payload."""
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, (int, float, np.integer, np.floating)):
        return 8
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, (list, tuple, set)):
        return sum(_payload_bytes(item) for item in payload)
    if isinstance(payload, dict):
        return sum(
            _payload_bytes(k) + _payload_bytes(v) for k, v in payload.items()
        )
    return 64  # conservative default for opaque objects


@dataclass(frozen=True)
class Message:
    """One directed message between parties."""

    sender: str
    receiver: str
    kind: str
    payload: object = None

    @property
    def nbytes(self) -> int:
        """Approximate wire size of the payload."""
        return _payload_bytes(self.payload)


@dataclass
class Channel:
    """Synchronous bidirectional link between the two parties.

    ``send`` + ``receive`` model one direction of a protocol step;
    :meth:`exchange` is the common request/response helper.  Statistics
    accumulate over the channel's lifetime.
    """

    n_messages: int = 0
    n_bytes: int = 0
    n_rounds: int = 0
    _inbox: dict[str, list[Message]] = field(default_factory=dict)
    log: list[tuple[str, str, str, int]] = field(default_factory=list)
    keep_log: bool = False

    def send(self, message: Message) -> None:
        """Queue ``message`` for its receiver and account for it."""
        require(message.sender != message.receiver, "cannot send to self")
        self.n_messages += 1
        self.n_bytes += message.nbytes
        if self.keep_log:
            self.log.append(
                (message.sender, message.receiver, message.kind, message.nbytes)
            )
        self._inbox.setdefault(message.receiver, []).append(message)

    def receive(self, receiver: str, kind: str | None = None) -> Message:
        """Pop the oldest message addressed to ``receiver``.

        ``kind`` (when given) asserts the protocol step matches.
        """
        queue = self._inbox.get(receiver, [])
        require(bool(queue), f"no pending messages for {receiver!r}")
        message = queue.pop(0)
        if kind is not None:
            require(
                message.kind == kind,
                f"protocol desync: expected {kind!r}, got {message.kind!r}",
            )
        return message

    def exchange(
        self, sender: str, receiver: str, kind: str, payload: object = None
    ) -> Message:
        """Send and immediately deliver — one protocol half-round."""
        self.send(Message(sender, receiver, kind, payload))
        return self.receive(receiver, kind)

    def next_round(self) -> None:
        """Mark the start of a new protocol round."""
        self.n_rounds += 1

    def stats(self) -> dict[str, int]:
        """Snapshot of the accounting counters."""
        return {
            "messages": self.n_messages,
            "bytes": self.n_bytes,
            "rounds": self.n_rounds,
        }
