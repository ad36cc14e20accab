"""The transport contract behind :class:`~repro.client.MarketplaceClient`.

A transport moves one ``/v1`` request and returns the wire-shaped
reply; it knows nothing about what the routes *mean*.  Two
implementations ship:

* :class:`~repro.client.local.LocalTransport` — in-process dispatch
  through :func:`repro.service.api.dispatch` (zero HTTP overhead);
* :class:`~repro.client.http.HttpTransport` — HTTP/1.1 framed on
  one keep-alive socket per thread, with retry/backoff.

Because both return payloads that have passed through a JSON
round-trip of the *same* route handlers, a client is byte-identical
across transports — the property the parity suite
(``tests/client/test_transport_parity.py``) pins.
"""

from __future__ import annotations

from typing import Iterator

__all__ = ["Transport"]


class Transport:
    """Abstract transport: request/stream against the ``/v1`` protocol."""

    def request(
        self,
        method: str,
        path: str,
        *,
        body: dict | None = None,
        query: dict | None = None,
    ) -> tuple[int, dict]:
        """Perform one request; returns ``(status, payload)``.

        Implementations return every completed HTTP exchange — errors
        included — as ``(status, envelope)``; they raise only
        :class:`~repro.client.errors.TransportError` (the exchange
        itself failed).
        """
        raise NotImplementedError

    def stream(
        self,
        method: str,
        path: str,
        *,
        body: dict | None = None,
        query: dict | None = None,
    ) -> Iterator[dict]:
        """Open a JSON-lines streaming route; yields one dict per line.

        Non-2xx replies raise the mapped
        :class:`~repro.client.errors.ClientError` before the first
        item is yielded.
        """
        raise NotImplementedError

    def request_text(
        self,
        method: str,
        path: str,
        *,
        query: dict | None = None,
    ) -> tuple[int, str]:
        """Perform one request returning the raw body as text.

        For the one non-JSON route (``GET /v1/metrics``, Prometheus
        text exposition); errors still arrive as ``(status, text)``
        with the JSON envelope serialised in ``text``.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release any held connections (idempotent)."""

    # ------------------------------------------------------------------
    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
