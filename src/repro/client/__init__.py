"""The marketplace client SDK: one typed API over pluggable transports.

The paper's feature market is a multi-party protocol — buyer, sellers,
and a coordinating platform exchanging quotes — and this package is the
party-side library for it.  :class:`MarketplaceClient` exposes every
``/v1`` wire route as a typed method, and the transport decides where
the platform lives:

* :class:`LocalTransport` — in-process, wrapping a
  :class:`~repro.service.manager.SessionManager` and
  :class:`~repro.service.api.JobService` directly (zero HTTP
  overhead; what ``python -m repro bargain`` uses by default);
* :class:`HttpTransport` — HTTP/1.1 framed on one keep-alive socket
  per thread, with retry/backoff, against a ``repro serve`` URL (what
  ``--server`` switches any front door to).

Both transports dispatch through the same route table
(:mod:`repro.service.api`), so payloads are byte-identical across them.

Typical use::

    from repro.client import MarketplaceClient
    from repro.service import MarketSpec, SessionSpec

    client = MarketplaceClient.local()              # or .connect(url)
    market = client.build_market(MarketSpec(dataset="synthetic"))
    opened = client.open_session(
        SessionSpec(market=market["market"], seed=0))
    state = client.run_session(opened["session"])
    print(state["outcome"])

Errors are typed (:mod:`repro.client.errors`): a 404 raises
:class:`NotFoundError`, a network failure after the retry budget
raises :class:`TransportError`, and so on — clients catch meaning, not
status integers.
"""

from repro.client.client import MarketplaceClient
from repro.client.errors import (
    CapacityError,
    ClientError,
    ConflictError,
    NotFoundError,
    RequestError,
    ServerError,
    TransportError,
    error_from_reply,
)
from repro.client.http import HttpTransport
from repro.client.local import LocalTransport
from repro.client.transport import Transport

__all__ = [
    "CapacityError",
    "ClientError",
    "ConflictError",
    "HttpTransport",
    "LocalTransport",
    "MarketplaceClient",
    "NotFoundError",
    "RequestError",
    "ServerError",
    "Transport",
    "TransportError",
    "error_from_reply",
]
