"""Typed client-side errors mapped from the ``/v1`` wire protocol.

Every non-2xx reply carries the envelope
``{"error": {"code", "message", "detail"}}``;
:func:`error_from_reply` turns it into the matching exception class so
callers catch *meaning* (``NotFoundError``) instead of matching status
integers.  :class:`TransportError` is the one network-level error:
the request never produced a usable HTTP reply (connection refused,
reset mid-read after retries, or a non-JSON response body).
"""

from __future__ import annotations

__all__ = [
    "CapacityError",
    "ClientError",
    "ConflictError",
    "NotFoundError",
    "RequestError",
    "ServerError",
    "TransportError",
    "error_from_reply",
]


class ClientError(Exception):
    """Base of every error the marketplace client raises."""

    def __init__(self, message: str, *, status: int | None = None,
                 code: str | None = None, detail: object = None):
        super().__init__(message)
        self.status = status
        self.code = code
        self.detail = detail


class TransportError(ClientError):
    """The request never completed at the transport level.

    Raised after the transport's retry budget is exhausted;
    ``attempts`` records how many tries were made.
    """

    def __init__(self, message: str, *, attempts: int = 1,
                 detail: object = None):
        super().__init__(message, detail=detail)
        self.attempts = attempts


class RequestError(ClientError):
    """400: malformed body or a spec that failed validation."""


class NotFoundError(ClientError):
    """404: unknown session id, job id, or route."""


class ConflictError(ClientError):
    """409: state conflict (e.g. restoring over a resident session)."""


class CapacityError(ClientError):
    """429: the server's resident-session limit is reached."""


class ServerError(ClientError):
    """5xx (or any unmapped status): the server failed the request."""


_BY_STATUS = {
    400: RequestError,
    404: NotFoundError,
    405: RequestError,
    409: ConflictError,
    411: RequestError,
    413: RequestError,
    429: CapacityError,
}


def error_from_reply(status: int, payload: object) -> ClientError:
    """The typed exception for a non-2xx ``(status, payload)`` reply."""
    envelope = payload.get("error") if isinstance(payload, dict) else None
    if isinstance(envelope, dict):
        code = envelope.get("code")
        message = envelope.get("message") or f"HTTP {status}"
        detail = envelope.get("detail")
    else:  # a non-envelope body (proxy page, legacy server, ...)
        code, message, detail = None, f"HTTP {status}: {payload!r}", None
    cls = _BY_STATUS.get(status, ServerError)
    return cls(message, status=status, code=code, detail=detail)
