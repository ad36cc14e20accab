"""HTTP transport: stdlib ``http.client`` with reuse, retries, backoff.

Design points:

* **Connection reuse** — one persistent keep-alive connection per
  thread (``http.client`` connections are not thread-safe; a
  ``threading.local`` gives every caller thread its own), torn down
  and re-dialled on failure.
* **Retries with backoff** — connection-refused and DNS failures are
  retried for every method (the server never saw the request); errors
  after the request was sent are retried for ``GET`` only, because
  blindly replaying a ``POST /v1/sessions/<id>/step`` would advance
  the game twice.  Exhausting the budget raises
  :class:`~repro.client.errors.TransportError` with the attempt count.
* **Retryable statuses** — a ``429`` (session cap) or ``503`` (server
  draining) reply means the handler *refused* the request before
  touching any state, so replaying is safe for every method; both are
  retried within the same budget, honouring the server's
  ``Retry-After`` hint.  The exponential backoff is jittered
  (equal-jitter: half fixed, half random) so a fleet of clients
  refused together does not re-stampede together.
* **Streaming** — ``stream()`` opens a dedicated connection (the
  reply has no fixed length; it must not poison the pooled one) and
  yields one parsed JSON object per line.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import threading
import time
from typing import Iterator
from urllib.parse import urlencode, urlsplit

from repro import obs
from repro.client.errors import TransportError, error_from_reply
from repro.client.transport import Transport

__all__ = ["HttpTransport"]

#: Client-side retry/backoff accounting, one family per concern: how
#: many replays ran, how often the server's Retry-After hint floored
#: the backoff, and how long the transport slept in total.  These make
#: retry pressure observable without tearing open TransportError.
_RETRY_ATTEMPTS = obs.REGISTRY.counter(
    "repro_client_retry_attempts_total",
    "Request replays after a retryable failure or 429/503 refusal.",
    ("method",),
)
_RETRY_AFTER_HONOURED = obs.REGISTRY.counter(
    "repro_client_retry_after_honoured_total",
    "Backoff sleeps floored by a server Retry-After hint.",
    ("method",),
)
_RETRY_SLEEP = obs.REGISTRY.counter(
    "repro_client_retry_sleep_seconds_total",
    "Total seconds this process slept in transport backoff.",
    ("method",),
)

#: Failures that prove the server never received the request — always
#: safe to retry, whatever the method.
_PRE_SEND_ERRORS = (ConnectionRefusedError, socket.gaierror)

#: Statuses whose handlers refuse the request *before* doing any work
#: (429 session cap, 503 drain) — replaying cannot double-apply
#: anything, so they are retryable for every method.
_RETRY_STATUSES = frozenset({429, 503})

#: A server's Retry-After hint is capped here; a transport retry loop
#: must not be parked for minutes by one overloaded reply.
_MAX_RETRY_AFTER = 30.0


def _parse_retry_after(value: str | None) -> float | None:
    """Seconds from a ``Retry-After`` header (delta form only)."""
    if value is None:
        return None
    try:
        seconds = float(value.strip())
    except ValueError:
        return None  # HTTP-date form: not worth a date parser here
    if seconds < 0:
        return None
    return min(seconds, _MAX_RETRY_AFTER)


class HttpTransport(Transport):
    """``/v1`` over HTTP(S) against a ``repro serve`` base URL.

    Parameters
    ----------
    base_url:
        ``http://host:port`` (a path prefix is honoured, e.g. behind a
        reverse proxy: ``http://gateway/market``).
    timeout:
        Per-request socket timeout in seconds.
    retries:
        Additional attempts after the first failure (so ``retries=2``
        means up to 3 connection attempts).
    backoff:
        Base sleep between attempts; doubles each retry.
    """

    def __init__(self, base_url: str, *, timeout: float = 60.0,
                 retries: int = 2, backoff: float = 0.1):
        parts = urlsplit(base_url if "//" in base_url else f"http://{base_url}")
        if parts.scheme not in ("http", "https"):
            raise ValueError(f"unsupported scheme {parts.scheme!r} in "
                             f"{base_url!r} (http/https only)")
        if not parts.hostname:
            raise ValueError(f"no host in base url {base_url!r}")
        self.scheme = parts.scheme
        self.host = parts.hostname
        self.port = parts.port or (443 if parts.scheme == "https" else 80)
        self.prefix = parts.path.rstrip("/")
        self.timeout = float(timeout)
        self.retries = int(retries)
        self.backoff = float(backoff)
        self._local = threading.local()
        # Every live connection, whichever thread dialled it: a client
        # shared by several threads is closed by one of them, and must
        # still release every thread's socket.
        self._conn_lock = threading.Lock()
        self._conns: set = set()

    @property
    def base_url(self) -> str:
        return f"{self.scheme}://{self.host}:{self.port}{self.prefix}"

    # ------------------------------------------------------------------
    # Connection pool (one keep-alive connection per thread)
    # ------------------------------------------------------------------
    def _connect(self) -> http.client.HTTPConnection:
        cls = (http.client.HTTPSConnection if self.scheme == "https"
               else http.client.HTTPConnection)
        conn = cls(self.host, self.port, timeout=self.timeout)
        conn.connect()
        # Nagle + delayed ACK costs ~40ms per small request/response
        # pair; RPC-shaped traffic needs segments on the wire now.
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with self._conn_lock:
            self._conns.add(conn)
        return conn

    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._connect()
            self._local.conn = conn
        return conn

    def _release(self, conn) -> None:
        conn.close()
        with self._conn_lock:
            self._conns.discard(conn)

    def _drop(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            self._release(conn)
            self._local.conn = None

    def close(self) -> None:
        """Release every connection this transport dialled, on any thread."""
        self._drop()
        with self._conn_lock:
            conns, self._conns = list(self._conns), set()
        for conn in conns:
            # close() alone does not wake a peer thread blocked in
            # recv() on this socket (the fd stays referenced until the
            # read returns); shutdown() interrupts it immediately, so
            # closing never waits out another thread's socket timeout.
            sock = getattr(conn, "sock", None)
            if sock is not None:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
            conn.close()

    # ------------------------------------------------------------------
    def _target(self, path: str, query: dict | None) -> str:
        target = self.prefix + path
        if query:
            target += "?" + urlencode(
                {k: str(v) for k, v in query.items()}
            )
        return target

    @staticmethod
    def _headers() -> dict:
        """Request headers, propagating the active span context if any."""
        headers = {"Content-Type": "application/json"}
        ctx = obs.current()
        if ctx is not None:
            headers["traceparent"] = obs.to_traceparent(ctx)
        return headers

    def request(
        self,
        method: str,
        path: str,
        *,
        body: dict | None = None,
        query: dict | None = None,
    ) -> tuple[int, dict]:
        blob = (json.dumps(body).encode("utf-8")
                if body is not None else None)
        target = self._target(path, query)
        headers = self._headers()
        attempts = self.retries + 1
        last: Exception | None = None
        retry_after: float | None = None
        for attempt in range(attempts):
            if attempt:
                # Equal-jitter exponential backoff: half deterministic,
                # half random, floored by the server's Retry-After hint.
                step = self.backoff * (2 ** (attempt - 1))
                delay = step / 2 + random.random() * step / 2  # lint: allow[DET001] backoff jitter is deliberately nondeterministic and never reaches digested material
                if retry_after is not None:
                    if retry_after >= delay:
                        _RETRY_AFTER_HONOURED.inc(method=method)
                    delay = max(delay, retry_after)
                _RETRY_ATTEMPTS.inc(method=method)
                _RETRY_SLEEP.inc(delay, method=method)
                time.sleep(delay)
            retry_after = None
            sent = False
            try:
                conn = self._connection()
                conn.request(method, target, body=blob, headers=headers)
                sent = True
                response = conn.getresponse()
                raw = response.read()
            except Exception as exc:
                self._drop()
                last = exc
                replayable = (
                    isinstance(exc, _PRE_SEND_ERRORS)
                    or not sent
                    or method == "GET"
                )
                if replayable and attempt + 1 < attempts:
                    continue
                raise TransportError(
                    f"{method} {self.base_url}{path} failed after "
                    f"{attempt + 1} attempt(s): {exc}",
                    attempts=attempt + 1,
                ) from exc
            if response.will_close:
                self._drop()
            if response.status in _RETRY_STATUSES and attempt + 1 < attempts:
                # The handler refused before touching state (session
                # cap / drain); the body is fully read, so the pooled
                # connection stays clean for the replay.
                retry_after = _parse_retry_after(
                    response.getheader("Retry-After")
                )
                continue
            try:
                payload = json.loads(raw.decode("utf-8")) if raw else {}
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise TransportError(
                    f"{method} {self.base_url}{path} returned status "
                    f"{response.status} with a non-JSON body",
                    attempts=attempt + 1,
                ) from exc
            if not isinstance(payload, dict):
                payload = {"value": payload}
            return response.status, payload
        raise TransportError(  # pragma: no cover - loop always returns/raises
            f"{method} {self.base_url}{path} failed: {last}",
            attempts=attempts,
        )

    # ------------------------------------------------------------------
    def request_text(
        self,
        method: str,
        path: str,
        *,
        query: dict | None = None,
    ) -> tuple[int, str]:
        try:
            conn = self._connection()
            conn.request(method, self._target(path, query),
                         headers=self._headers())
            response = conn.getresponse()
            raw = response.read()
        except Exception as exc:
            self._drop()
            raise TransportError(
                f"{method} {self.base_url}{path} (text) failed: {exc}"
            ) from exc
        if response.will_close:
            self._drop()
        return response.status, raw.decode("utf-8")

    # ------------------------------------------------------------------
    def stream(
        self,
        method: str,
        path: str,
        *,
        body: dict | None = None,
        query: dict | None = None,
    ) -> Iterator[dict]:
        blob = (json.dumps(body).encode("utf-8")
                if body is not None else None)
        conn = None  # dedicated connection: the pooled one stays clean
        try:
            conn = self._connect()
            conn.request(
                method, self._target(path, query), body=blob,
                headers=self._headers(),
            )
            response = conn.getresponse()
        except Exception as exc:
            if conn is not None:
                self._release(conn)
            raise TransportError(
                f"{method} {self.base_url}{path} (stream) failed: {exc}"
            ) from exc
        if response.status != 200:
            try:
                raw = response.read()
                payload = json.loads(raw.decode("utf-8")) if raw else {}
            except (UnicodeDecodeError, json.JSONDecodeError):
                payload = {}
            finally:
                self._release(conn)
            raise error_from_reply(response.status, payload)

        def lines() -> Iterator[dict]:
            try:
                for raw_line in response:  # chunked decoding is built in
                    line = raw_line.strip()
                    if line:
                        yield json.loads(line.decode("utf-8"))
            except (http.client.HTTPException, OSError) as exc:
                raise TransportError(
                    f"stream from {self.base_url}{path} broke mid-read: "
                    f"{exc}"
                ) from exc
            finally:
                self._release(conn)

        return lines()
