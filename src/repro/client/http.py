"""HTTP transport: HTTP/1.1 framed on a keep-alive socket's own reader.

Design points:

* **Connection reuse** — one persistent keep-alive connection per
  thread (a ``threading.local`` gives every caller thread its own),
  torn down and re-dialled on failure.  A connection is a socket plus
  one buffered reader that lives as long as the socket: every reply
  on it is framed from that reader, so bytes the kernel delivered
  early are never lost between replies and no per-reply reader is
  built.
* **Framing** — a request is written with one ``sendall`` (head and
  body together); a reply is framed by :mod:`repro.utils.http11`, the
  rules the server applies too.  Any framing error, and any
  ``Connection: close`` reply, drops the socket.  ``request``,
  ``request_text`` and ``stream`` share this one framing path.
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

import json
import random
import socket
import ssl
import threading
import time
from typing import Iterator
from urllib.parse import urlencode, urlsplit

from repro import obs
from repro.client.errors import TransportError, error_from_reply
from repro.client.transport import Transport
from repro.utils import http11
from repro.utils.http11 import FramingError

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

#: Methods that carry a body by definition: they always send a
#: ``Content-Length``, zero when there is no body.
_BODY_METHODS = frozenset({"PATCH", "POST", "PUT"})

#: Replies that never carry a body, whatever their headers say.
_NO_BODY_STATUSES = frozenset({204, 304})


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


class _Connection:
    """One keep-alive socket and the reader that frames its replies."""

    __slots__ = ("sock", "reader")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.reader = sock.makefile("rb")

    def _head_lines(self) -> list[str]:
        """A head's lines (without terminators) up to its blank line."""
        lines: list[str] = []
        budget = http11.MAX_HEAD_BYTES
        while True:
            line = self.reader.readline(budget + 1)
            budget -= len(line)
            if budget < 0:
                raise FramingError(
                    f"reply head over {http11.MAX_HEAD_BYTES} bytes")
            if not line:
                raise FramingError("connection closed inside a reply head")
            if line in (b"\r\n", b"\n"):
                return lines
            lines.append(line.rstrip(b"\r\n").decode("latin-1"))

    def read_head(self) -> tuple[int, dict[str, str], bool]:
        """Status, lower-cased headers, and whether the server keeps
        the connection open after this reply's body."""
        status = 0
        while status < 200:  # 1xx interim replies precede the real one
            lines = self._head_lines() or [""]
            version, status = http11.parse_status_line(lines[0])
            headers = http11.parse_fields(lines[1:])
        keep_alive = http11.keep_alive(version, headers)
        if (not http11.is_chunked(headers)
                and http11.content_length(headers) is None
                and status not in _NO_BODY_STATUSES):
            keep_alive = False  # the body runs to EOF
        return status, headers, keep_alive

    def body(self, status: int, headers: dict[str, str]) -> Iterator[bytes]:
        """The reply body after :meth:`read_head`, piece by piece."""
        if status in _NO_BODY_STATUSES:
            return
        reader = self.reader
        if http11.is_chunked(headers):
            while True:
                size = http11.chunk_size(reader.readline(http11.MAX_HEAD_BYTES))
                if size == 0:
                    self._head_lines()  # trailer block, up to the blank line
                    return
                data = reader.read(size)
                if len(data) < size or reader.read(2) != b"\r\n":
                    raise FramingError("chunk truncated or not CRLF-terminated")
                yield data
        length = http11.content_length(headers)
        if length is None:
            while True:
                data = reader.read1(65536)
                if not data:
                    return
                yield data
        data = reader.read(length)
        if len(data) < length:
            raise FramingError(
                f"reply body ended after {len(data)} of the declared "
                f"{length} bytes"
            )
        yield data

    def shutdown(self) -> None:
        # close() alone does not wake a peer thread blocked in recv()
        # on this socket (the fd stays referenced until the read
        # returns); shutdown() interrupts it immediately, so closing
        # never waits out another thread's socket timeout.
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def close(self) -> None:
        # The reader holds a reference to the socket's fd: both must
        # close before the fd is released.
        self.reader.close()
        self.sock.close()


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
        # An IPv6 literal is bracketed wherever it meets a port.
        self._netloc_host = f"[{self.host}]" if ":" in self.host else self.host
        default_port = 443 if self.scheme == "https" else 80
        self._host_header = (
            self._netloc_host if self.port == default_port
            else f"{self._netloc_host}:{self.port}"
        )
        self._local = threading.local()
        # Every live connection, whichever thread dialled it: a client
        # shared by several threads is closed by one of them, and must
        # still release every thread's socket.
        self._conn_lock = threading.Lock()
        self._conns: set[_Connection] = set()

    @property
    def base_url(self) -> str:
        return f"{self.scheme}://{self._netloc_host}:{self.port}{self.prefix}"

    # ------------------------------------------------------------------
    # Connection pool (one keep-alive connection per thread)
    # ------------------------------------------------------------------
    def _connect(self) -> _Connection:
        sock = socket.create_connection((self.host, self.port), self.timeout)
        try:
            # Nagle + delayed ACK costs ~40ms per small request/response
            # pair; RPC-shaped traffic needs segments on the wire now.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self.scheme == "https":
                sock = ssl.create_default_context().wrap_socket(
                    sock, server_hostname=self.host
                )
        except BaseException:
            sock.close()
            raise
        conn = _Connection(sock)
        with self._conn_lock:
            self._conns.add(conn)
        return conn

    def _connection(self) -> _Connection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._connect()
            self._local.conn = conn
        return conn

    def _release(self, conn: _Connection) -> None:
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
            conn.shutdown()
            conn.close()

    # ------------------------------------------------------------------
    def _target(self, path: str, query: dict | None) -> str:
        target = self.prefix + path
        if query:
            target += "?" + urlencode(
                {k: str(v) for k, v in query.items()}
            )
        return target

    def _request_bytes(self, method: str, target: str,
                       blob: bytes | None) -> bytes:
        """The request head and body, propagating the active span
        context (if any) as ``traceparent``."""
        fields = [("Host", self._host_header),
                  ("Accept-Encoding", "identity"),
                  ("Content-Type", "application/json")]
        ctx = obs.current()
        if ctx is not None:
            fields.append(("traceparent", obs.to_traceparent(ctx)))
        if blob is not None or method in _BODY_METHODS:
            fields.append(("Content-Length", len(blob or b"")))
        return (http11.format_head(f"{method} {target} HTTP/1.1", fields)
                + (blob or b""))

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
        status, raw, attempts = self._exchange(method, path, query, blob)
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TransportError(
                f"{method} {self.base_url}{path} returned status "
                f"{status} with a non-JSON body",
                attempts=attempts,
            ) from exc
        if not isinstance(payload, dict):
            payload = {"value": payload}
        return status, payload

    def request_text(
        self,
        method: str,
        path: str,
        *,
        query: dict | None = None,
    ) -> tuple[int, str]:
        status, raw, _ = self._exchange(method, path, query, None)
        return status, raw.decode("utf-8")

    def _exchange(self, method: str, path: str, query: dict | None,
                  blob: bytes | None) -> tuple[int, bytes, int]:
        """One request on the pooled connection, replayed while that is
        safe: status, body, and the attempts it took."""
        data = self._request_bytes(method, self._target(path, query), blob)
        attempts = self.retries + 1
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
                conn.sock.sendall(data)
                sent = True
                status, headers, keep_alive = conn.read_head()
                raw = b"".join(conn.body(status, headers))
            except Exception as exc:
                self._drop()
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
            if not keep_alive:
                self._drop()
            if status in _RETRY_STATUSES and attempt + 1 < attempts:
                # The handler refused before touching state (session
                # cap / drain); the body is fully read, so the pooled
                # connection stays clean for the replay.
                retry_after = _parse_retry_after(headers.get("retry-after"))
                continue
            return status, raw, attempt + 1
        raise AssertionError("unreachable: the last attempt returns or raises")

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
            conn.sock.sendall(self._request_bytes(
                method, self._target(path, query), blob
            ))
            status, headers, _ = conn.read_head()
        except Exception as exc:
            if conn is not None:
                self._release(conn)
            raise TransportError(
                f"{method} {self.base_url}{path} (stream) failed: {exc}"
            ) from exc
        if status != 200:
            try:
                raw = b"".join(conn.body(status, headers))
                payload = json.loads(raw.decode("utf-8")) if raw else {}
            except (ValueError, OSError):  # framing, UTF-8 or JSON
                payload = {}
            finally:
                self._release(conn)
            raise error_from_reply(status, payload)

        def lines() -> Iterator[dict]:
            pending = b""
            try:
                for piece in conn.body(status, headers):
                    *complete, pending = (pending + piece).split(b"\n")
                    for line in complete:
                        if line.strip():
                            yield json.loads(line.decode("utf-8"))
                if pending.strip():
                    yield json.loads(pending.decode("utf-8"))
            except (FramingError, OSError) as exc:
                raise TransportError(
                    f"stream from {self.base_url}{path} broke mid-read: "
                    f"{exc}"
                ) from exc
            finally:
                self._release(conn)

        return lines()
