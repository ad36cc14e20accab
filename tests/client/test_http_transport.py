"""HTTP transport behaviour: retries, reuse, error mapping, streaming."""

import json
import socket
import threading
import time
from http.server import (
    BaseHTTPRequestHandler,
    HTTPServer,
    ThreadingHTTPServer,
)

import pytest

from repro.client import (
    HttpTransport,
    MarketplaceClient,
    NotFoundError,
    RequestError,
    TransportError,
    error_from_reply,
)
from repro.service import MarketPool, SessionManager
from repro.service.async_server import AsyncMarketplaceServer


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    from repro.jobs import JobStore
    from repro.service import JobService

    store = JobStore(
        str(tmp_path_factory.mktemp("http-transport") / "jobs.sqlite3")
    )
    with AsyncMarketplaceServer(
        port=0,
        manager=SessionManager(pool=MarketPool()),
        jobs=JobService(store, shards=2),
    ) as server:
        yield {"url": server.url, "server": server}


def _dead_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestRetries:
    def test_retry_then_fail_counts_attempts(self):
        transport = HttpTransport(
            f"http://127.0.0.1:{_dead_port()}", retries=2, backoff=0.01
        )
        with pytest.raises(TransportError) as excinfo:
            transport.request("GET", "/v1/health")
        assert excinfo.value.attempts == 3

    def test_post_refusal_is_retried_too(self):
        transport = HttpTransport(
            f"http://127.0.0.1:{_dead_port()}", retries=1, backoff=0.01
        )
        with pytest.raises(TransportError) as excinfo:
            transport.request("POST", "/v1/markets", body={"x": 1})
        assert excinfo.value.attempts == 2

    def test_zero_retries_fails_on_first_attempt(self):
        transport = HttpTransport(
            f"http://127.0.0.1:{_dead_port()}", retries=0
        )
        with pytest.raises(TransportError) as excinfo:
            transport.request("GET", "/v1/health")
        assert excinfo.value.attempts == 1


class TestConnectionReuse:
    def test_keepalive_connection_is_reused(self, service):
        transport = HttpTransport(service["url"])
        transport.request("GET", "/v1/health")
        first = transport._local.conn
        sock, reader = first.sock, first.reader
        local_addr = sock.getsockname()
        transport.request("GET", "/v1/health")
        transport.request_text("GET", "/v1/metrics")
        # The same socket, still dialled from the same local port, and
        # the same reader framed every reply on it.
        assert transport._local.conn is first
        assert first.sock is sock and first.reader is reader
        assert sock.getsockname() == local_addr
        transport.close()
        assert transport._local.conn is None
        assert sock.fileno() == -1


class _MalformedHandler(BaseHTTPRequestHandler):
    def do_GET(self):  # noqa: N802
        blob = b"<html>definitely not json</html>"
        self.send_response(200)
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def log_message(self, *args):  # pragma: no cover
        pass


class TestMalformedReplies:
    def test_non_json_body_raises_transport_error(self):
        server = HTTPServer(("127.0.0.1", 0), _MalformedHandler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            transport = HttpTransport(
                "http://%s:%s" % server.server_address[:2], retries=0
            )
            with pytest.raises(TransportError, match="non-JSON"):
                transport.request("GET", "/anything")
        finally:
            server.shutdown()
            server.server_close()


class TestErrorMapping:
    def test_404_envelope_maps_to_not_found(self, service):
        client = MarketplaceClient.connect(service["url"])
        with pytest.raises(NotFoundError) as excinfo:
            client.session("snope")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "not_found"

    def test_unversioned_post_maps_to_not_found(self, service):
        transport = HttpTransport(service["url"])
        status, payload = transport.request(
            "POST", "/sessions", body={"market": {"dataset": "synthetic"}}
        )
        assert status == 404
        assert payload["error"]["code"] == "not_found"
        assert isinstance(error_from_reply(status, payload), NotFoundError)

    def test_405_maps_to_request_error(self, service):
        transport = HttpTransport(service["url"])
        status, payload = transport.request("DELETE", "/v1/markets")
        assert status == 405
        assert payload["error"]["code"] == "method_not_allowed"
        assert "POST" in payload["error"]["detail"]["allowed"]
        assert isinstance(error_from_reply(status, payload), RequestError)


class TestStreaming:
    def test_stream_of_unknown_job_raises_before_first_line(self, service):
        client = MarketplaceClient.connect(service["url"])
        with pytest.raises(NotFoundError):
            next(iter(client.job_events("jdeadbeef", timeout=5)))

    def test_stream_timeout_line(self, service):
        """A stream over a never-finishing job ends with a timeout line."""
        # A job that is recorded but never started: the stream can only
        # observe its submitted status, then time out client-side.
        store = service["server"].jobs.store
        record = store.submit("simulation", {"sessions": 10, "seed": 0},
                              [(0, 10)])
        client = MarketplaceClient.connect(service["url"])
        events = list(client.job_events(record.job_id, poll=0.05, timeout=0.3))
        assert events[0]["event"] == "progress"
        assert events[-1]["event"] == "timeout"


class TestBaseUrls:
    def test_scheme_and_host_validation(self):
        with pytest.raises(ValueError, match="scheme"):
            HttpTransport("ftp://example.org")
        with pytest.raises(ValueError, match="host"):
            HttpTransport("http://")

    def test_default_scheme_and_port(self):
        transport = HttpTransport("example.org")
        assert transport.base_url == "http://example.org:80"


def _status_server(script):
    """One-shot HTTP server that answers from a canned (status, headers)
    script, then 200s; returns ``(server, calls)``."""
    calls = []

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def _serve(self):
            calls.append(self.command)
            length = int(self.headers.get("Content-Length") or 0)
            self.rfile.read(length)
            status, headers = script.pop(0) if script else (200, {})
            blob = json.dumps({"ok": status == 200}).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(blob)))
            for name, value in headers.items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(blob)

        do_GET = do_POST = _serve

        def log_message(self, *args):
            pass

    # Threading + daemon handlers: shutdown() must not wait on a
    # client's still-open keep-alive connection.
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server, calls


class TestRetryableStatuses:
    """429 (session cap) and 503 (drain) mean the handler refused the
    request before touching state — retryable for every method."""

    def _transport(self, server, **kwargs):
        kwargs.setdefault("retries", 2)
        kwargs.setdefault("backoff", 0.01)
        return HttpTransport(
            "http://127.0.0.1:%d" % server.server_address[1], **kwargs
        )

    def test_post_429_is_retried_to_success(self):
        server, calls = _status_server([(429, {})])
        try:
            status, payload = self._transport(server).request(
                "POST", "/v1/sessions", body={"seed": 0}
            )
            assert status == 200 and payload["ok"]
            assert calls == ["POST", "POST"]
        finally:
            server.shutdown()
            server.server_close()

    def test_503_during_drain_is_retried(self):
        server, calls = _status_server([(503, {"Retry-After": "0"})])
        try:
            status, _ = self._transport(server).request(
                "POST", "/v1/sessions/s0/step"
            )
            assert status == 200
            assert len(calls) == 2
        finally:
            server.shutdown()
            server.server_close()

    def test_retry_after_hint_is_honoured(self):
        server, _ = _status_server([(503, {"Retry-After": "0.3"})])
        try:
            transport = self._transport(server, backoff=0.001)
            start = time.monotonic()
            status, _ = transport.request("GET", "/v1/health")
            elapsed = time.monotonic() - start
            assert status == 200
            assert elapsed >= 0.25, (
                f"retried after only {elapsed:.3f}s despite Retry-After"
            )
        finally:
            server.shutdown()
            server.server_close()

    def test_budget_exhausted_returns_the_last_status(self):
        server, calls = _status_server([(429, {})] * 5)
        try:
            status, payload = self._transport(server).request(
                "POST", "/v1/sessions", body={}
            )
            assert status == 429
            assert len(calls) == 3  # retries=2 -> 3 attempts, then give up
        finally:
            server.shutdown()
            server.server_close()

    def test_other_statuses_are_not_retried(self):
        server, calls = _status_server([(404, {})])
        try:
            status, _ = self._transport(server).request(
                "GET", "/v1/nope"
            )
            assert status == 404
            assert calls == ["GET"]
        finally:
            server.shutdown()
            server.server_close()

    def test_retry_accounting_metrics(self):
        """Retries surface as client-side counters: attempts, honoured
        Retry-After hints, and total backoff sleep."""
        from repro.client.http import (
            _RETRY_AFTER_HONOURED,
            _RETRY_ATTEMPTS,
            _RETRY_SLEEP,
        )

        attempts0 = _RETRY_ATTEMPTS.value(method="POST")
        honoured0 = _RETRY_AFTER_HONOURED.value(method="POST")
        sleep0 = _RETRY_SLEEP.value(method="POST")
        # A large Retry-After (capped fraction of a second via a tiny
        # backoff) always floors the jittered delay -> honoured.
        server, calls = _status_server([(503, {"Retry-After": "0.05"})])
        try:
            status, _ = self._transport(server, backoff=0.001).request(
                "POST", "/v1/sessions", body={}
            )
            assert status == 200 and len(calls) == 2
        finally:
            server.shutdown()
            server.server_close()
        assert _RETRY_ATTEMPTS.value(method="POST") == attempts0 + 1
        assert _RETRY_AFTER_HONOURED.value(method="POST") == honoured0 + 1
        assert _RETRY_SLEEP.value(method="POST") >= sleep0 + 0.05

    def test_plain_backoff_does_not_count_retry_after(self):
        from repro.client.http import _RETRY_AFTER_HONOURED, _RETRY_ATTEMPTS

        attempts0 = _RETRY_ATTEMPTS.value(method="GET")
        honoured0 = _RETRY_AFTER_HONOURED.value(method="GET")
        server, calls = _status_server([(429, {})])
        try:
            status, _ = self._transport(server).request("GET", "/v1/health")
            assert status == 200 and len(calls) == 2
        finally:
            server.shutdown()
            server.server_close()
        assert _RETRY_ATTEMPTS.value(method="GET") == attempts0 + 1
        assert _RETRY_AFTER_HONOURED.value(method="GET") == honoured0

    def test_backoff_is_jittered_equal_style(self, monkeypatch):
        """Each delay lands in [step/2, step] for step = backoff * 2^n:
        half deterministic, half random, so refused fleets spread out."""
        import types

        import repro.client.http as http_mod

        recorded = []
        monkeypatch.setattr(
            http_mod, "time", types.SimpleNamespace(sleep=recorded.append)
        )
        transport = HttpTransport(
            f"http://127.0.0.1:{_dead_port()}", retries=3, backoff=0.08
        )
        with pytest.raises(TransportError):
            transport.request("GET", "/v1/health")
        assert len(recorded) == 3
        for attempt, delay in enumerate(recorded, start=1):
            step = 0.08 * (2 ** (attempt - 1))
            assert step / 2 <= delay <= step, (attempt, delay)


class TestRequestHead:
    """The request head is built directly; it must say what stdlib
    HTTP clients say for the same request."""

    @staticmethod
    def _lines(data: bytes) -> tuple[list[bytes], bytes]:
        head, _, body = data.partition(b"\r\n\r\n")
        return head.split(b"\r\n"), body

    def test_ipv6_literal_is_bracketed_in_host(self):
        transport = HttpTransport("http://[::1]:8080")
        lines, body = self._lines(
            transport._request_bytes("POST", "/v1/sessions", b'{"a": 1}')
        )
        assert lines[0] == b"POST /v1/sessions HTTP/1.1"
        assert b"Host: [::1]:8080" in lines
        assert b"Content-Length: 8" in lines
        assert body == b'{"a": 1}'
        assert transport.base_url == "http://[::1]:8080"

    def test_default_port_and_body_lengths(self):
        transport = HttpTransport("example.org")
        lines, body = self._lines(
            transport._request_bytes("GET", "/v1/health", None)
        )
        assert b"Host: example.org" in lines
        assert not any(line.startswith(b"Content-Length") for line in lines)
        assert body == b""
        lines, _ = self._lines(
            transport._request_bytes("POST", "/v1/sessions/s0/step", None)
        )
        assert b"Content-Length: 0" in lines

    def test_active_span_is_propagated(self):
        from repro import obs
        from repro.obs.trace import SpanContext

        ctx = SpanContext("ab" * 16, "cd" * 8)
        token = obs.attach(ctx)
        try:
            data = HttpTransport("example.org")._request_bytes(
                "GET", "/v1/health", None
            )
        finally:
            obs.detach(token)
        lines, _ = self._lines(data)
        assert f"traceparent: {obs.to_traceparent(ctx)}".encode() in lines


class _QuietServer(ThreadingHTTPServer):
    """Counts accepted connections; a client hanging up mid-reply is
    expected here and must not print a traceback."""

    daemon_threads = True

    def __init__(self, handler):
        super().__init__(("127.0.0.1", 0), handler)
        self.connections = 0
        self.calls: list[str] = []

    def get_request(self):
        self.connections += 1
        return super().get_request()

    def handle_error(self, request, client_address):
        pass


class _serving:
    """``with _serving(Handler) as (server, transport)``: a stdlib
    server (an independent HTTP implementation) and a transport to it."""

    def __init__(self, handler, **transport_options):
        self.server = _QuietServer(handler)
        transport_options.setdefault("timeout", 5.0)
        transport_options.setdefault("backoff", 0.01)
        self.transport = HttpTransport(
            "http://127.0.0.1:%d" % self.server.server_address[1],
            **transport_options,
        )

    def __enter__(self):
        threading.Thread(target=self.server.serve_forever,
                         daemon=True).start()
        return self.server, self.transport

    def __exit__(self, *exc_info):
        self.transport.close()
        self.server.shutdown()
        self.server.server_close()


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def reply(self, blob: bytes, *headers: tuple[str, str],
              length: int | None = None):
        self.send_response(200)
        for name, value in headers:
            self.send_header(name, value)
        if length is not None:
            self.send_header("Content-Length", str(length))
        self.end_headers()
        self.wfile.write(blob)

    def do_GET(self):  # noqa: N802
        self.server.calls.append(self.command)
        self.serve()

    def do_POST(self):  # noqa: N802
        self.rfile.read(int(self.headers.get("Content-Length") or 0))
        self.do_GET()

    def log_message(self, *args):
        pass


class TestFraming:
    """Replies from stdlib ``http.server``, framed by the transport."""

    def test_chunked_stream(self):
        lines = [{"event": "progress", "done": i} for i in range(3)]
        blob = b"".join(json.dumps(line).encode() + b"\n" for line in lines)

        class Handler(_Handler):
            def serve(self):
                self.send_response(200)
                self.send_header("Transfer-Encoding", "chunked")
                self.end_headers()
                # Chunk boundaries fall mid-line and mid-number.
                for start in range(0, len(blob), 7):
                    piece = blob[start:start + 7]
                    self.wfile.write(b"%x;ext=1\r\n%s\r\n" % (len(piece),
                                                              piece))
                self.wfile.write(b"0\r\nX-Trailer: done\r\n\r\n")

        with _serving(Handler) as (_, transport):
            assert list(transport.stream("GET", "/events")) == lines

    def test_http10_body_delimited_by_close(self):
        class Handler(_Handler):
            protocol_version = "HTTP/1.0"

            def serve(self):
                self.reply(b'{"framed": "by close"}')

        with _serving(Handler) as (server, transport):
            assert transport.request("GET", "/x") == (
                200, {"framed": "by close"}
            )
            assert transport._local.conn is None
            assert transport.request_text("GET", "/x") == (
                200, '{"framed": "by close"}'
            )
            assert server.connections == 2

    @pytest.mark.parametrize("close, dials", [(True, 3), (False, 1)])
    def test_connection_close_reply_drops_the_socket(self, close, dials):
        class Handler(_Handler):
            def serve(self):
                headers = [("Connection", "close")] if close else []
                self.reply(b"{}", *headers, length=2)

        with _serving(Handler) as (server, transport):
            for _ in range(3):
                assert transport.request("POST", "/x", body={}) == (200, {})
                assert (transport._local.conn is None) is close
            assert server.connections == dials

    @pytest.mark.parametrize("method, attempts", [("GET", 2), ("POST", 1)])
    def test_eof_before_status_line(self, method, attempts):
        class Handler(_Handler):
            def serve(self):
                if len(self.server.calls) == 1:
                    self.close_connection = True  # hang up, no reply
                else:
                    self.reply(b'{"ok": true}', length=12)

        with _serving(Handler, retries=2) as (server, transport):
            if method == "GET":
                assert transport.request("GET", "/x") == (200, {"ok": True})
            else:
                with pytest.raises(TransportError) as excinfo:
                    transport.request("POST", "/x", body={"step": 1})
                assert excinfo.value.attempts == 1
            assert server.calls == [method] * attempts

    @pytest.mark.parametrize("lengths", [("2", "5"), ("2, 5",), ("+2",)])
    def test_ambiguous_content_length_raises(self, lengths):
        class Handler(_Handler):
            protocol_version = "HTTP/1.0"

            def serve(self):
                self.reply(b"{}", *[("Content-Length", value)
                                    for value in lengths])

        with _serving(Handler, retries=0) as (_, transport):
            with pytest.raises(TransportError):
                transport.request("GET", "/x")
            assert transport._local.conn is None

    @pytest.mark.parametrize("kind", ["truncated", "long-line", "headers"])
    def test_malformed_reply_raises_without_hanging(self, kind):
        class Handler(_Handler):
            protocol_version = "HTTP/1.0"  # the server hangs up after

            def serve(self):
                if kind == "truncated":
                    # Valid JSON, so only the length check can object.
                    self.reply(b"{}", length=100)
                elif kind == "long-line":
                    self.reply(b"{}", ("X-Long", "a" * 70_000), length=2)
                else:
                    headers = [(f"X-H{i}", "v") for i in range(101)]
                    self.reply(b"{}", *headers, length=2)

        with _serving(Handler, retries=0, timeout=10.0) as (_, transport):
            start = time.monotonic()
            with pytest.raises(TransportError) as excinfo:
                transport.request("GET", "/x")
            assert time.monotonic() - start < 5.0
            assert excinfo.value.attempts == 1
            assert transport._local.conn is None
