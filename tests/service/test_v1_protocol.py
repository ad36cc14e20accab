"""Wire-protocol contract: versioning, envelopes, limits, pagination.

Everything here talks raw HTTP (``http.client`` / raw sockets) because
the subject *is* the wire: what exactly an unversioned path receives,
what an oversized Content-Length triggers, how a page cursor behaves.
"""

import http.client
import json
import re
import socket
import time

import pytest

from repro.jobs import JobStore
from repro.service import JobService, MarketPool, SessionManager
from repro.service.async_server import MAX_BODY_BYTES, AsyncMarketplaceServer


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    store = JobStore(str(tmp_path_factory.mktemp("v1") / "jobs.sqlite3"))
    with AsyncMarketplaceServer(
        port=0,
        manager=SessionManager(pool=MarketPool()),
        jobs=JobService(store, shards=2),
    ) as server:
        host, port = server.address
        yield {"host": host, "port": port, "store": store, "server": server}


def _request(service, method, path, body=None, headers=None):
    """One raw exchange; returns (status, headers, payload)."""
    conn = http.client.HTTPConnection(service["host"], service["port"],
                                      timeout=30)
    try:
        blob = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, body=blob, headers=headers or {})
        response = conn.getresponse()
        raw = response.read()
        payload = json.loads(raw.decode()) if raw else {}
        return response.status, dict(response.getheaders()), payload
    finally:
        conn.close()


def _raw_exchange(service, *segments: bytes,
                  shutdown_write: bool = False) -> bytes:
    """Ship raw bytes, return the raw reply (for protocol-violation tests).

    Each segment is sent on its own, a short pause apart, so a request
    can be split across TCP segments at a chosen byte.
    """
    with socket.create_connection(
        (service["host"], service["port"]), timeout=30
    ) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for index, segment in enumerate(segments):
            if index:
                time.sleep(0.05)
            sock.sendall(segment)
        if shutdown_write:
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    return b"".join(chunks)


def _statuses(reply: bytes) -> list[int]:
    """The status code of every reply in a raw byte stream, in order."""
    return [int(code) for code in re.findall(rb"HTTP/1\.1 (\d{3}) ", reply)]


_HEALTH = b"GET /v1/health HTTP/1.1\r\nHost: x\r\n\r\n"
_HEALTH_CLOSE = (b"GET /v1/health HTTP/1.1\r\nHost: x\r\n"
                 b"Connection: close\r\n\r\n")


class TestUnversionedPaths:
    @pytest.mark.parametrize("method, path", [
        ("GET", "/healthz"), ("GET", "/health"),
        ("POST", "/markets"), ("POST", "/simulations"),
        ("PUT", "/sessions/s0/state"), ("DELETE", "/sessions/s0"),
    ])
    def test_unversioned_paths_are_404_not_found(self, service, method,
                                                 path):
        """Only /v1 is routed: the old unversioned heads get the same
        404 envelope as any unknown path, on every method, with no
        redirect."""
        status, headers, payload = _request(service, method, path)
        assert status == 404
        assert "Location" not in headers
        assert payload["error"]["code"] == "not_found"
        assert payload["error"]["message"] == f"no route {method} {path}"

    def test_v1_paths_are_not_redirected(self, service):
        status, _, payload = _request(service, "GET", "/v1/health")
        assert status == 200 and payload["version"] == "v1"


class TestEnvelopeSemantics:
    def test_unknown_ids_are_404_on_every_method(self, service):
        cases = (
            ("GET", "/v1/sessions/snope"),
            ("POST", "/v1/sessions/snope/step"),
            ("GET", "/v1/sessions/snope/state"),
            ("DELETE", "/v1/sessions/snope"),
            ("GET", "/v1/jobs/jnope"),
            ("POST", "/v1/jobs/jnope/resume"),
            ("GET", "/v1/jobs/jnope/events"),
        )
        for method, path in cases:
            status, _, payload = _request(service, method, path)
            assert status == 404, (method, path, payload)
            assert payload["error"]["code"] == "not_found", (method, path)

    def test_wrong_method_is_405_with_allowed_list(self, service):
        status, _, payload = _request(service, "DELETE", "/v1/markets")
        assert status == 405
        assert payload["error"]["code"] == "method_not_allowed"
        assert payload["error"]["detail"]["allowed"] == ["POST"]

    def test_restore_conflict_is_409(self, service):
        status, _, opened = _request(
            service, "POST", "/v1/sessions",
            body={"market": {"dataset": "synthetic", "seed": 0}, "seed": 0},
        )
        assert status == 201
        sid = opened["session"]
        status, _, checkpoint = _request(
            service, "GET", f"/v1/sessions/{sid}/state"
        )
        assert status == 200
        status, _, payload = _request(
            service, "PUT", f"/v1/sessions/{sid}/state", body=checkpoint
        )
        assert status == 409
        assert payload["error"]["code"] == "conflict"
        _request(service, "DELETE", f"/v1/sessions/{sid}")

    def test_bad_query_parameter_is_400(self, service):
        status, _, payload = _request(service, "GET", "/v1/jobs?limit=lots")
        assert status == 400
        assert payload["error"]["code"] == "invalid_request"
        status, _, payload = _request(service, "GET", "/v1/jobs?limit=0")
        assert status == 400


class TestBodyLimits:
    def test_oversized_content_length_is_413_without_reading(self, service):
        huge = MAX_BODY_BYTES + 1
        reply = _raw_exchange(
            service,
            (f"POST /v1/markets HTTP/1.1\r\n"
             f"Host: x\r\nContent-Length: {huge}\r\n\r\n").encode(),
        )
        head, _, body = reply.partition(b"\r\n\r\n")
        assert b"413" in head.splitlines()[0]
        payload = json.loads(body.decode())
        assert payload["error"]["code"] == "payload_too_large"
        assert payload["error"]["detail"]["max_bytes"] == MAX_BODY_BYTES

    def test_malformed_content_length_is_411(self, service):
        reply = _raw_exchange(
            service,
            b"POST /v1/markets HTTP/1.1\r\n"
            b"Host: x\r\nContent-Length: lots\r\n\r\n",
        )
        head, _, body = reply.partition(b"\r\n\r\n")
        assert b"411" in head.splitlines()[0]
        assert json.loads(body.decode())["error"]["code"] == "length_required"

    def test_chunked_request_body_is_411(self, service):
        reply = _raw_exchange(
            service,
            b"POST /v1/markets HTTP/1.1\r\n"
            b"Host: x\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"0\r\n\r\n",
        )
        head, _, body = reply.partition(b"\r\n\r\n")
        assert b"411" in head.splitlines()[0]

    def test_truncated_body_is_400_not_a_hang(self, service):
        reply = _raw_exchange(
            service,
            b"POST /v1/markets HTTP/1.1\r\n"
            b"Host: x\r\nContent-Length: 4096\r\n\r\n"
            b'{"dataset"',
            shutdown_write=True,
        )
        head, _, body = reply.partition(b"\r\n\r\n")
        assert b"400" in head.splitlines()[0]
        assert b"declared" in body

    def test_invalid_json_body_is_400(self, service):
        blob = b"{nope"
        reply = _raw_exchange(
            service,
            (b"POST /v1/markets HTTP/1.1\r\nHost: x\r\n"
             + f"Content-Length: {len(blob)}\r\n\r\n".encode() + blob),
        )
        head, _, body = reply.partition(b"\r\n\r\n")
        assert b"400" in head.splitlines()[0]
        assert json.loads(body.decode())["error"]["code"] == "invalid_request"


class TestJobsPagination:
    def _seed_jobs(self, service, n=5):
        ids = []
        for seed in range(n):
            record = service["store"].submit(
                "simulation", {"sessions": 10, "seed": seed}, [(0, 10)]
            )
            ids.append(record.job_id)
        return sorted(set(ids))

    def test_cursor_walk_is_deterministic_and_complete(self, service):
        ids = self._seed_jobs(service)
        seen, after = [], None
        while True:
            path = "/v1/jobs?limit=2" + (f"&after={after}" if after else "")
            status, _, page = _request(service, "GET", path)
            assert status == 200
            assert page["count"] == len(page["jobs"]) <= 2
            seen += [job["job"] for job in page["jobs"]]
            after = page["next"]
            if after is None:
                break
        assert [j for j in seen if j in ids] == ids
        assert seen == sorted(seen), "pages must be job-id ordered"

    def test_full_listing_has_no_next(self, service):
        self._seed_jobs(service)
        status, _, page = _request(service, "GET", "/v1/jobs?limit=1000")
        assert status == 200 and page["next"] is None


class TestFraming:
    """How the server frames requests on one connection, byte by byte."""

    def test_two_pipelined_requests_in_one_segment(self, service):
        reply = _raw_exchange(service, _HEALTH + _HEALTH_CLOSE)
        assert _statuses(reply) == [200, 200]

    def test_head_split_across_segments(self, service):
        reply = _raw_exchange(service, _HEALTH_CLOSE[:9],
                              _HEALTH_CLOSE[9:30], _HEALTH_CLOSE[30:])
        assert _statuses(reply) == [200]

    def test_body_split_across_segments(self, service):
        body = b'{"dataset": "no-such-dataset"}'
        head = (b"POST /v1/markets HTTP/1.1\r\nHost: x\r\n"
                b"Connection: close\r\n"
                + b"Content-Length: %d\r\n\r\n" % len(body))
        reply = _raw_exchange(service, head, body[:7], body[7:])
        assert _statuses(reply) == [400]
        # The whole body was read: the spec validator saw the dataset.
        assert b"no-such-dataset" in reply

    def test_oversized_head_closes_without_hanging(self, service):
        head = (b"GET /v1/health HTTP/1.1\r\nX-Big: "
                + b"a" * (70 * 1024) + b"\r\n\r\n")
        start = time.monotonic()
        try:
            reply = _raw_exchange(service, head)
        except (ConnectionResetError, BrokenPipeError):
            reply = b""
        assert time.monotonic() - start < 10.0
        assert 200 not in _statuses(reply)

    def test_client_closing_mid_body_frees_the_connection(self, service):
        with socket.create_connection(
            (service["host"], service["port"]), timeout=30
        ) as sock:
            sock.sendall(b"POST /v1/markets HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: 4096\r\n\r\n{\"dataset\"")
        deadline = time.monotonic() + 10.0
        while service["server"]._busy and time.monotonic() < deadline:
            time.sleep(0.01)
        assert service["server"]._busy == 0
        assert _statuses(_raw_exchange(service, _HEALTH_CLOSE)) == [200]


class TestFramingDefects:
    """Heads the server used to misframe; each is answered by the shared
    HTTP/1.1 rules now."""

    def test_conflicting_content_lengths_are_411_and_close(self, service):
        # Taking either value would desync the stream: the bytes after
        # the head would be read as a body or as the next request.
        reply = _raw_exchange(
            service,
            b"POST /v1/sessions HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 2\r\nContent-Length: 0\r\n\r\n{}"
            + _HEALTH_CLOSE,
            shutdown_write=True,
        )
        assert _statuses(reply) == [411]
        head, _, body = reply.partition(b"\r\n\r\n")
        assert b"Connection: close" in head
        assert json.loads(body.decode())["error"]["code"] == "length_required"

    def test_identical_repeated_content_lengths_are_merged(self, service):
        body = b'{"dataset": "no-such-dataset"}'
        reply = _raw_exchange(
            service,
            b"POST /v1/markets HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
            + b"Content-Length: %d\r\nContent-Length: %d\r\n\r\n"
            % (len(body), len(body)) + body,
        )
        assert _statuses(reply) == [400]
        assert b"no-such-dataset" in reply

    def test_signed_content_length_is_411(self, service):
        reply = _raw_exchange(
            service,
            b"POST /v1/sessions HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: +2\r\n\r\n{}",
            shutdown_write=True,
        )
        assert _statuses(reply) == [411]

    def test_close_among_connection_tokens_closes(self, service):
        reply = _raw_exchange(
            service,
            b"GET /v1/health HTTP/1.1\r\nHost: x\r\n"
            b"Connection: close, TE\r\nTE: trailers\r\n\r\n"
            + _HEALTH_CLOSE,
        )
        assert _statuses(reply) == [200]

    def test_http10_keep_alive_among_tokens_keeps_alive(self, service):
        reply = _raw_exchange(
            service,
            b"GET /v1/health HTTP/1.0\r\nHost: x\r\n"
            b"Connection: Keep-Alive, TE\r\nTE: trailers\r\n\r\n"
            b"GET /v1/health HTTP/1.0\r\nHost: x\r\n\r\n",
        )
        assert _statuses(reply) == [200, 200]

    def test_too_many_header_lines_are_400(self, service):
        fields = b"".join(b"X-H%d: v\r\n" % i for i in range(2000))
        reply = _raw_exchange(
            service,
            b"GET /v1/health HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
            + fields + b"\r\n",
        )
        assert _statuses(reply) == [400]
        head, _, body = reply.partition(b"\r\n\r\n")
        assert json.loads(body.decode())["error"]["code"] == "invalid_request"
