"""Wire-protocol contract: versioning, envelopes, limits, pagination.

Everything here talks raw HTTP (``http.client`` / raw sockets) because
the subject *is* the wire: what exactly an unversioned path receives,
what an oversized Content-Length triggers, how a page cursor behaves.
"""

import http.client
import json
import socket

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


def _raw_exchange(service, blob: bytes, *, shutdown_write: bool = False) -> bytes:
    """Ship raw bytes, return the raw reply (for protocol-violation tests)."""
    with socket.create_connection(
        (service["host"], service["port"]), timeout=30
    ) as sock:
        sock.sendall(blob)
        if shutdown_write:
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    return b"".join(chunks)


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
