"""Asyncio transport behaviour: protocol, drain, periodic eviction.

Concurrent wire stepping against the serial baseline is covered by
``test_batch_stepping.py``; this file pins the transport-level
behaviours the event loop owns — body enforcement, streaming, the 503
drain refusal, and the idle-eviction sweep that must run without any
``open_session`` traffic.
"""

import http.client
import json
import time

import pytest

from repro.service import MarketPool, MarketSpec, SessionManager
from repro.service.api import ERROR_CODES
from repro.service.async_server import AsyncMarketplaceServer

SPEC = MarketSpec(dataset="synthetic", seed=0)
SPEC_DICT = {"dataset": "synthetic", "seed": 0}


@pytest.fixture(scope="module")
def pool():
    pool = MarketPool()
    pool.get(SPEC)
    return pool


@pytest.fixture(scope="module")
def service(pool, tmp_path_factory):
    from repro.jobs import JobStore
    from repro.service import JobService

    store = JobStore(
        str(tmp_path_factory.mktemp("async-server") / "jobs.sqlite3")
    )
    server = AsyncMarketplaceServer(
        port=0,
        manager=SessionManager(pool=pool),
        jobs=JobService(store, shards=1),
        eviction_interval=0,
    )
    host, port = server.start_background()
    yield {"server": server, "host": host, "port": port}
    server.shutdown(timeout=10.0)


def _call(service, method, path, body=None, headers=None):
    conn = http.client.HTTPConnection(
        service["host"], service["port"], timeout=30
    )
    try:
        blob = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, body=blob, headers=headers or {})
        response = conn.getresponse()
        raw = response.read()
        payload = json.loads(raw.decode()) if raw else {}
        return response.status, payload, dict(response.getheaders())
    finally:
        conn.close()


class TestProtocol:
    def test_health_and_session_lifecycle(self, service):
        status, payload, _ = _call(service, "GET", "/v1/healthz")
        assert status == 200 and payload["ok"]

        status, opened, _ = _call(
            service, "POST", "/v1/sessions",
            body={"market": SPEC_DICT, "seed": 0},
        )
        assert status == 201
        sid = opened["session"]
        status, stepped, _ = _call(
            service, "POST", f"/v1/sessions/{sid}/step",
            body={"until_done": True},
        )
        assert status == 200 and stepped["done"]
        status, _, _ = _call(service, "DELETE", f"/v1/sessions/{sid}")
        assert status == 200

    def test_keep_alive_carries_multiple_requests(self, service):
        conn = http.client.HTTPConnection(
            service["host"], service["port"], timeout=30
        )
        try:
            for _ in range(3):
                conn.request("GET", "/v1/health")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
                assert not response.will_close
        finally:
            conn.close()

    def test_unknown_route_is_404_envelope(self, service):
        status, payload, _ = _call(service, "GET", "/v1/nope")
        assert status == 404
        assert payload["error"]["code"] == "not_found"

    def test_malformed_json_body_is_400(self, service):
        conn = http.client.HTTPConnection(
            service["host"], service["port"], timeout=30
        )
        try:
            conn.request("POST", "/v1/markets", body=b"{nope",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            payload = json.loads(response.read().decode())
            assert response.status == 400
            assert payload["error"]["code"] == "invalid_request"
        finally:
            conn.close()

    def test_oversized_content_length_is_413(self, service):
        status, payload, _ = _call(
            service, "POST", "/v1/markets",
            headers={"Content-Length": str(64 * 1024 * 1024)},
        )
        assert status == 413
        assert payload["error"]["code"] == "payload_too_large"

    def test_chunked_body_is_411(self, service):
        status, payload, _ = _call(
            service, "POST", "/v1/markets",
            headers={"Transfer-Encoding": "chunked"},
        )
        assert status == 411
        assert payload["error"]["code"] == "length_required"

    def test_job_events_stream(self, service):
        status, job, _ = _call(
            service, "POST", "/v1/simulations",
            body={"sessions": 16, "seed": 0, "shards": 1},
        )
        assert status == 202, job
        job_id = job["job"]
        conn = http.client.HTTPConnection(
            service["host"], service["port"], timeout=60
        )
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events")
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type") == (
                "application/x-ndjson"
            )
            events = [
                json.loads(line) for line in response if line.strip()
            ]
        finally:
            conn.close()
        assert events, "stream produced no events"
        assert events[-1]["event"] == "end"
        assert events[-1]["status"] == "done"
        assert "digest" in events[-1]


class TestConfig:
    def test_workers_must_be_positive(self, pool):
        with pytest.raises(ValueError, match="workers"):
            AsyncMarketplaceServer(
                port=0, manager=SessionManager(pool=pool), workers=0
            )

    def test_eviction_interval_must_be_non_negative(self, pool):
        with pytest.raises(ValueError, match="eviction_interval"):
            AsyncMarketplaceServer(
                port=0, manager=SessionManager(pool=pool),
                eviction_interval=-1.0,
            )

    def test_derived_interval_is_capped_at_a_minute(self, pool):
        server = AsyncMarketplaceServer(
            port=0, manager=SessionManager(pool=pool, idle_ttl=900.0)
        )
        assert server.eviction_interval == 60.0


class TestParityWithInProcess:
    def test_report_payloads_identical(self, pool):
        """Same manager state over HTTP and through the in-process
        transport produces the same payload: the server is pure glue."""
        from repro.client.local import LocalTransport

        manager = SessionManager(pool=pool)
        local = LocalTransport(manager=manager)
        status, opened = local.request(
            "POST", "/v1/sessions", body={"market": SPEC_DICT, "seed": 0}
        )
        assert status == 201
        local.request("POST", f"/v1/sessions/{opened['session']}/step")
        with AsyncMarketplaceServer(
            port=0, manager=manager, eviction_interval=0
        ) as server:
            service = dict(zip(("host", "port"), server.address))
            for path in ("/v1/report",
                         f"/v1/sessions/{opened['session']}",
                         f"/v1/sessions/{opened['session']}/state"):
                status, over_http, _ = _call(service, "GET", path)
                assert (status, over_http) == local.request("GET", path)


class TestDrain:
    def test_draining_refuses_with_retry_after(self, pool):
        server = AsyncMarketplaceServer(
            port=0, manager=SessionManager(pool=pool), eviction_interval=0
        )
        service = dict(zip(("host", "port"), server.start_background()))
        try:
            status, payload, _ = _call(service, "GET", "/v1/health")
            assert status == 200
            server.draining = True
            status, payload, headers = _call(service, "GET", "/v1/health")
            assert status == 503
            assert payload["error"]["code"] == "draining"
            # The documented error table must carry the code, at the
            # status the server actually answers with.
            assert "draining" in ERROR_CODES
            assert ERROR_CODES["draining"][0] == status
            assert headers["Retry-After"] == "1"
            assert "close" in headers.get("Connection", "").lower()
        finally:
            server.draining = False
            server.shutdown(timeout=10.0)

    def test_shutdown_stops_accepting(self, pool):
        server = AsyncMarketplaceServer(
            port=0, manager=SessionManager(pool=pool), eviction_interval=0
        )
        service = dict(zip(("host", "port"), server.start_background()))
        assert _call(service, "GET", "/v1/health")[0] == 200
        server.shutdown(timeout=10.0)
        with pytest.raises(OSError):
            _call(service, "GET", "/v1/health")


class TestPeriodicEviction:
    def test_async_sweeper_evicts_without_open_session(self, pool):
        """Regression: idle sessions used to be reaped only from inside
        ``open_session`` — a quiet server leaked them forever."""
        manager = SessionManager(pool=pool, idle_ttl=0.05)
        server = AsyncMarketplaceServer(
            port=0, manager=manager, eviction_interval=0.05
        )
        service = dict(zip(("host", "port"), server.start_background()))
        try:
            status, opened, _ = _call(
                service, "POST", "/v1/sessions",
                body={"market": SPEC_DICT, "seed": 0},
            )
            assert status == 201
            sid = opened["session"]
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if sid not in manager.session_ids():
                    break
                time.sleep(0.02)
            assert sid not in manager.session_ids()
            assert manager.report()["sessions"]["evicted"] >= 1
        finally:
            server.shutdown(timeout=10.0)

    def test_sweeper_disabled_interval_zero(self, pool):
        manager = SessionManager(pool=pool, idle_ttl=0.01)
        with AsyncMarketplaceServer(
            port=0, manager=manager, eviction_interval=0
        ) as server:
            service = dict(zip(("host", "port"), server.address))
            status, opened, _ = _call(
                service, "POST", "/v1/sessions",
                body={"market": SPEC_DICT, "seed": 0},
            )
            assert status == 201
            time.sleep(0.2)
            # Long past its ttl, yet nothing sweeps it.
            assert opened["session"] in manager.session_ids()
            assert manager.report()["sessions"]["evicted"] == 0

    def test_server_without_idle_ttl_has_no_sweeper(self, pool):
        manager = SessionManager(pool=pool)  # no ttl -> nothing to sweep
        server = AsyncMarketplaceServer(port=0, manager=manager)
        assert server.eviction_interval == 0.0
        with_ttl = AsyncMarketplaceServer(
            port=0, manager=SessionManager(pool=pool, idle_ttl=10.0)
        )
        assert with_ttl.eviction_interval == 5.0
