"""The telemetry surface: ``GET /v1/metrics`` and ``GET /v1/traces``.

Covers both fronts — LocalTransport and the asyncio HTTP server — plus the exposition-format contract (parseable
Prometheus text v0.0.4) and trace pagination semantics.
"""

import http.client

import pytest

from repro import obs
from repro.client import MarketplaceClient
from repro.service import MarketPool, SessionManager
from repro.service.async_server import AsyncMarketplaceServer
from repro.service.api import METRICS_CONTENT_TYPE

SPEC_DICT = {"dataset": "synthetic", "seed": 0}

#: Families the scrape must always expose (they are registered at
#: import time, so they appear — with zero or more series — on every
#: server regardless of traffic).
CORE_FAMILIES = (
    "repro_requests_total",
    "repro_request_duration_seconds",
    "repro_oracle_cache_courses_total",
    "repro_job_chunk_events_total",
    "repro_sessions",
)


def _parse_families(text: str) -> dict:
    """``name -> {"type": kind, "samples": [(labels_part, value)]}``.

    A deliberately strict little parser: any line that is neither a
    well-formed comment nor ``name[{labels}] value`` fails the test.
    """
    families: dict = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            name = line[len("# HELP "):].split(" ", 1)[0]
            families.setdefault(name, {"type": None, "samples": []})
        elif line.startswith("# TYPE "):
            name, kind = line[len("# TYPE "):].split(" ", 1)
            families.setdefault(name, {"type": None, "samples": []})
            families[name]["type"] = kind.strip()
        else:
            assert not line.startswith("#"), f"bad comment line: {line!r}"
            sample, _, value = line.rpartition(" ")
            float(value)  # must parse as a number
            name = sample.partition("{")[0]
            base = name
            for suffix in ("_bucket", "_sum", "_count"):
                stripped = base.removesuffix(suffix)
                if stripped in families:
                    base = stripped
                    break
            assert base in families, f"sample {name!r} before its # HELP"
            families[base]["samples"].append((sample, value))
    return families


class TestLocalTransport:
    def test_metrics_text_parses_with_core_families(self):
        client = MarketplaceClient.local(
            manager=SessionManager(pool=MarketPool())
        )
        client.build_market(SPEC_DICT)
        opened = client.open_session({"market": SPEC_DICT, "seed": 0})
        client.run_session(opened["session"])
        families = _parse_families(client.metrics_text())
        for name in CORE_FAMILIES:
            assert name in families, f"missing family {name}"
        assert families["repro_requests_total"]["type"] == "counter"
        assert families["repro_request_duration_seconds"]["type"] == "histogram"
        # Traffic from this very test is visible in the request family.
        samples = dict(families["repro_requests_total"]["samples"])
        assert any("/v1/sessions" in key for key in samples)

    def test_traces_paginate_by_seq(self):
        client = MarketplaceClient.local(
            manager=SessionManager(pool=MarketPool())
        )
        before = obs.TRACER.last_seq()
        client.health()
        client.health()
        spans = [s for s in client.traces(offset=before)
                 if s["name"].startswith(("client:", "dispatch"))]
        assert len(spans) >= 4  # 2 client spans + 2 dispatch spans
        seqs = [s["seq"] for s in spans]
        assert seqs == sorted(seqs)
        # Paging from the last seen seq yields nothing older — only the
        # paging request's own spans (its dispatch records before the
        # stream drains) can appear.
        leftover = client.traces(offset=obs.TRACER.last_seq())
        assert {s["name"] for s in leftover} <= {"dispatch"}

    def test_dispatch_span_is_child_of_client_span(self):
        client = MarketplaceClient.local(
            manager=SessionManager(pool=MarketPool())
        )
        before = obs.TRACER.last_seq()
        client.health()
        spans = obs.TRACER.spans(offset=before)
        [client_span] = [s for s in spans if s["name"] == "client:GET /v1/health"]
        [dispatch] = [s for s in spans if s["name"] == "dispatch"]
        assert dispatch["trace_id"] == client_span["trace_id"]
        assert dispatch["parent_id"] == client_span["span_id"]
        assert dispatch["attrs"]["status"] == 200


@pytest.fixture(scope="module")
def asyncio_server():
    server = AsyncMarketplaceServer(
        port=0, manager=SessionManager(pool=MarketPool())
    )
    host, port = server.start_background()
    yield {"host": host, "port": port}
    server.shutdown(timeout=10.0)


def _scrape(service) -> tuple[int, str, str]:
    conn = http.client.HTTPConnection(
        service["host"], service["port"], timeout=30
    )
    try:
        conn.request("GET", "/v1/metrics")
        response = conn.getresponse()
        return (
            response.status,
            response.getheader("Content-Type"),
            response.read().decode("utf-8"),
        )
    finally:
        conn.close()


class TestHttpExposition:
    def test_asyncio_server_scrape(self, asyncio_server):
        status, content_type, text = _scrape(asyncio_server)
        assert status == 200
        assert content_type == METRICS_CONTENT_TYPE
        families = _parse_families(text)
        for name in CORE_FAMILIES:
            assert name in families
        # Sessions are never batched across each other, so no
        # cross-session coalescing family exists to scrape.
        assert not any(n.startswith("repro_coalesce_") for n in families)

    def test_traces_stream_over_http(self, asyncio_server):
        with MarketplaceClient.connect(
            f"http://{asyncio_server['host']}:{asyncio_server['port']}"
        ) as client:
            before = obs.TRACER.last_seq()
            client.health()
            spans = client.traces(offset=before)
        names = [s["name"] for s in spans]
        assert "dispatch" in names
