"""``repro obs`` and ``repro fleet status`` against a live server.

Both commands only read a deployment's operator surfaces
(``GET /v1/metrics``, ``GET /v1/traces``, ``GET /v1/fleet``) and render
them as text; without ``--server`` they refuse rather than describe the
one-shot CLI process.
"""

import re

import pytest

from repro.cli import _parse_prometheus, main
from repro.client import MarketplaceClient
from repro.jobs import JobStore
from repro.jobs.executor import submit_simulation
from repro.service import JobService, MarketPool, SessionManager, SimulationSpec
from repro.service.async_server import AsyncMarketplaceServer

EXPOSITION = """\
# HELP repro_requests_total Requests served.
# TYPE repro_requests_total counter
repro_requests_total{route="step"} 3

# HELP repro_latency_seconds Request latency.
# TYPE repro_latency_seconds histogram
repro_latency_seconds_bucket{le="0.1"} 2
repro_latency_seconds_bucket{le="+Inf"} 3
repro_latency_seconds_sum 0.25
repro_latency_seconds_count 3
orphan_total 7
"""


@pytest.fixture(scope="module")
def live(tmp_path_factory):
    store = JobStore(str(tmp_path_factory.mktemp("inspect") / "jobs.sqlite3"))
    with AsyncMarketplaceServer(
        port=0,
        manager=SessionManager(pool=MarketPool()),
        jobs=JobService(store),
    ) as server:
        yield server.url, store


class TestParsePrometheus:
    def test_groups_histogram_series_under_their_family(self):
        families = {f["name"]: f for f in _parse_prometheus(EXPOSITION)}
        assert list(families) == [
            "repro_requests_total", "repro_latency_seconds", "orphan_total",
        ]
        latency = families["repro_latency_seconds"]
        assert latency["kind"] == "histogram"
        assert latency["help"] == "Request latency."
        assert [s for s, _ in latency["series"]] == [
            'repro_latency_seconds_bucket{le="0.1"}',
            'repro_latency_seconds_bucket{le="+Inf"}',
            "repro_latency_seconds_sum",
            "repro_latency_seconds_count",
        ]
        assert families["repro_requests_total"]["series"] == [
            ('repro_requests_total{route="step"}', "3"),
        ]

    def test_sample_without_metadata_is_untyped(self):
        (orphan,) = [f for f in _parse_prometheus(EXPOSITION)
                     if f["name"] == "orphan_total"]
        assert orphan == {"name": "orphan_total", "help": "", "kind": "",
                          "series": [("orphan_total", "7")]}

    def test_suffix_without_a_base_family_stays_its_own(self):
        (family,) = _parse_prometheus("lonely_count 1\n")
        assert family["name"] == "lonely_count"


class TestObsCommand:
    def test_needs_a_server(self):
        with pytest.raises(SystemExit, match="--server URL"):
            main(["obs"])

    def test_summary_lists_families_with_kind_and_help(self, live, capsys):
        url, _ = live
        with MarketplaceClient.connect(url) as client:
            client.health()  # a served request: the counter has a series
        assert main(["obs", "--server", url]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"metrics from {url}:")
        assert re.search(r"^repro_requests_total \(counter\) — ", out, re.M)
        assert re.search(r"^  repro_requests_total\{.*\}  \d", out, re.M)

    def test_raw_prints_the_exposition(self, live, capsys):
        url, _ = live
        assert main(["obs", "--server", url, "--raw"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# HELP ")
        assert "# TYPE repro_requests_total counter" in out

    def test_traces_prints_the_last_spans(self, live, capsys):
        url, _ = live
        with MarketplaceClient.connect(url) as client:
            client.health()
        assert main(["obs", "--server", url, "--traces", "2"]) == 0
        out = capsys.readouterr().out
        header = re.search(r"^last (\d+) of (\d+) buffered spans:$", out, re.M)
        assert header and header.group(1) == "2"
        # Span names may hold spaces (``client:GET /v1/health``).
        spans = re.findall(r"^  seq=\d+ .+ trace=\w+ duration=[\d.]+s", out,
                           re.M)
        assert len(spans) == 2


class TestFleetCommand:
    def test_needs_a_server(self):
        with pytest.raises(SystemExit, match="--server URL"):
            main(["fleet", "status"])

    def test_status_shows_workers_and_leases(self, live, capsys):
        url, store = live
        job = submit_simulation(store, SimulationSpec(sessions=40, seed=0),
                                chunks=2)
        with MarketplaceClient.connect(url) as client:
            worker = client.register_worker(
                "http://w1.test", capacity=2, labels={"zone": "a"}
            )["worker"]
            client.worker_heartbeat(worker, load={"chunks": 1})
            lease = client.lease_chunk(worker, job=job.job_id)["lease"]
        assert main(["fleet", "status", "--server", url]) == 0
        out = capsys.readouterr().out
        assert re.match(
            rf"fleet at {re.escape(url)}: 1 worker\(s\), 1 active lease\(s\), "
            r"queue depth 1 \(lease_ttl [\d.]+s, heartbeat_ttl [\d.]+s\)",
            out,
        )
        assert (f"  {worker} live  http://w1.test capacity=2 "
                f"load=1 chunk(s) [zone=a]") in out
        assert (f"  lease {job.job_id}#{lease['chunk']} -> {worker} "
                "(deadline ") in out
