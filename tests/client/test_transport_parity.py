"""Transport parity: every client method, identical payloads.

One scripted scenario — markets, a full session lifecycle, checkpoint/
restore, every error class, a sharded job with its event stream — runs
against a :class:`LocalTransport` stack and an HTTP stack, and every
captured payload must be *equal* (volatile fields like pids and
wall-clock excluded), not merely similar.  This is the contract that
lets ``--server URL`` flip any front door between embedded and remote
without changing a byte of what it sees.
"""

import math

import pytest

from repro.client import ClientError, MarketplaceClient
from repro.jobs import JobStore
from repro.service import JobService, MarketPool, SessionManager
from repro.service.async_server import AsyncMarketplaceServer

SPEC = {"dataset": "synthetic", "seed": 0}
SIM = {"sessions": 48, "seed": 7, "batch_size": 16}

#: Fields whose values legitimately differ across processes/runs.
_VOLATILE = frozenset({"pid", "elapsed", "sessions_per_sec"})


def _norm(value):
    if isinstance(value, dict):
        return {
            key: ("<volatile>" if key in _VOLATILE else _norm(item))
            for key, item in value.items()
        }
    if isinstance(value, list):
        return [_norm(item) for item in value]
    if isinstance(value, float) and math.isnan(value):
        return "<nan>"
    return value


def _err(call):
    """An error, captured as comparable data."""
    try:
        call()
    except ClientError as exc:
        return {
            "type": type(exc).__name__,
            "status": exc.status,
            "code": exc.code,
            "message": str(exc),
        }
    raise AssertionError("expected a ClientError")


def _scenario(client: MarketplaceClient) -> dict:
    """The scripted call sequence; returns every captured payload."""
    out = {}
    out["health"] = client.health()
    out["healthz"] = client.healthz()
    out["market_cold"] = client.build_market(SPEC)
    out["market_warm"] = client.build_market(SPEC)
    opened = client.open_session({"market": SPEC, "seed": 0, "run": 0})
    sid = opened["session"]
    out["session_open"] = opened
    out["session_step"] = client.step(sid, rounds=3)
    out["session_status"] = client.session(sid)
    out["session_run"] = client.run_session(sid)
    out["checkpoint"] = client.checkpoint(sid)
    out["err_409_restore_resident"] = _err(
        lambda: client.restore(out["checkpoint"])
    )
    out["session_close"] = client.close_session(sid)
    restored = client.restore(out["checkpoint"])
    out["restored"] = restored
    out["restored_run"] = client.run_session(restored["session"])
    client.close_session(restored["session"])
    out["err_404_session"] = _err(lambda: client.session("snope"))
    out["err_404_close"] = _err(lambda: client.close_session("snope"))
    out["err_400_market"] = _err(
        lambda: client.build_market({"dataset": "mnist"})
    )
    out["err_404_job"] = _err(lambda: client.job("jdeadbeef"))
    submitted = client.submit_simulation(SIM, chunks=2)
    final = client.wait_job(submitted["job"], timeout=120)
    out["job_final"] = final
    out["jobs_page"] = client.jobs(limit=10)
    out["events_end"] = [
        event
        for event in client.job_events(submitted["job"], timeout=30)
        if event["event"] == "end"
    ]
    out["report"] = client.report()
    return out


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("parity")
    local = MarketplaceClient.local(
        manager=SessionManager(pool=MarketPool()),
        jobs=JobService(JobStore(str(tmp / "local.sqlite3")), shards=2),
    )
    with AsyncMarketplaceServer(
        port=0,
        manager=SessionManager(pool=MarketPool()),
        jobs=JobService(JobStore(str(tmp / "http.sqlite3")), shards=2),
    ) as server, MarketplaceClient.connect(server.url) as http:
        yield {"local": _scenario(local), "http": _scenario(http)}


SCENARIOS = (
    "health", "healthz", "market_cold", "market_warm",
    "session_open", "session_step", "session_status", "session_run",
    "checkpoint", "session_close", "restored", "restored_run",
    "err_409_restore_resident", "err_404_session", "err_404_close",
    "err_400_market", "err_404_job",
    "job_final", "jobs_page", "events_end", "report",
)


@pytest.mark.parametrize("name", SCENARIOS)
def test_payload_parity(results, name):
    assert _norm(results["local"][name]) == _norm(results["http"][name])


def test_scenarios_cover_every_capture(results):
    """A new capture must be added to SCENARIOS, not silently skipped."""
    assert set(SCENARIOS) == set(results["local"])
    assert set(SCENARIOS) == set(results["http"])


class TestDigests:
    def test_job_digest_matches_across_transports(self, results):
        assert (results["local"]["job_final"]["digest"]
                == results["http"]["job_final"]["digest"])

    def test_checkpoint_digest_matches_across_transports(self, results):
        assert (results["local"]["checkpoint"]["digest"]
                == results["http"]["checkpoint"]["digest"])

    def test_outcomes_bit_identical(self, results):
        local = results["local"]["session_run"]["outcome"]
        http = results["http"]["session_run"]["outcome"]
        assert local == http
