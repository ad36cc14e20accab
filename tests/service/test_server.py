"""HTTP smoke tests: a full bargain to acceptance over localhost."""

import json
import os
import re
import select
import signal
import subprocess
import sys
import urllib.error
import urllib.request

import pytest

from repro.service import MarketPool, SessionManager
from repro.service.async_server import AsyncMarketplaceServer
from repro.service.specs import MarketSpec
from repro.utils.rng import spawn

SPEC_DICT = {"dataset": "synthetic", "seed": 0}


@pytest.fixture(scope="module")
def service():
    pool = MarketPool()
    manager = SessionManager(pool=pool)
    with AsyncMarketplaceServer(port=0, manager=manager) as server:
        yield {"url": server.url, "pool": pool, "manager": manager}


def _call(url, method="GET", body=None):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


class TestRoutes:
    def test_health(self, service):
        status, payload = _call(f"{service['url']}/v1/health")
        assert status == 200 and payload == {"ok": True, "version": "v1"}

    def test_unversioned_path_is_404(self, service):
        status, payload = _call(f"{service['url']}/health")
        assert status == 404
        assert payload["error"]["code"] == "not_found"

    def test_market_build_and_warm_flag(self, service):
        status, first = _call(
            f"{service['url']}/v1/markets", "POST", SPEC_DICT
        )
        assert status == 200
        assert first["name"] == "synthetic"
        assert first["n_bundles"] == 24
        assert first["target_gain"] > 0
        status, again = _call(f"{service['url']}/v1/markets", "POST", SPEC_DICT)
        assert again["market"] == first["market"]
        assert not first["cached"] and again["cached"]

    def test_full_bargain_to_acceptance(self, service):
        """Open a session and step it round by round until the deal."""
        status, opened = _call(
            f"{service['url']}/v1/sessions", "POST",
            {"market": SPEC_DICT, "seed": 0},
        )
        assert status == 201
        session_id = opened["session"]
        assert opened["round"] == 0 and not opened["done"]
        rounds = 0
        while True:
            status, state = _call(
                f"{service['url']}/v1/sessions/{session_id}/step", "POST"
            )
            assert status == 200
            rounds += 1
            assert rounds <= 600, "session failed to terminate"
            if state["done"]:
                break
        outcome = state["outcome"]
        assert outcome["status"] == "accepted"
        assert outcome["payment"] > 0 and outcome["delta_g"] > 0
        assert state["round"] == rounds
        # The transcript must equal the in-process engine, bit for bit.
        market = service["pool"].get(MarketSpec.from_dict(SPEC_DICT))
        expected = market.bargain(seed=0)
        assert outcome["n_rounds"] == expected.n_rounds
        assert outcome["payment"] == expected.payment
        assert outcome["quote"]["cap"] == expected.quote.cap
        status, closed = _call(
            f"{service['url']}/v1/sessions/{session_id}", "DELETE"
        )
        assert status == 200 and closed["closed"]

    def test_step_until_done_and_by_market_digest(self, service):
        _, built = _call(f"{service['url']}/v1/markets", "POST", SPEC_DICT)
        _, opened = _call(
            f"{service['url']}/v1/sessions", "POST",
            {"market": built["market"], "seed": 0, "run": 4},
        )
        _, state = _call(
            f"{service['url']}/v1/sessions/{opened['session']}/step", "POST",
            {"until_done": True},
        )
        assert state["done"] and "outcome" in state

    def test_batched_rounds(self, service):
        _, opened = _call(
            f"{service['url']}/v1/sessions", "POST",
            {"market": SPEC_DICT, "seed": 0, "run": 5},
        )
        _, state = _call(
            f"{service['url']}/v1/sessions/{opened['session']}/step", "POST",
            {"rounds": 10},
        )
        assert state["round"] == 10 or state["done"]

    def test_report(self, service):
        status, report = _call(f"{service['url']}/v1/report")
        assert status == 200
        assert report["sessions"]["opened"] >= 1
        assert report["outcomes"]["accepted"] >= 1

    def test_errors(self, service):
        status, payload = _call(
            f"{service['url']}/v1/markets", "POST", {"dataset": "mnist"}
        )
        assert status == 400
        assert payload["error"]["code"] == "invalid_request"
        assert "unknown dataset" in payload["error"]["message"]
        status, payload = _call(
            f"{service['url']}/v1/sessions/shifty/step", "POST"
        )
        assert status == 404
        assert payload["error"]["code"] == "not_found"
        assert "unknown session" in payload["error"]["message"]
        status, payload = _call(f"{service['url']}/v1/nope")
        assert status == 404
        status, payload = _call(
            f"{service['url']}/v1/sessions", "POST",
            {"market": SPEC_DICT, "task": "oracle_cheat"},
        )
        assert status == 400
        assert "unknown task strategy" in payload["error"]["message"]
        # Wrong-typed spec fields must 400, not drop the connection.
        status, payload = _call(
            f"{service['url']}/v1/markets", "POST",
            {"dataset": "synthetic", "n_bundles": "ten"},
        )
        assert status == 400 and "error" in payload


class TestHttpMatchesCli:
    def test_http_session_reproduces_bargain_outcome(self, service):
        """`POST /v1/sessions` + `/step` reproduces `repro bargain` runs."""
        _, opened = _call(
            f"{service['url']}/v1/sessions", "POST",
            {"market": SPEC_DICT, "seed": 1, "run": 0},
        )
        _, state = _call(
            f"{service['url']}/v1/sessions/{opened['session']}/step", "POST",
            {"until_done": True},
        )
        market = service["pool"].get(MarketSpec.from_dict(SPEC_DICT))
        expected = market.bargain(seed=spawn(1, "run", 0))
        assert state["outcome"]["n_rounds"] == expected.n_rounds
        assert state["outcome"]["payment"] == expected.payment
        assert state["outcome"]["status"] == expected.status


class TestServeCommand:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        """`repro serve` boots the one server, answers, and on SIGTERM
        drains and exits 0."""
        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED="1")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--idle-ttl", "0", "--job-store",
             str(tmp_path / "jobs.sqlite3")],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env,
        )
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 60.0)
            assert ready, "server printed nothing within 60 s"
            banner = proc.stdout.readline()
            match = re.search(r"http://[\d.]+:\d+", banner)
            assert match, banner
            status, payload = _call(f"{match.group(0)}/v1/health")
            assert status == 200 and payload["ok"] is True
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out
        assert "drained and stopped" in out
