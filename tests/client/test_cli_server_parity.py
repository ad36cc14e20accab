"""Acceptance pin: `repro simulate --server URL` equals the local run.

The digest in both reports must be identical, and the rendered text
must match byte for byte outside wall-clock lines — the contract that
makes a remote deployment a drop-in for the embedded path.
"""

import re

import pytest

from repro.cli import main
from repro.jobs import JobStore
from repro.service import JobService, MarketPool, SessionManager
from repro.service.async_server import AsyncMarketplaceServer

_WALL_CLOCK_PREFIXES = ("throughput:", "oracle build:")


@pytest.fixture(scope="module")
def server_url(tmp_path_factory):
    store = JobStore(
        str(tmp_path_factory.mktemp("cli-parity") / "jobs.sqlite3")
    )
    with AsyncMarketplaceServer(
        port=0,
        manager=SessionManager(pool=MarketPool()),
        jobs=JobService(store, shards=2),
    ) as server:
        yield server.url


def _deterministic(text: str) -> str:
    return "\n".join(
        line
        for line in text.splitlines()
        if not line.startswith(_WALL_CLOCK_PREFIXES)
    )


def _digest(text: str) -> str:
    found = re.search(r"\bdigest (\w+)", text)
    assert found, f"no digest line in:\n{text}"
    return found.group(1)


class TestSimulateServerParity:
    def test_64_sessions_identical_digest_and_text(self, server_url, capsys):
        assert main(["simulate", "--sessions", "64", "--seed", "0"]) == 0
        local = capsys.readouterr().out
        assert main(["simulate", "--sessions", "64", "--seed", "0",
                     "--server", server_url]) == 0
        remote = capsys.readouterr().out
        assert _digest(local) == _digest(remote)
        assert _deterministic(local) == _deterministic(remote)

    def test_expect_digest_guard_works_remotely(self, server_url, capsys):
        assert main(["simulate", "--sessions", "64", "--seed", "0"]) == 0
        digest = _digest(capsys.readouterr().out)
        assert main(["simulate", "--sessions", "64", "--seed", "0",
                     "--server", server_url,
                     "--expect-digest", digest]) == 0
        capsys.readouterr()
        assert main(["simulate", "--sessions", "64", "--seed", "0",
                     "--server", server_url,
                     "--expect-digest", "0" * 16]) == 1


class TestBargainServerParity:
    def test_bargain_output_byte_identical(self, server_url, capsys):
        argv = ["bargain", "--dataset", "synthetic", "--runs", "2",
                "--seed", "1"]
        assert main(argv) == 0
        local = capsys.readouterr().out
        assert main(argv + ["--server", server_url]) == 0
        remote = capsys.readouterr().out
        assert _deterministic(local) == _deterministic(remote)


class TestJobsServerMode:
    def test_jobs_run_and_status_against_server(self, server_url, capsys):
        assert main(["jobs", "run", "--sessions", "40", "--seed", "3",
                     "--server", server_url]) == 0
        out = capsys.readouterr().out
        job_id = re.search(r"submitted job (\w+)", out).group(1)
        assert "done" in out
        digest = _digest(out)

        assert main(["jobs", "status", job_id, "--server", server_url]) == 0
        status_out = capsys.readouterr().out
        assert job_id in status_out and digest in status_out

        assert main(["jobs", "list", "--server", server_url]) == 0
        assert job_id in capsys.readouterr().out

        # resume of a finished job is a clean no-op
        assert main(["jobs", "resume", job_id, "--server", server_url]) == 0
