"""Digest parity for concurrent stepping, manager- and wire-level.

The contract: sessions stepping at the same time against shared
markets cannot see each other.  Driven from many threads at once —
directly on the manager, or over HTTP through the asyncio server —
each session's step-reply trace and final checkpoint digest must be
byte-identical to plain serial stepwise execution.
"""

import json
import threading

import pytest

from repro.service import MarketPool, MarketSpec, SessionManager, SessionSpec
from repro.service.async_server import AsyncMarketplaceServer

MARKET_A = MarketSpec(dataset="synthetic", seed=0)
MARKET_B = MarketSpec(dataset="synthetic", seed=1)

#: Mixed-market workload: two digests interleaved, several runs each.
SESSION_SPECS = [
    SessionSpec(market=market, seed=0, run=run)
    for run in range(3)
    for market in (MARKET_A, MARKET_B)
]


@pytest.fixture(scope="module")
def pool():
    pool = MarketPool()
    pool.get(MARKET_A)
    pool.get(MARKET_B)
    return pool


def _canon(reply: dict) -> str:
    # Session ids are allocation-order bookkeeping (concurrent opens
    # race for them); everything else must match bit-for-bit.
    return json.dumps(
        {k: v for k, v in reply.items() if k != "session"}, sort_keys=True
    )


def _drive_manager(manager, session_id):
    """Step one session to completion; its reply trace + state digest."""
    trace = []
    while True:
        reply = manager.step(session_id)
        trace.append(_canon(reply))
        if reply["done"]:
            break
    return trace, manager.checkpoint(session_id)["digest"]


@pytest.fixture(scope="module")
def baseline(pool):
    """Serial stepwise execution: the reference traces."""
    manager = SessionManager(pool=pool)
    out = []
    for spec in SESSION_SPECS:
        out.append(_drive_manager(manager, manager.open_session(spec)))
    return out


def _parallel_drive(fn, count):
    """Run ``fn(i)`` in ``count`` threads after a common barrier."""
    results: list = [None] * count
    errors: list = []
    barrier = threading.Barrier(count)

    def work(i):
        try:
            barrier.wait(timeout=10.0)
            results[i] = fn(i)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(count)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120.0)
    if errors:
        raise errors[0]
    return results


class TestManagerParity:
    def test_concurrent_mixed_markets_bit_identical(self, pool, baseline):
        manager = SessionManager(pool=pool)
        sids = [manager.open_session(spec) for spec in SESSION_SPECS]
        got = _parallel_drive(
            lambda i: _drive_manager(manager, sids[i]), len(sids)
        )
        assert got == baseline

    def test_threads_interleaving_several_sessions_bit_identical(
        self, pool, baseline
    ):
        """Fewer threads than sessions: each thread round-robins one
        step at a time over its share, so every session's steps
        interleave with its neighbours' on the same thread too."""
        manager = SessionManager(pool=pool)
        sids = [manager.open_session(spec) for spec in SESSION_SPECS]
        threads = 2

        def work(t):
            mine = list(range(t, len(sids), threads))
            traces = {i: [] for i in mine}
            live = list(mine)
            while live:
                for i in list(live):
                    reply = manager.step(sids[i])
                    traces[i].append(_canon(reply))
                    if reply["done"]:
                        live.remove(i)
            return {
                i: (traces[i], manager.checkpoint(sids[i])["digest"])
                for i in mine
            }

        got: dict = {}
        for part in _parallel_drive(work, threads):
            got.update(part)
        assert [got[i] for i in range(len(sids))] == baseline


def _drive_wire(transport, spec_dict):
    """Open/step/checkpoint one session over HTTP; trace + digest."""
    status, opened = transport.request("POST", "/v1/sessions",
                                       body=spec_dict)
    assert status == 201, opened
    sid = opened["session"]
    trace = []
    while True:
        status, reply = transport.request(
            "POST", f"/v1/sessions/{sid}/step"
        )
        assert status == 200, reply
        trace.append(_canon(reply))
        if reply["done"]:
            break
    status, state = transport.request("GET", f"/v1/sessions/{sid}/state")
    assert status == 200, state
    return trace, state["digest"]


def _wire_specs():
    return [
        {
            "market": spec.market.to_dict(),
            "seed": spec.seed,
            "run": spec.run,
        }
        for spec in SESSION_SPECS
    ]


class TestWireParity:
    @pytest.mark.parametrize("workers", [1, 8])
    def test_concurrent_steps_match_serial_baseline(self, pool, baseline,
                                                    workers):
        """The handler pool's width is a throughput knob only."""
        from repro.client import HttpTransport

        specs = _wire_specs()
        with AsyncMarketplaceServer(
            port=0, manager=SessionManager(pool=pool), workers=workers,
            eviction_interval=0,
        ) as server:
            got = _parallel_drive(
                lambda i: _drive_wire(HttpTransport(server.url), specs[i]),
                len(specs),
            )
        assert got == baseline

    def test_concurrent_until_done_reaches_serial_digests(self, pool,
                                                          baseline):
        """``until_done`` steps take the worker pool rather than the
        loop; run concurrently they end in the serial final states."""
        from repro.client import HttpTransport

        def run(i):
            transport = HttpTransport(server.url)
            status, opened = transport.request(
                "POST", "/v1/sessions", body=specs[i]
            )
            assert status == 201, opened
            sid = opened["session"]
            status, reply = transport.request(
                "POST", f"/v1/sessions/{sid}/step",
                body={"until_done": True},
            )
            assert status == 200 and reply["done"], reply
            status, state = transport.request(
                "GET", f"/v1/sessions/{sid}/state"
            )
            assert status == 200, state
            return state["digest"]

        specs = _wire_specs()
        with AsyncMarketplaceServer(
            port=0, manager=SessionManager(pool=pool), eviction_interval=0
        ) as server:
            got = _parallel_drive(run, len(specs))
        assert got == [digest for _, digest in baseline]
