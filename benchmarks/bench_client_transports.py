"""Client SDK overhead: LocalTransport vs direct calls, HTTP round trips.

The claim under test: the typed client is free where it should be free
— driving the marketplace through
``MarketplaceClient.local()`` costs **<= 5%** over calling
:class:`~repro.service.manager.SessionManager` directly (the facade
adds one route match and one JSON round-trip per call to work that
runs whole bargaining games) — and the HTTP transport's per-call
round-trip overhead is measured and reported, not guessed.  The
latency of one single-round ``/step`` over HTTP — the call a
round-by-round bargaining party makes every round — is reported as
``http_step_p50_us`` (no floor).

All three paths play the *same* games (identical per-run seed
streams), so the comparison also pins outcome equality across the
direct API, the local transport, and the wire.  Writes
``benchmarks/results/client_transports.json`` (and ``.csv``) for the
CI artifact.
"""

import json
import os
import statistics
import time

from repro.client import MarketplaceClient
from repro.experiments import write_csv
from repro.jobs import JobStore
from repro.service import (
    JobService,
    MarketPool,
    MarketSpec,
    SessionManager,
    SessionSpec,
)
from repro.service.async_server import AsyncMarketplaceServer

N_SESSIONS = 80
SEED = 0
REPEATS = 3
LOCAL_OVERHEAD_CEILING = 0.05  # LocalTransport within 5% of direct calls

SPEC = MarketSpec(dataset="synthetic", seed=SEED)


def _run_direct(manager: SessionManager, n: int):
    outcomes = []
    for run in range(n):
        session_id = manager.open_session(
            SessionSpec(market=SPEC, seed=SEED, run=run)
        )
        summary = manager.run(session_id)
        outcomes.append(summary["outcome"])
        manager.close(session_id)
    return outcomes


def _run_client(client: MarketplaceClient, n: int):
    outcomes = []
    for run in range(n):
        opened = client.open_session(
            SessionSpec(market=SPEC, seed=SEED, run=run)
        )
        state = client.run_session(opened["session"])
        outcomes.append(state["outcome"])
        client.close_session(opened["session"])
    return outcomes


def _step_latencies(client: MarketplaceClient, n: int) -> list[float]:
    """Seconds per single-round ``/step`` call, over ``n`` sessions
    each stepped round by round to termination."""
    took = []
    for run in range(n):
        reply = client.open_session(
            SessionSpec(market=SPEC, seed=SEED, run=run)
        )
        session = reply["session"]
        while not reply["done"]:
            t0 = time.perf_counter()
            reply = client.step(session)
            took.append(time.perf_counter() - t0)
        client.close_session(session)
    return took


def _best_of(fn, repeats: int = REPEATS):
    """(best elapsed, last result) — the min damps scheduler noise."""
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_client_transport_overhead(results_dir, tmp_path):
    # One warm pool per path: the market build must not pollute timing,
    # and identical engines guarantee identical games.
    direct_manager = SessionManager(pool=MarketPool())
    direct_manager.market(SPEC)

    local_manager = SessionManager(pool=MarketPool())
    local_client = MarketplaceClient.local(manager=local_manager)
    local_client.build_market(SPEC)

    server = AsyncMarketplaceServer(
        port=0,
        manager=SessionManager(pool=MarketPool()),
        jobs=JobService(JobStore(str(tmp_path / "jobs.sqlite3"))),
    )
    server.start_background()
    http_client = MarketplaceClient.connect(server.url)
    http_client.build_market(SPEC)

    try:
        direct_elapsed, direct = _best_of(
            lambda: _run_direct(direct_manager, N_SESSIONS)
        )
        local_elapsed, local = _best_of(
            lambda: _run_client(local_client, N_SESSIONS)
        )
        http_elapsed, http = _best_of(
            lambda: _run_client(http_client, N_SESSIONS)
        )
        step_times = _step_latencies(http_client, N_SESSIONS)
    finally:
        http_client.close()
        server.shutdown()

    calls_per_session = 3  # open + run + close
    http_call_overhead = (
        (http_elapsed - direct_elapsed)
        / (N_SESSIONS * calls_per_session)
    )
    local_overhead = local_elapsed / direct_elapsed - 1.0
    http_step_p50_us = 1e6 * statistics.median(step_times)

    print()
    print(f"direct SessionManager : {N_SESSIONS} sessions in "
          f"{direct_elapsed:.3f}s ({N_SESSIONS / direct_elapsed:.0f}/s)")
    print(f"LocalTransport client : {N_SESSIONS} sessions in "
          f"{local_elapsed:.3f}s (overhead {100 * local_overhead:+.1f}%, "
          f"ceiling {100 * LOCAL_OVERHEAD_CEILING:.0f}%)")
    print(f"HttpTransport client  : {N_SESSIONS} sessions in "
          f"{http_elapsed:.3f}s "
          f"(~{1e6 * max(http_call_overhead, 0.0):.0f}us per round trip)")
    print(f"HTTP single-round step: p50 {http_step_p50_us:.0f}us over "
          f"{len(step_times)} calls")

    payload = {
        "n_sessions": N_SESSIONS,
        "repeats": REPEATS,
        "direct_elapsed": direct_elapsed,
        "local_elapsed": local_elapsed,
        "http_elapsed": http_elapsed,
        "local_overhead": local_overhead,
        "local_overhead_ceiling": LOCAL_OVERHEAD_CEILING,
        "http_roundtrip_overhead_us": 1e6 * max(http_call_overhead, 0.0),
        "http_step_calls": len(step_times),
        "http_step_p50_us": http_step_p50_us,
    }
    with open(os.path.join(results_dir, "client_transports.json"), "w",
              encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
    write_csv(
        os.path.join(results_dir, "client_transports.csv"),
        ["n_sessions", "direct_elapsed", "local_elapsed", "http_elapsed",
         "local_overhead"],
        [[N_SESSIONS], [direct_elapsed], [local_elapsed], [http_elapsed],
         [local_overhead]],
    )

    # Every path plays the exact same games, bit for bit on the wire
    # fields (the direct summary and the wire payload share _outcome_dict).
    assert local == http
    for run, outcome in enumerate(direct):
        assert local[run]["status"] == outcome["status"]
        assert local[run]["n_rounds"] == outcome["n_rounds"]
        assert local[run]["payment"] == outcome["payment"]
    # The facade must be free: within the ceiling of direct calls.
    assert local_overhead <= LOCAL_OVERHEAD_CEILING, (
        f"LocalTransport overhead {100 * local_overhead:.1f}% exceeds "
        f"{100 * LOCAL_OVERHEAD_CEILING:.0f}%"
    )
