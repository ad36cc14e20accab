"""``serve-step``: per-round ``/step`` calls over HTTP to the asyncio server.

Closed loop, one keep-alive ``MarketplaceClient.connect`` client against
an ``AsyncMarketplaceServer`` child process, on the pinned synthetic
market.  The client opens perfect-information strategic sessions; three
of every four are stepped one round per call until done (the inline
path), the fourth runs to termination in one ``until_done`` call (the
executor-offload path); then it closes the session.  Session seeds
derive from ``--seed``.

The server and the client share one core.  A call then hands the core
from one process to the other instead of waking an idle core, whose
wake-up latency on a VM swings with the host's load; and the client's
speed probes see the same core the server runs on.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import time

from perfbench.harness import (
    BENCH_DIR,
    SETUP_RUNS,
    Context,
    Measured,
    ROOT,
    Speed,
    child_env,
    derive_seed,
    scaled_call,
    stop_child,
)

#: The pinned market: a catalogue-only synthetic market (instant build).
MARKET = {"dataset": "synthetic", "seed": 0}
#: Sessions per unit of work: three stepped, one ``until_done``.
BLOCK = 4
#: Sessions replayed in-process by the correctness gate.
GATE_SAMPLE = 120
_RETRY_FAMILY = "repro_client_retry_attempts_total"


def _retries() -> int:
    from repro import obs

    family = obs.REGISTRY.snapshot().get(_RETRY_FAMILY, {})
    return int(sum(family.get("series", {}).values()))


def _core() -> int:
    """The core the server and the client share (the last one allowed;
    the first tends to take more interrupts)."""
    return max(os.sched_getaffinity(0))


def reference(manager, spec) -> tuple[dict, int]:
    """``(outcome, rounds)`` of ``spec`` run through ``manager`` in-process,
    as the wire would deliver the outcome."""
    session = manager.open_session(spec)
    local = manager.run(session)
    manager.close(session)
    return json.loads(json.dumps(local["outcome"])), local["round"]


class _Server:
    """One server child plus the pinned market built on it."""

    def __init__(self, ctx: Context, *, traced: bool):
        from repro.client import MarketplaceClient
        from repro.service.specs import MarketSpec

        args = [sys.executable, f"{BENCH_DIR}/server_child.py",
                "--cpu", str(_core())]
        if traced:
            args += ["--trace-dir", ctx.path("trace")]
        self.proc = subprocess.Popen(
            args, env=child_env(ctx.workdir), cwd=ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        try:
            line = self.proc.stdout.readline()
            if not line.strip().isdigit():
                raise RuntimeError(f"server child did not start: {line!r}")
            self.url = f"http://127.0.0.1:{int(line)}"
            with MarketplaceClient.connect(self.url) as client:
                self.market = client.build_market(MarketSpec(**MARKET))["market"]
        except BaseException:
            stop_child(self.proc)
            raise

    def stop(self) -> None:
        stop_child(self.proc)


class ServeStep:
    name = "serve-step"

    def __init__(self) -> None:
        self.servers: list[_Server] = []
        #: session index -> (spec dict, wire outcome, rounds)
        self.outcomes: dict[int, tuple[dict, dict, int]] = {}
        self._index = itertools.count()
        self._mask: set[int] | None = None

    def setup(self, ctx: Context) -> list[float]:
        """Pin this process to the shared core, then boot servers (server
        start + market build each); keep the last one, plus the one
        before it, untraced, for ``--trace 1``."""
        self._mask = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {_core()})
        speed, boots = Speed(), []
        for attempt in range(SETUP_RUNS):
            traced = ctx.trace and attempt == SETUP_RUNS - 1
            boots.append(scaled_call(speed, lambda: self.servers.append(
                _Server(ctx, traced=traced))))
        for server in self.servers[:-2 if ctx.trace else -1]:
            server.stop()
        ctx.ledger.ok("setup", SETUP_RUNS)
        return boots

    def measure(self, ctx: Context, seconds: float) -> Measured:
        from repro.client import MarketplaceClient

        server = self.servers[-1] if ctx.sink is not None or not ctx.trace \
            else self.servers[-2]
        out = Measured()
        speed = out.speed
        retries0 = _retries()
        t_start = time.perf_counter()
        with MarketplaceClient.connect(server.url) as client:
            while time.perf_counter() - t_start < seconds or not out.units:
                speed.tick()
                t0, spent0 = time.perf_counter(), speed.spent
                done = sum(
                    self._session(ctx, client, server.market,
                                  next(self._index), out)
                    for _ in range(BLOCK)
                )
                out.sessions += done
                if done == BLOCK:
                    out.unit(t0, spent0, BLOCK)
        out.elapsed = time.perf_counter() - t_start
        out.retries = _retries() - retries0
        ctx.ledger.retried("measure", out.retries)
        if ctx.sink is not None:
            server.stop()  # drains, then writes the server's spans
        return out

    def _session(self, ctx: Context, client, market: str, index: int,
                 out: Measured) -> bool:
        from repro.service.specs import SessionSpec

        spec = SessionSpec(market=market, seed=derive_seed(ctx.seed, index))
        ledger = ctx.ledger
        spent = out.speed.spent  # no probe runs inside a block
        try:
            t0 = time.perf_counter()
            with ctx.span("client.http.open"):
                reply = client.open_session(spec)
            out.since(out.open_s, t0, spent)
            session = reply["session"]
            if index % BLOCK == BLOCK - 1:
                t0 = time.perf_counter()
                with ctx.span("client.http.run"):
                    reply = client.run_session(session)
                out.since(out.run_s, t0, spent)
                ledger.ok("measure", 2)
            else:
                ledger.ok("measure")
                while not reply["done"]:
                    t0 = time.perf_counter()
                    with ctx.span("client.http.step"):
                        reply = client.step(session)
                    out.since(out.step_s, t0, spent)
                    ledger.ok("measure")
            with ctx.span("client.http.close"):
                client.close_session(session)
            ledger.ok("measure")
        except Exception as exc:  # a failed call fails the session
            ledger.fail("measure", f"session {index}: {exc!r}")
            return False
        self.outcomes[index] = (spec, reply["outcome"], reply["round"])
        return True

    def gate(self, ctx: Context) -> None:
        """Wire outcomes == the same specs stepped through an in-process
        ``SessionManager``."""
        from dataclasses import replace

        from repro.service.manager import MarketPool, SessionManager
        from repro.service.specs import MarketSpec

        manager = SessionManager(pool=MarketPool())
        market = MarketSpec(**MARKET)
        done = sorted(self.outcomes)
        step = max(1, len(done) // GATE_SAMPLE)
        for index in done[::step]:
            spec, wire, rounds = self.outcomes[index]
            expected = reference(manager, replace(spec, market=market))
            ctx.ledger.check(
                "gate", (wire, rounds) == expected,
                f"session {index}: wire {(wire, rounds)} != in-process "
                f"{expected}",
            )

    def close(self) -> None:
        for server in self.servers:
            server.stop()
        if self._mask is not None:
            os.sched_setaffinity(0, self._mask)
