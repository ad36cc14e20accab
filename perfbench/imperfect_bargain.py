"""``imperfect-bargain``: imperfect-information sessions, in process.

Closed loop, one in-process ``MarketplaceClient.local()`` client (the
CLI's path) on the pinned synthetic market: open an
imperfect-information session, ``run_session`` it to termination,
close it.  Session seeds derive from ``--seed``.  A round costs ~10 ms,
most of it the §3.5 estimators' training, so transport cost is
negligible here.
"""

from __future__ import annotations

import math
import time

from perfbench.harness import SETUP_RUNS, Context, Measured, cold_starts, derive_seed
from perfbench.tracing import Patches

MARKET = {"dataset": "synthetic", "seed": 0}
#: Sessions replayed directly on a fresh engine by the gate (~1 s each).
GATE_SAMPLE = 2
_COMPARED = ("status", "terminated_by", "n_rounds", "delta_g", "payment",
             "net_profit", "bundle")


def session_spec(market, seed: int, index: int):
    from repro.service.specs import SessionSpec

    return SessionSpec(market=market, information="imperfect",
                       seed=derive_seed(seed, "imperfect", index))


def cold_start(workdir: str) -> None:
    """A fresh process's first imperfect session, up to its first round."""
    from repro.client import MarketplaceClient
    from repro.service.specs import MarketSpec

    with MarketplaceClient.local() as client:
        market = client.build_market(MarketSpec(**MARKET))["market"]
        session = client.open_session(session_spec(market, 0, 0))["session"]
        client.step(session)
        client.close_session(session)


def reference(spec) -> dict:
    """The outcome of ``spec`` played directly on a freshly built engine."""
    from repro.market.market import Market
    from repro.service.specs import MarketSpec

    engine = Market.from_spec(MarketSpec(**MARKET)).build_engine(
        task=spec.task, data=spec.data, information=spec.information,
        seed=spec.engine_seed(),
    )
    outcome = engine.run()
    delta_g = float(outcome.delta_g)
    return {
        "status": outcome.status,
        "terminated_by": outcome.terminated_by,
        "n_rounds": int(outcome.n_rounds),
        "delta_g": None if math.isnan(delta_g) else delta_g,
        "payment": float(outcome.payment),
        "net_profit": float(outcome.net_profit),
        "bundle": list(outcome.bundle.indices) if outcome.bundle else None,
    }


class ImperfectBargain:
    name = "imperfect-bargain"

    def __init__(self) -> None:
        self.outcomes: dict[int, tuple[object, dict]] = {}
        self._index = 0
        self.client = None

    def setup(self, ctx: Context) -> list[float]:
        from repro.client import MarketplaceClient
        from repro.service.specs import MarketSpec

        boots = cold_starts(ctx, [ctx.workdir] * SETUP_RUNS)
        self.client = MarketplaceClient.local()
        self.market = self.client.build_market(MarketSpec(**MARKET))["market"]
        return boots

    def measure(self, ctx: Context, seconds: float) -> Measured:
        from repro.market.engine import BargainingEngine

        out = Measured()
        patches = Patches()
        if ctx.sink is None:
            patches.timer(BargainingEngine, "step", out.step_s, out.speed)
        t_start = time.perf_counter()
        try:
            while time.perf_counter() - t_start < seconds or not out.run_s:
                self._session(ctx, out)
        finally:
            patches.restore()
        out.elapsed = time.perf_counter() - t_start
        return out

    def _session(self, ctx: Context, out: Measured) -> None:
        index = self._index
        self._index += 1
        spec = session_spec(self.market, ctx.seed, index)
        client, speed = self.client, out.speed
        speed.tick()
        started, spent_start = time.perf_counter(), speed.spent
        try:
            with ctx.span("client.local.open"):
                session = client.open_session(spec)["session"]
            out.since(out.open_s, started, spent_start)
            t0, spent0 = time.perf_counter(), speed.spent
            with ctx.span("client.local.run"):
                reply = client.run_session(session)
            out.since(out.run_s, t0, spent0)
            with ctx.span("client.local.close"):
                client.close_session(session)
        except Exception as exc:
            ctx.ledger.fail("measure", f"session {index}: {exc!r}")
            return
        ctx.ledger.ok("measure", 3)
        out.unit(started, spent_start, 1)
        out.sessions += 1
        self.outcomes[index] = (spec, reply["outcome"])

    def gate(self, ctx: Context) -> None:
        """A sample of sessions, replayed directly, match the client's."""
        done = sorted(self.outcomes)
        if not done:
            ctx.ledger.fail("gate", "no session completed")
        for index in done[:: max(1, len(done) // GATE_SAMPLE)][:GATE_SAMPLE]:
            spec, wire = self.outcomes[index]
            expected = reference(spec)
            got = {key: wire[key] for key in _COMPARED}
            ctx.ledger.check("gate", got == expected,
                             f"session {index}: client {got} != direct "
                             f"{expected}")

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
