"""``population``: in-process ``run_simulation`` on the synthetic preset.

Closed loop, one caller.  Each iteration simulates a fresh population
(seed derived from ``--seed``) of strategic/strategic sessions with a
``none``/``linear``/``exponential`` cost mix, so every session takes the
vectorised kernel.  The catalogue is pinned (the synthetic market at
seed 0, passed as ``market_spec``): the catalogue sets how many rounds
sessions play, and letting it vary with the seed would swing
throughput by ~1.5x between seeds.
"""

from __future__ import annotations

import time

from perfbench.harness import SETUP_RUNS, Context, Measured, cold_starts, derive_seed
from perfbench.tracing import Patches

MARKET = {"dataset": "synthetic", "seed": 0}
COST_MIX = (("none", 0.0, 1.0), ("linear", 0.001, 1.0),
            ("exponential", 1.001, 1.0))
#: Ten full kernel batches per simulation, so every batch is alike.
SESSIONS = 5120
BATCH_SIZE = 512
#: The gate's second batch size (digests must not depend on it).
GATE_BATCH_SIZE = 1024


def simulation_spec(seed: int, sessions: int, batch_size: int = BATCH_SIZE):
    from repro.service.specs import SimulationSpec

    return SimulationSpec(
        sessions=sessions, dataset="synthetic", preset="synthetic", seed=seed,
        batch_size=batch_size, cost_mix=COST_MIX,
    )


def reference(pool, market, spec) -> str:
    """The report digest of ``spec`` simulated in-process."""
    from repro.service.simulation import run_simulation

    return run_simulation(spec, pool=pool, market_spec=market)[2].digest()


def cold_start(workdir: str) -> None:
    """What a fresh process pays before its first simulated session."""
    from repro.service.manager import MarketPool
    from repro.service.simulation import run_simulation
    from repro.service.specs import MarketSpec

    run_simulation(simulation_spec(0, 64), pool=MarketPool(),
                   market_spec=MarketSpec(**MARKET))


class Population:
    name = "population"

    def __init__(self) -> None:
        self.first: tuple | None = None  # (spec, digest) of iteration 0
        self._iteration = 0

    def setup(self, ctx: Context) -> list[float]:
        from repro.service.manager import MarketPool
        from repro.service.specs import MarketSpec

        boots = cold_starts(ctx, [ctx.workdir] * SETUP_RUNS)
        self.pool = MarketPool()
        self.market = MarketSpec(**MARKET)
        cold_start(ctx.workdir)  # warm this process's imports and caches
        return boots

    def _run(self, spec):
        from repro.service.simulation import run_simulation

        return run_simulation(spec, pool=self.pool, market_spec=self.market)

    def measure(self, ctx: Context, seconds: float) -> Measured:
        import repro.simulate.pool as pool
        import repro.simulate.population as population

        out = Measured()
        speed = out.speed
        sessions = ctx.size("sessions", SESSIONS)
        patches = Patches()
        if ctx.sink is None:
            patches.timer(population, "sample_population", out.open_s, speed)
            patches.timer(pool, "simulate_strategic_batch", out.step_s, speed)
        t_start = time.perf_counter()
        try:
            while time.perf_counter() - t_start < seconds or not out.run_s:
                spec = simulation_spec(
                    derive_seed(ctx.seed, "population", self._iteration),
                    sessions)
                self._iteration += 1
                speed.tick()
                t0, spent0 = time.perf_counter(), speed.spent
                try:
                    with ctx.span("service.simulation.run"):
                        _, result, report = self._run(spec)
                except Exception as exc:
                    ctx.ledger.fail("measure", repr(exc))
                    continue
                out.since(out.run_s, t0, spent0)
                out.unit(t0, spent0, sessions)
                out.sessions += sessions
                ctx.ledger.check(
                    "measure", result.stepped_sessions == 0,
                    f"{result.stepped_sessions} sessions left the kernel",
                )
                if self.first is None:
                    self.first = (spec, report.digest())
        finally:
            patches.restore()
        out.elapsed = time.perf_counter() - t_start
        return out

    def gate(self, ctx: Context) -> None:
        """The first population's report digest is unchanged at a
        second batch size."""
        from dataclasses import replace

        if self.first is None:
            ctx.ledger.fail("gate", "no simulation completed")
            return
        spec, digest = self.first
        expected = reference(self.pool, self.market,
                             replace(spec, batch_size=GATE_BATCH_SIZE))
        ctx.ledger.check(
            "gate", expected == digest,
            f"digest {expected} at batch_size={GATE_BATCH_SIZE} != "
            f"{digest} at batch_size={spec.batch_size}",
        )

    def close(self) -> None:
        pass
