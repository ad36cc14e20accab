"""``sharded-job``: a durable secure simulation job over two worker shards.

Closed loop, one caller.  Each iteration submits the pinned job — the
in-repo ``adult`` dataset, ``secure=True`` at the default 256-bit key,
~90% strategic/strategic plus ``increase_price``/``strategic`` and
``strategic``/``random_bundle`` baselines — to a fresh ``JobStore`` and
runs it with ``ShardedExecutor(shards=2)`` over more chunks than shards.
Set-up warms the on-disk GainCache from a separate process, and the
parent drops its in-memory market and population before every job, so
each forked worker pays the warm world rebuild a fresh worker pays.

The job is pinned whole, so ``--seed`` does not change its inputs:
every input of a job derives from its spec seed, which also picks the
oracle's catalogue, and that moves job cost by up to 3x between seeds.
"""

from __future__ import annotations

import os
import time

from perfbench.harness import Context, Measured, cold_starts

SHARDS = 2
#: More chunks than shards, so the executor balances as chunks finish.
CHUNKS = 12
SESSIONS = 1500
SPEC_SEED = 0
#: Cold oracle builds per run (``setup_s`` is their median); three, not
#: the harness's five, because each takes ~3 s.
COLD_BUILDS = 3
STRATEGY_MIX = (
    ("strategic", "strategic", 0.9),
    ("increase_price", "strategic", 0.05),
    ("strategic", "random_bundle", 0.05),
)


def job_spec(cache_dir: str, sessions: int = SESSIONS):
    from repro.service.specs import SimulationSpec

    return SimulationSpec(
        sessions=sessions, dataset="adult", seed=SPEC_SEED, secure=True,
        cache_dir=cache_dir, strategy_mix=STRATEGY_MIX,
    )


def reference(spec) -> str:
    """The single-process ``run_simulation`` report digest of ``spec``."""
    from repro.service.simulation import run_simulation

    return run_simulation(spec)[2].digest()


def cold_start(workdir: str) -> None:
    """Cold oracle build, filling the GainCache under ``workdir``."""
    from repro.service.manager import MarketPool
    from repro.service.simulation import backing_market_spec

    spec = job_spec(os.path.join(workdir, "oracle-cache"), sessions=1)
    MarketPool().get(backing_market_spec(spec))


def _forget_world() -> None:
    """Drop the parent's built market and memoised population, so the
    workers forked for the next job rebuild from the warm cache."""
    import repro.jobs.executor as executor
    from repro.service.manager import shared_pool

    shared_pool().clear()
    executor._POPULATION_MEMO = None


class TracedChunk:
    """Chunk runner for traced phases: runs in a forked worker, opens the
    chunk span under the parent's ``jobs.executor.run`` span, and writes
    the worker's spans to the trace directory after every chunk."""

    def __init__(self, runner, trace_dir: str):
        self.runner = runner
        self.trace_dir = trace_dir
        self.parent = None

    def __call__(self, spec: dict, start: int, stop: int) -> dict:
        from repro import obs

        from perfbench.tracing import active_sink

        sink = active_sink()
        token = obs.attach(self.parent)
        try:
            with obs.span("jobs.executor.chunk", tracer=sink):
                return self.runner(spec, start, stop)
        finally:
            obs.detach(token)
            sink.flush(self.trace_dir)


class ShardedJob:
    name = "sharded-job"

    def __init__(self) -> None:
        self.digests: list[str] = []
        self._iteration = 0

    def setup(self, ctx: Context) -> list[float]:
        # A fresh cache directory each time, so every build is cold; the
        # jobs then read the last one warm.
        workdirs = [ctx.path(f"cold-{attempt}") for attempt in range(COLD_BUILDS)]
        boots = cold_starts(ctx, workdirs)
        self.spec = job_spec(os.path.join(workdirs[-1], "oracle-cache"),
                             sessions=ctx.size("sessions", SESSIONS))
        return boots

    def measure(self, ctx: Context, seconds: float) -> Measured:
        import repro.jobs.executor as executor

        out = Measured()
        traced = None
        if ctx.sink is not None:
            traced = TracedChunk(executor.run_simulation_chunk, ctx.path("trace"))
            executor.CHUNK_RUNNERS["simulation"] = traced
        t_start = time.perf_counter()
        try:
            while time.perf_counter() - t_start < seconds or not out.run_s:
                self._job(ctx, out, traced)
        finally:
            executor.CHUNK_RUNNERS["simulation"] = executor.run_simulation_chunk
        out.elapsed = time.perf_counter() - t_start
        return out

    def _job(self, ctx: Context, out: Measured, traced) -> None:
        from repro import obs
        from repro.jobs import JobStore, ShardedExecutor

        store = JobStore(ctx.path(f"jobs-{self._iteration}.sqlite3"))
        self._iteration += 1
        _forget_world()
        # The two workers run on every core; probe each before and after.
        speed, cores = out.speed, sorted(os.sched_getaffinity(0))
        speed.probe(cores)
        t0, spent0 = time.perf_counter(), speed.spent
        try:
            with ctx.span("bench.job"):
                sharded = ShardedExecutor(store, shards=SHARDS)
                t_open = time.perf_counter()
                with ctx.span("jobs.executor.submit"):
                    record = sharded.submit(self.spec, chunks=CHUNKS)
                out.since(out.open_s, t_open, spent0)
                with ctx.span("jobs.executor.run"):
                    if traced is not None:
                        traced.parent = obs.current()
                    final = sharded.run(record.job_id)
        except Exception as exc:
            ctx.ledger.fail("measure", repr(exc))
            return
        out.since(out.run_s, t0, spent0)
        out.unit(t0, spent0, self.spec.sessions)
        t1 = time.perf_counter()
        speed.probe(cores)
        if final.status != "done":
            ctx.ledger.fail("measure", f"job ended {final.status}: {final.error}")
            return
        ctx.ledger.ok("measure")
        out.sessions += self.spec.sessions
        out.step_s.extend((t0, t1, float(chunk["elapsed"]))
                          for chunk in store.chunk_results(final.job_id).values())
        self.digests.append(final.digest)

    def gate(self, ctx: Context) -> None:
        """Every merged digest == the single-process ``run_simulation``
        digest of the same spec."""
        _forget_world()
        expected = reference(self.spec)
        for digest in self.digests:
            ctx.ledger.check("gate", digest == expected,
                             f"merged digest {digest} != single-process "
                             f"{expected}")
        if not self.digests:
            ctx.ledger.fail("gate", "no job completed")

    def close(self) -> None:
        pass
