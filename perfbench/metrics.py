"""Metric catalogue and the fold -> per-layer metric derivation.

Every run emits every metric of its mode (``--trace 0``: the end-to-end
set, ``--trace 1``: the per-layer set); a layer a workload never enters
reports 0, which is itself the prediction that the layer does no work
there.  ``README.md`` maps each per-layer metric to the end-to-end
metric it should move.
"""

from __future__ import annotations

from perfbench.harness import median
from perfbench.tracing import Fold

#: name -> unit, in BENCHMARK.json order.
END_TO_END = {
    "setup_s": "s",
    "sessions_per_s": "1/s",
    "open_p50_us": "us",
    "step_p50_us": "us",
    "step_p95_us": "us",
    "run_p50_ms": "ms",
}

PER_LAYER = {
    # serve-step
    "service.async_server.self_us": "us",
    "service.api.dispatch_self_us": "us",
    "service.manager.step_self_us": "us",
    "service.manager.open_session_us": "us",
    "market.engine.step_self_us": "us",
    "market.strategies.task_decide_us": "us",
    "market.strategies.data_respond_us": "us",
    "market.strategies.observe_us": "us",
    "market.oracle.delta_g_us": "us",
    "service.api.calls.open": "count",
    "service.api.calls.step": "count",
    "service.api.calls.run": "count",
    "service.api.calls.close": "count",
    "market.engine.rounds": "count",
    "client.http.retries": "count",
    # population
    "simulate.population.sample_ms": "ms",
    "simulate.kernel.us_per_session_round": "us",
    "simulate.report.build_ms": "ms",
    "simulate.kernel.batches": "count",
    "simulate.kernel.rounds": "count",
    # sharded-job
    "oracle_factory.warm_build_s": "s",
    "simulate.pool.kernel_s": "s",
    "simulate.pool.stepwise_s": "s",
    "market.oracle.memo_hit_ratio": "ratio",
    "security.batch.settle_us_per_session": "us",
    "jobs.store.record_chunk_ms": "ms",
    "jobs.executor.merge_ms": "ms",
    "jobs.executor.chunk_s": "s",
    "jobs.executor.shard_busy_ratio": "ratio",
    # imperfect-bargain
    "market.estimation.task_observe_ms": "ms",
    "market.estimation.data_observe_ms": "ms",
    "market.strategies.imperfect_decide_ms": "ms",
    "market.strategies.imperfect_respond_ms": "ms",
    "market.engine.step_self_ms": "ms",
    # every workload
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_share": "ratio",
}

_STRATEGIC = ("StrategicTaskParty", "StrategicDataParty")


def _self_p50(fold: Fold, name: str, scale: float) -> float:
    return median([s.self_time for s in fold.named(name)]) * scale


def _dur_p50(fold: Fold, name: str, scale: float) -> float:
    return median([s.duration for s in fold.named(name)]) * scale


def _find(span, name: str, depth: int = 4):
    """The first descendant of ``span`` named ``name`` (breadth-first)."""
    frontier = [span]
    for _ in range(depth):
        frontier = [c for s in frontier for c in s.children]
        for child in frontier:
            if child.name == name:
                return child
    return None


def _serve_metrics(fold: Fold) -> dict[str, float]:
    """Per single-round ``/step`` call: client-observed time outside
    dispatch, dispatch's own time, the manager's own time."""
    transport, dispatch_self = [], []
    for call in fold.named("client.http.step"):
        dispatched = _find(call, "service.api.dispatch")
        if dispatched is None:
            continue
        transport.append(call.duration - dispatched.duration)
        # The program's own ``dispatch`` span nests inside ours; both
        # are the api layer.
        dispatch_self.append(dispatched.self_time + sum(
            c.self_time for c in dispatched.children if c.name == "dispatch"
        ))
    routes = [s.attrs.get("route") for s in fold.named("service.api.dispatch")]
    return {
        "service.async_server.self_us": median(transport) * 1e6,
        "service.api.dispatch_self_us": median(dispatch_self) * 1e6,
        "service.api.calls.open": routes.count("open"),
        "service.api.calls.step": routes.count("step"),
        "service.api.calls.run": routes.count("run"),
        "service.api.calls.close": routes.count("close"),
    }


def _engine_metrics(fold: Fold) -> dict[str, float]:
    steps = fold.named("market.engine.step")
    observe = fold.matching(
        lambda n: n.startswith("market.strategies.") and n.endswith(".observe")
        and n.split(".")[2] in _STRATEGIC
    )
    return {
        "service.manager.step_self_us": _self_p50(fold, "service.manager.step", 1e6),
        "service.manager.open_session_us": _dur_p50(
            fold, "service.manager.open_session", 1e6),
        "market.engine.step_self_us": _self_p50(fold, "market.engine.step", 1e6),
        "market.strategies.task_decide_us": _self_p50(
            fold, "market.strategies.StrategicTaskParty.decide", 1e6),
        "market.strategies.data_respond_us": _self_p50(
            fold, "market.strategies.StrategicDataParty.respond", 1e6),
        "market.strategies.observe_us": (
            sum(s.self_time for s in observe) / len(steps) * 1e6
            if steps else 0.0),
        "market.oracle.delta_g_us": _self_p50(fold, "market.oracle.delta_g", 1e6),
        "market.engine.rounds": len(steps),
        "market.engine.step_self_ms": _self_p50(fold, "market.engine.step", 1e3),
        "market.estimation.task_observe_ms": _self_p50(
            fold, "market.estimation.task_observe", 1e3),
        "market.estimation.data_observe_ms": _self_p50(
            fold, "market.estimation.data_observe", 1e3),
        "market.strategies.imperfect_decide_ms": _self_p50(
            fold, "market.strategies.ImperfectTaskParty.decide", 1e3),
        "market.strategies.imperfect_respond_ms": _self_p50(
            fold, "market.strategies.ImperfectDataParty.respond", 1e3),
    }


def _simulate_metrics(fold: Fold) -> dict[str, float]:
    batches = fold.named("simulate.kernel.batch")
    rounds = sum(int(s.attrs.get("rounds", 0)) for s in batches)
    return {
        "simulate.population.sample_ms": _dur_p50(
            fold, "simulate.population.sample", 1e3),
        "simulate.kernel.us_per_session_round": (
            sum(s.self_time for s in batches) / rounds * 1e6 if rounds else 0.0),
        "simulate.report.build_ms": _dur_p50(fold, "simulate.report.build", 1e3),
        "simulate.kernel.batches": len(batches),
        "simulate.kernel.rounds": rounds,
    }


def _job_metrics(fold: Fold, shards: int) -> dict[str, float]:
    runs = fold.named("jobs.executor.run")
    chunks = fold.named("jobs.executor.chunk")
    worker_pids = {s.pid for s in chunks}
    jobs = len(runs)
    pool_kernel = pool_stepwise = 0.0
    for run in fold.named("simulate.pool.run"):
        if run.pid not in worker_pids:
            continue
        inner = sum(c.duration for c in run.children
                    if c.name in ("simulate.kernel.batch", "security.batch.settle"))
        pool_kernel += sum(c.duration for c in run.children
                           if c.name == "simulate.kernel.batch")
        pool_stepwise += run.duration - inner
    memo = fold.named("market.oracle.memo_delta_g")
    settles = fold.named("security.batch.settle")
    settled = sum(int(s.attrs.get("sessions", 0)) for s in settles)
    wall = sum(s.duration for s in runs)
    return {
        "oracle_factory.warm_build_s": median([
            s.duration for s in fold.named("oracle_factory.build")
            if s.pid in worker_pids
        ]),
        "simulate.pool.kernel_s": pool_kernel / jobs if jobs else 0.0,
        "simulate.pool.stepwise_s": pool_stepwise / jobs if jobs else 0.0,
        "market.oracle.memo_hit_ratio": (
            sum(1 for s in memo if s.attrs.get("hit")) / len(memo)
            if memo else 0.0),
        "security.batch.settle_us_per_session": (
            sum(s.duration for s in settles) / settled * 1e6
            if settled else 0.0),
        "jobs.store.record_chunk_ms": _dur_p50(
            fold, "jobs.store.record_chunk", 1e3),
        "jobs.executor.merge_ms": _dur_p50(fold, "jobs.executor.merge", 1e3),
        "jobs.executor.chunk_s": _dur_p50(fold, "jobs.executor.chunk", 1.0),
        "jobs.executor.shard_busy_ratio": (
            sum(s.duration for s in chunks) / (shards * wall) if wall else 0.0),
    }


def per_layer(fold: Fold, *, retries: int, overhead_ratio: float,
              unattributed_share: float, shards: int = 2
              ) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, ``name -> (value, unit)``."""
    values: dict[str, float] = {}
    values.update(_serve_metrics(fold))
    values.update(_engine_metrics(fold))
    values.update(_simulate_metrics(fold))
    values.update(_job_metrics(fold, shards))
    values["client.http.retries"] = retries
    values["trace.overhead_ratio"] = overhead_ratio
    values["trace.unattributed_share"] = unattributed_share
    return {name: (float(values[name]), unit)
            for name, unit in PER_LAYER.items()}
