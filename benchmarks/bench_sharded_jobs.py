"""Sharded jobs throughput: ShardedExecutor vs single-process SessionPool.

The claim under test: fanning one simulation job across 4 worker-process
shards through the jobs subsystem is **>= 2x** the throughput of the
single-process :class:`~repro.simulate.pool.SessionPool` path — while
producing a **bit-identical** report digest (the correctness half is
asserted unconditionally).

The workload is all stepwise: every session faces the ``random_bundle``
data party, which the vectorised kernel does not implement, so each one
runs the pure-Python round loop that dominates real mixed-strategy
sweeps and parallelises across processes.  520 sessions keep the
single-process run at least as long as the benchmark's earlier
400-session ``increase_price``/``strategic`` mix, which now runs on the
kernel.  The speedup floor is asserted only when the machine has
enough cores to make it physically possible (>= 4 for the 2x floor; a
relaxed 1.3x floor on 2-3 cores; printed-but-unasserted on 1 core —
CI's ``jobs`` job runs on multi-core runners and enforces the 2x).

Writes ``benchmarks/results/sharded_jobs.json`` (and ``.csv``) for the
CI artifact.  ``REPRO_FULL=1`` quadruples the population.
"""

import json
import os
import time

from conftest import run_once

from repro.experiments import write_csv
from repro.jobs import JobStore, ShardedExecutor
from repro.service import SimulationSpec, run_simulation

SHARDS = 4
CHUNKS = 8
SEED = 0


def _spec() -> SimulationSpec:
    full = os.environ.get("REPRO_FULL", "0") == "1"
    return SimulationSpec(
        sessions=2080 if full else 520,
        seed=SEED,
        batch_size=64,
        strategy_mix=(
            ("increase_price", "random_bundle", 0.7),
            ("strategic", "random_bundle", 0.3),
        ),
    )


def _speedup_floor(cores: int) -> float | None:
    if cores >= 4:
        return 2.0
    if cores >= 2:
        return 1.3
    return None  # parallel speedup is physically impossible on 1 core


def _run_sharded(spec, store_path):
    store = JobStore(store_path)
    executor = ShardedExecutor(store, shards=SHARDS)
    record = executor.submit(spec, chunks=CHUNKS)
    return executor.run(record.job_id)


def test_sharded_jobs_throughput(benchmark, results_dir, tmp_path):
    spec = _spec()
    cores = os.cpu_count() or 1

    t0 = time.perf_counter()
    _, _, single_report = run_simulation(spec)
    single_elapsed = time.perf_counter() - t0

    t0 = time.perf_counter()
    record = run_once(
        benchmark, _run_sharded, spec, str(tmp_path / "bench.sqlite3")
    )
    sharded_elapsed = time.perf_counter() - t0

    speedup = single_elapsed / sharded_elapsed
    floor = _speedup_floor(cores)

    print()
    print(f"single-process SessionPool: {spec.sessions} sessions in "
          f"{single_elapsed:.2f}s ({spec.sessions / single_elapsed:.0f}/s)")
    print(f"ShardedExecutor ({SHARDS} shards, {CHUNKS} chunks): "
          f"{spec.sessions} sessions in {sharded_elapsed:.2f}s "
          f"({spec.sessions / sharded_elapsed:.0f}/s)")
    print(f"speedup: {speedup:.2f}x on {cores} cores "
          f"(floor {'%.1fx' % floor if floor else 'not asserted on 1 core'})")

    payload = {
        "sessions": spec.sessions,
        "shards": SHARDS,
        "chunks": CHUNKS,
        "cores": cores,
        "single_elapsed": single_elapsed,
        "sharded_elapsed": sharded_elapsed,
        "single_sessions_per_sec": spec.sessions / single_elapsed,
        "sharded_sessions_per_sec": spec.sessions / sharded_elapsed,
        "speedup": speedup,
        "floor": floor,
        "digest": single_report.digest(),
    }
    with open(os.path.join(results_dir, "sharded_jobs.json"), "w",
              encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
    write_csv(
        os.path.join(results_dir, "sharded_jobs.csv"),
        ["sessions", "shards", "cores", "single_sessions_per_sec",
         "sharded_sessions_per_sec", "speedup"],
        [[spec.sessions], [SHARDS], [cores],
         [payload["single_sessions_per_sec"]],
         [payload["sharded_sessions_per_sec"]], [speedup]],
    )

    # Correctness is unconditional: the merged report is bit-identical.
    assert record.finished
    assert record.digest == single_report.digest()
    # Throughput floor where the hardware allows a parallel speedup.
    if floor is not None:
        assert speedup >= floor, (
            f"sharded speedup {speedup:.2f}x below the {floor:.1f}x floor "
            f"on {cores} cores"
        )
