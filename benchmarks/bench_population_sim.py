"""Population simulator throughput: SessionPool vs a naive run() loop.

The claim under test: advancing N heterogeneous bargaining sessions
through :class:`repro.simulate.SessionPool` (vectorised batch kernel +
memoised platform setup) is **>= 20x faster** than the naive
deployment — building an engine per session and calling
``BargainingEngine.run()`` in a Python loop — on the *same* sampled
population.

Quick mode (default) times the naive loop on a subsample and
extrapolates per-session cost; ``REPRO_FULL=1`` runs the naive loop
over the whole population.  The pool always runs every session.
Writes ``benchmarks/results/population_sim.json`` (and ``.csv``) for
the perf-trajectory artifact (``scripts/bench_trajectory.py``); next to
the ratio it records the pool's absolute cost,
``pool_us_per_session_round`` (pool elapsed over the session-rounds it
played).
"""

import json
import os
import time

import numpy as np
from conftest import run_once

from repro.experiments import write_csv
from repro.simulate import (
    PopulationSpec,
    SessionPool,
    build_report,
    sample_population,
)
from repro.simulate.pool import session_record_arrays

N_SESSIONS = 1000
SPEEDUP_FLOOR = 20.0


def test_population_sim_speedup(benchmark, results_dir):
    full = os.environ.get("REPRO_FULL", "0") == "1"
    n_naive = N_SESSIONS if full else 120

    spec = PopulationSpec(preset="synthetic")
    population = sample_population(spec, N_SESSIONS, seed=0)

    pool = SessionPool(population, batch_size=1024)
    result = run_once(benchmark, pool.run)
    report = build_report(population, result)

    t0 = time.perf_counter()
    naive = [population.build_engine(i).run() for i in range(n_naive)]
    naive_elapsed = time.perf_counter() - t0

    naive_per_session = naive_elapsed / n_naive
    pool_per_session = result.elapsed / N_SESSIONS
    speedup = naive_per_session / pool_per_session
    session_rounds = int(result.n_rounds.sum())
    pool_us_per_session_round = result.elapsed / session_rounds * 1e6

    print()
    print(f"naive loop : {n_naive} sessions in {naive_elapsed:.2f}s "
          f"({1.0 / naive_per_session:.1f} sessions/s)")
    print(f"SessionPool: {N_SESSIONS} sessions in {result.elapsed:.2f}s "
          f"({report.sessions_per_sec:,.0f} sessions/s)")
    print(f"pool rounds: {session_rounds} session-rounds, "
          f"{pool_us_per_session_round:.2f} us per session-round "
          f"({os.cpu_count()} cores)")
    print(f"speedup    : {speedup:.1f}x (floor {SPEEDUP_FLOOR:.0f}x)")
    print()
    print(report.to_text())

    payload = {
        "n_sessions": N_SESSIONS,
        "n_naive": n_naive,
        "naive_sessions_per_sec": 1.0 / naive_per_session,
        "pool_sessions_per_sec": report.sessions_per_sec,
        "session_rounds": session_rounds,
        "pool_us_per_session_round": pool_us_per_session_round,
        "speedup": speedup,
        "floor": SPEEDUP_FLOOR,
    }
    with open(os.path.join(results_dir, "population_sim.json"), "w",
              encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
    write_csv(
        os.path.join(results_dir, "population_sim.csv"),
        ["n_sessions", "naive_sessions_per_sec", "pool_sessions_per_sec", "speedup"],
        [[N_SESSIONS], [1.0 / naive_per_session],
         [report.sessions_per_sec], [speedup]],
    )

    # The pool must replay the naive engines it replaces, bit for bit...
    naive_records = session_record_arrays(n_naive)
    for i, outcome in enumerate(naive):
        SessionPool._record(naive_records, i, outcome)
    for key, values in naive_records.items():
        assert np.array_equal(getattr(result, key)[:n_naive], values,
                              equal_nan=True), key
    # ...and beat them by the architectural margin, not a rounding one.
    assert speedup >= SPEEDUP_FLOOR
