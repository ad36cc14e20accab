"""Oracle construction throughput: factory vs the seed serial build.

The claim under test: building a real-dataset ΔG oracle through the
oracle factory (shared incremental binning + the fused course kernel +
``jobs`` workers) is **>= 3x faster** end-to-end than the seed serial
path (:meth:`PerformanceOracle.build_serial_reference`: one
from-scratch federated course per ``(bundle, repeat)``), while
producing **bit-identical gains** — and that a warm-cache rebuild runs
**zero** VFL courses.

Writes ``benchmarks/results/oracle_build.json`` (and ``.csv``) so CI
can upload the perf trajectory as a machine-readable artifact.
"""

import json
import os
import time

from conftest import run_once

from repro.data.synthetic import load_dataset
from repro.experiments import write_csv
from repro.market.bundle import sample_bundles
from repro.market.oracle import PerformanceOracle
from repro.oracle_factory import GainCache, build_oracle
from repro.utils.rng import spawn

# Adult has the widest joint feature space (~88 encoded columns), which
# is the representative hard case for pre-bargaining sweeps: per-course
# cost is dominated by per-node histogram work, exactly what shared
# binning + the subset-feature kernel attack.
DATASET = "adult"
N_ROWS = 2500
SPEEDUP_FLOOR = 3.0
JOBS = min(4, os.cpu_count() or 1)


def test_oracle_build_speedup(benchmark, results_dir, tmp_path):
    full = os.environ.get("REPRO_FULL", "0") == "1"
    n_bundles = 24 if full else 16

    dataset = load_dataset(DATASET, seed=0).prepare(seed=0, n_subsample=N_ROWS)
    catalogue = sample_bundles(
        dataset.d_data, n_bundles, rng=spawn(0, DATASET, "bundles")
    )
    assert len(catalogue) >= 15
    params = {"n_estimators": 15, "max_depth": 8}
    cache = GainCache(str(tmp_path / "oracle-cache"))

    # Warm numpy/process state on a tiny build so neither timed run
    # pays first-touch costs.
    build_oracle(dataset, catalogue[:2], model_params=params, seed=99, jobs=1)

    # With one worker everything runs in-process, so CPU time is the
    # honest compute measure and is less exposed to co-tenant load on
    # shared machines; with real parallelism the wall clock is the
    # claim, and multi-core boxes clear the floor through the workers.
    clock = time.process_time if JOBS == 1 else time.perf_counter
    # Each round times a (reference, factory) pair back to back and the
    # asserted speedup is the *median of per-pair ratios*: background
    # load is roughly constant within a pair (so it cancels from the
    # ratio), and the median discards a round that straddled a load
    # shift.  Every factory run is a complete cold build (fresh cache
    # dir) including its cache writes.
    reference = None
    oracle = report = None
    reference_times: list[float] = []
    factory_times: list[float] = []
    for round_no in range(3):
        t0 = clock()
        reference = PerformanceOracle.build_serial_reference(
            dataset, catalogue, model_params=params, seed=0
        )
        reference_times.append(clock() - t0)
        t0 = clock()
        if round_no == 0:
            oracle, report = run_once(
                benchmark,
                build_oracle,
                dataset,
                catalogue,
                model_params=params,
                seed=0,
                jobs=JOBS,
                cache=cache,
            )
        else:
            build_oracle(
                dataset,
                catalogue,
                model_params=params,
                seed=0,
                jobs=JOBS,
                cache=GainCache(str(tmp_path / f"oracle-cache-{round_no}")),
            )
        factory_times.append(clock() - t0)
    ratios = sorted(r / f for r, f in zip(reference_times, factory_times))
    speedup = ratios[len(ratios) // 2]
    reference_elapsed = min(reference_times)
    factory_elapsed = min(factory_times)

    # Warm-cache rebuild: every course answered from disk.
    warm_oracle, warm_report = build_oracle(
        dataset, catalogue, model_params=params, seed=0, jobs=JOBS, cache=cache
    )

    print()
    print(f"seed serial build: {len(catalogue)} bundles, "
          f"rounds {[round(t, 2) for t in reference_times]} (s)")
    print(f"oracle factory   : {report.summary()}")
    print(f"oracle factory   : rounds {[round(t, 2) for t in factory_times]} (s)")
    print(f"per-round ratios : {[round(r, 2) for r in ratios]} -> median")
    print(f"warm cache       : {warm_report.summary()}")
    print(f"speedup          : {speedup:.2f}x (floor {SPEEDUP_FLOOR:.0f}x)")

    payload = {
        "dataset": DATASET,
        "n_rows": N_ROWS,
        "n_bundles": len(catalogue),
        "reference_seconds": reference_elapsed,
        "factory_seconds_best": factory_elapsed,
        "factory": report.to_dict(),
        "warm": warm_report.to_dict(),
        "speedup": speedup,
        "speedup_floor": SPEEDUP_FLOOR,
    }
    with open(os.path.join(results_dir, "oracle_build.json"), "w",
              encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
    write_csv(
        os.path.join(results_dir, "oracle_build.csv"),
        ["n_bundles", "reference_seconds", "factory_seconds",
         "warm_seconds", "speedup"],
        [[len(catalogue)], [reference_elapsed], [factory_elapsed],
         [warm_report.elapsed], [speedup]],
    )

    # The factory must reproduce the seed path bit for bit...
    assert oracle.gains() == reference.gains()
    assert oracle.isolated == reference.isolated
    # ...a warm rebuild must do zero platform work...
    assert warm_report.courses_run == 0
    assert warm_oracle.gains() == reference.gains()
    # ...and the cold build must beat the seed path by the
    # architectural margin, not a rounding one.
    assert speedup >= SPEEDUP_FLOOR
