"""Tiny-scale smoke of every workload, and of every correctness gate.

Not collected by the repository's default ``pytest`` run (the file name
does not match ``test_*.py``); run it explicitly::

    python3 -m pytest perfbench/tests/smoke.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import (  # noqa: E402
    imperfect_bargain,
    population,
    serve_step,
    sharded_job,
)
from perfbench.harness import Context, child_env, make_workdir, result_line  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.run import WORKLOADS, execute  # noqa: E402

#: Input sizes small enough for a smoke run.
TINY = {
    "serve-step": {},
    "population": {"sessions": 400},
    "sharded-job": {"sessions": 240},
    "imperfect-bargain": {},
}


def _run(name: str, trace: bool, monkeypatch) -> tuple[Context, dict]:
    workdir = make_workdir(name)
    for key, value in child_env(workdir).items():
        monkeypatch.setenv(key, value)
    ctx = Context(name, seed=3, seconds=0.4, trace=trace, workdir=workdir,
                  scale=TINY[name])
    workload = WORKLOADS[name]()
    try:
        metrics, _ = execute(workload, ctx)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return ctx, metrics


def test_catalogue_matches_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_emitted_with_its_unit(name, trace, monkeypatch):
    ctx, metrics = _run(name, trace, monkeypatch)
    expected = PER_LAYER if trace else END_TO_END
    assert {k: unit for k, (_, unit) in metrics.items()} == expected
    result = json.loads(result_line(ctx, metrics))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, ctx.ledger.as_dict()
    assert ctx.ledger.phases["gate"].succeeded >= 1
    if not trace:
        assert all(value > 0 for value, _ in metrics.values()), metrics


def _corrupt_outcome(original):
    def corrupted(*args):
        outcome, rounds = original(*args)
        return outcome, rounds + 1
    return corrupted


def _corrupt_digest(original):
    return lambda *args: original(*args) + "-corrupt"


def _corrupt_payment(original):
    return lambda *args: {**original(*args), "payment": -1.0}


@pytest.mark.parametrize("name, module, corrupt", [
    ("serve-step", serve_step, _corrupt_outcome),
    ("population", population, _corrupt_digest),
    ("sharded-job", sharded_job, _corrupt_digest),
    ("imperfect-bargain", imperfect_bargain, _corrupt_payment),
])
def test_corrupted_reference_trips_the_gate(name, module, corrupt, monkeypatch):
    monkeypatch.setattr(module, "reference", corrupt(module.reference))
    ctx, metrics = _run(name, False, monkeypatch)
    assert ctx.ledger.phases["gate"].failed >= 1
    result = json.loads(result_line(ctx, metrics))
    assert result["correct"] is False and result["failed"] >= 1
