"""Run one benchmark workload and print its metrics.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with no benchmark spans
installed.  ``--trace 1`` measures half the time untraced and half with
a span around every layer boundary, folds the spans into per-layer self
times and counts, and reports the per-layer metrics, the tracing
overhead and the unattributed share.  Every run checks the program's
outputs against a reference computed at run time.

Output: a ``report`` JSON line (stamp, per-phase ledger, layer table)
and, last, the result line ``{"correct", "attempted", "failed",
"metrics"}``.  Exits 2 without a result when ``src/repro`` is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
import traceback

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(_ROOT, "src"), _ROOT]

from perfbench.harness import (  # noqa: E402
    WORK_ROOT,
    Context,
    child_env,
    make_workdir,
    median,
    percentile,
    result_line,
    stamp,
)
from perfbench.imperfect_bargain import ImperfectBargain  # noqa: E402
from perfbench.population import Population  # noqa: E402
from perfbench.serve_step import ServeStep  # noqa: E402
from perfbench.sharded_job import ShardedJob  # noqa: E402

WORKLOADS = {w.name: w for w in (ServeStep, Population, ShardedJob,
                                 ImperfectBargain)}


def end_to_end(setup: list[float], m) -> dict[str, tuple[float, str]]:
    """Whole-run medians and p95 of the timings at the nominal host
    speed (see :class:`perfbench.harness.Speed`)."""
    steps = m.scaled(m.step_s)
    return {
        "setup_s": (median(setup), "s"),
        "sessions_per_s": (m.sessions_per_s, "1/s"),
        "open_p50_us": (median(m.scaled(m.open_s)) * 1e6, "us"),
        "step_p50_us": (median(steps) * 1e6, "us"),
        "step_p95_us": (percentile(steps, 95) * 1e6, "us"),
        "run_p50_ms": (median(m.scaled(m.run_s)) * 1e3, "ms"),
    }


def unscaled(m) -> dict[str, float]:
    """The same medians as measured, for the report."""
    return {
        "open_p50_us": median([d for *_, d in m.open_s]) * 1e6,
        "step_p50_us": median([d for *_, d in m.step_s]) * 1e6,
        "run_p50_ms": median([d for *_, d in m.run_s]) * 1e3,
        "host_scale": m.host_scale,
        "probes": len(m.speed.took),
    }


def traced_phase(workload, ctx: Context):
    """Measure with every layer wrapped in a span; returns the result."""
    from perfbench.tracing import Patches, SpanSink, install_layers

    sink, patches = SpanSink(), Patches()
    install_layers(patches, sink)
    ctx.sink = sink
    try:
        return workload.measure(ctx, ctx.seconds / 2)
    finally:
        ctx.sink = None
        patches.restore()
        sink.flush(ctx.path("trace"))


def execute(workload, ctx: Context) -> tuple[dict, dict]:
    """Set up, measure, gate; returns ``(metrics, report)``."""
    from perfbench.metrics import per_layer
    from perfbench.tracing import Fold, load_spans

    setup = workload.setup(ctx)
    report: dict = {"workload": ctx.workload, "stamp": stamp(ctx.seed),
                    "setup_s": setup}
    if not ctx.trace:
        measured = workload.measure(ctx, ctx.seconds)
        workload.gate(ctx)
        metrics = end_to_end(setup, measured)
        report["samples"] = {"open": len(measured.open_s),
                             "step": len(measured.step_s),
                             "run": len(measured.run_s),
                             "units": len(measured.units),
                             "sessions": measured.sessions}
        report["unscaled"] = unscaled(measured)
    else:
        os.makedirs(ctx.path("trace"))
        base = workload.measure(ctx, ctx.seconds / 2)
        traced = traced_phase(workload, ctx)
        workload.gate(ctx)
        fold = Fold(load_spans(ctx.path("trace")))
        table = fold.layer_table(traced.elapsed)
        unattributed = (table["unattributed"]["share"]
                        + table.get("bench", {}).get("share", 0.0))
        overhead = (base.sessions_per_s / traced.sessions_per_s
                    if traced.sessions_per_s else 0.0)
        metrics = per_layer(fold, retries=base.retries + traced.retries,
                            overhead_ratio=overhead,
                            unattributed_share=unattributed)
        report["layers"] = table
        report["spans"] = len(fold.spans)
    report["phases"] = ctx.ledger.as_dict()
    return metrics, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = os.path.join(_ROOT, "src")
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {src}: {exc}",
              file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"perfbench: the program imported from {repro.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    workdir = make_workdir(args.workload)
    os.environ.update(child_env(workdir))
    ctx = Context(args.workload, args.seed, args.seconds, bool(args.trace),
                  workdir)
    workload = WORKLOADS[args.workload]()
    try:
        metrics, report = execute(workload, ctx)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            os.rmdir(WORK_ROOT)
    print(json.dumps({"report": report}, sort_keys=True))
    print(result_line(ctx, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
