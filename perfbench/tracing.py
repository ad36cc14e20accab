"""Benchmark-owned span capture at layer boundaries, and the fold.

Traced runs wrap the public entry points of each layer (see
:func:`install_layers`) in :func:`repro.obs.span`, recording into a
:class:`SpanSink` instead of the program's bounded 4096-record ring.
The program's own spans (``client:...``, ``dispatch``, ``chunk:...``)
are redirected into the same sink so that parent links stay unbroken.
Each process — the benchmark, the server child, every forked job
worker — appends its spans to ``spans-<pid>.ndjson`` in one trace
directory, and :func:`load_spans` + :class:`Fold` read them back
together: a span's self time is its duration minus the part of its
interval that its children cover, wherever those children ran.
"""

from __future__ import annotations

import functools
import glob
import json
import os
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable


class SpanSink:
    """Unbounded span collector; duck-types ``Tracer.record``.

    A forked worker inherits the parent's sink with the parent's spans
    in it; the first record in a new process drops that copy.
    """

    def __init__(self) -> None:
        self._pid = os.getpid()
        self.spans: list[list] = []

    def record(self, record: dict) -> None:
        if os.getpid() != self._pid:
            self._pid = os.getpid()
            self.spans = []
        self.spans.append([
            record["name"], record["span_id"], record["parent_id"],
            record["start"], record["duration"], record["attrs"],
        ])

    def flush(self, directory: str) -> None:
        """Append this process's spans to its file and forget them."""
        if os.getpid() != self._pid:
            self._pid, self.spans = os.getpid(), []
        path = os.path.join(directory, f"spans-{os.getpid()}.ndjson")
        with open(path, "a", encoding="utf-8") as fh:
            for entry in self.spans:
                fh.write(json.dumps(entry, default=str) + "\n")
        self.spans = []


# ----------------------------------------------------------------------
# Patching layer entry points
# ----------------------------------------------------------------------
class Patches:
    """Reversible attribute patches (spans or plain timers)."""

    def __init__(self) -> None:
        self._undo: list[Callable[[], None]] = []

    def replace(self, owner: object, attr: str, value: object) -> None:
        # An inherited method (or an instance's class method) is undone
        # by deleting the override, not by pinning the inherited value.
        had_own = attr in vars(owner)
        original = vars(owner).get(attr)

        def undo() -> None:
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

        setattr(owner, attr, value)
        self._undo.append(undo)

    def span(self, owner: object, attr: str, name: str, sink: SpanSink,
             annotate: Callable | None = None,
             before: Callable | None = None) -> None:
        """Wrap ``owner.attr`` in a span named ``name``.

        ``before(args, kwargs)`` runs first; ``annotate(result, args,
        kwargs, state)`` returns attributes to set on the span.
        """
        from repro import obs

        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with obs.span(name, tracer=sink) as active:
                state = before(args, kwargs) if before is not None else None
                result = original(*args, **kwargs)
                if annotate is not None:
                    active.attrs.update(annotate(result, args, kwargs, state))
                return result

        self.replace(owner, attr, traced)

    def timer(self, owner: object, attr: str,
              samples: list[tuple[float, float, float]], speed) -> None:
        """Append each call's ``(start, end, seconds)`` to ``samples``,
        then give ``speed`` (a :class:`perfbench.harness.Speed`) its
        chance to probe, outside the timed call.

        Used in untraced runs where an end-to-end metric is an inner
        call's latency; two ``perf_counter`` reads per call.
        """
        from time import perf_counter

        original = getattr(owner, attr)

        @functools.wraps(original)
        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                now = perf_counter()
                samples.append((t0, now, now - t0))
                speed.tick()

        self.replace(owner, attr, timed)

    def capture_program_spans(self, sink: SpanSink) -> None:
        """Send the program's own spans to ``sink`` instead of its ring."""
        from repro import obs

        self.replace(obs.TRACER, "record", sink.record)

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


def _route(args, kwargs) -> dict:
    """Classify a ``dispatch(ctx, method, path, body=...)`` call."""
    method, path = args[1], args[2]
    body = kwargs.get("body") or {}
    if path.endswith("/step"):
        route = "run" if body.get("until_done") else "step"
    elif method == "POST" and path == "/v1/sessions":
        route = "open"
    elif method == "DELETE":
        route = "close"
    else:
        route = "other"
    return {"route": route}


def install_layers(patches: Patches, sink: SpanSink) -> None:
    """Open a span around every layer entry point the benchmark names."""
    import repro.client.local as client_local
    import repro.jobs.executor as executor
    import repro.service.async_server as async_server
    import repro.simulate.pool as pool
    import repro.simulate.population as population
    import repro.simulate.report as report
    from repro.jobs.store import JobStore
    from repro.market.engine import BargainingEngine
    from repro.market.estimation import DataGainEstimator, TaskGainEstimator
    from repro.market.oracle import MemoisedOracle, PerformanceOracle
    from repro.market.strategies.baselines import (
        IncreasePriceTaskParty,
        RandomBundleDataParty,
    )
    from repro.market.strategies.data_party import StrategicDataParty
    from repro.market.strategies.imperfect import (
        ImperfectDataParty,
        ImperfectTaskParty,
    )
    from repro.market.strategies.task_party import StrategicTaskParty
    from repro.security.batch import SecureSettlement
    from repro.service.manager import MarketPool, SessionManager

    patches.capture_program_spans(sink)
    span = functools.partial(patches.span, sink=sink)

    # service.api — both transports resolve ``dispatch`` as a module global.
    span(async_server, "dispatch", "service.api.dispatch",
         before=_route, annotate=lambda r, a, k, route: route)
    span(client_local, "dispatch", "service.api.dispatch",
         before=_route, annotate=lambda r, a, k, route: route)

    # service.manager
    for method in ("open_session", "step", "run", "close"):
        span(SessionManager, method, f"service.manager.{method}")

    # market.engine / market.strategies / market.oracle / market.estimation
    span(BargainingEngine, "step", "market.engine.step")
    for cls, methods in (
        (StrategicTaskParty, ("decide", "observe")),
        (StrategicDataParty, ("respond", "observe")),
        (IncreasePriceTaskParty, ("decide", "observe")),
        (RandomBundleDataParty, ("respond", "observe")),
        (ImperfectTaskParty, ("decide", "observe")),
        (ImperfectDataParty, ("respond", "observe")),
    ):
        for method in methods:
            span(cls, method, f"market.strategies.{cls.__name__}.{method}")
    span(PerformanceOracle, "delta_g", "market.oracle.delta_g")
    span(MemoisedOracle, "delta_g", "market.oracle.memo_delta_g",
         before=lambda a, k: a[0].hit_count,
         annotate=lambda r, a, k, hits: {"hit": a[0].hit_count > hits})
    span(TaskGainEstimator, "observe", "market.estimation.task_observe")
    span(DataGainEstimator, "observe", "market.estimation.data_observe")

    # simulate.*: callers import these names at call time, except the
    # pool, which binds the kernel at import.
    span(population, "sample_population", "simulate.population.sample")
    span(pool, "simulate_strategic_batch", "simulate.kernel.batch",
         annotate=lambda out, a, k, s: {
             "rounds": int(out["n_rounds"].sum()), "sessions": len(a[1]),
         })
    span(pool.SessionPool, "run", "simulate.pool.run")
    span(report, "build_report", "simulate.report.build")

    # oracle_factory (market/oracle build through the pool),
    # security.batch, jobs.*
    span(MarketPool, "get", "oracle_factory.build")
    span(SecureSettlement, "settle", "security.batch.settle",
         annotate=lambda r, a, k, s: {"sessions": len(a[1])})
    span(JobStore, "record_chunk", "jobs.store.record_chunk")
    span(executor, "merge_simulation_chunks", "jobs.executor.merge")
    _ACTIVE[0] = sink


#: The sink :func:`install_layers` last wired up in this process.  Forked
#: job workers inherit it, which is how their chunk wrapper finds the
#: sink the inherited layer wrappers record into.
_ACTIVE: list[SpanSink | None] = [None]


def active_sink() -> SpanSink:
    sink = _ACTIVE[0]
    if sink is None:
        raise RuntimeError("no traced layers installed in this process")
    return sink


# ----------------------------------------------------------------------
# Reading back and folding
# ----------------------------------------------------------------------
@dataclass
class SpanRecord:
    name: str
    id: str
    parent: str | None
    start: float
    duration: float
    attrs: dict
    pid: int
    self_time: float = 0.0
    children: list["SpanRecord"] = field(default_factory=list)

    @property
    def end(self) -> float:
        return self.start + self.duration


def load_spans(directory: str) -> list[SpanRecord]:
    spans = []
    for path in sorted(glob.glob(os.path.join(directory, "spans-*.ndjson"))):
        pid = int(os.path.basename(path)[6:-7])
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                name, sid, parent, start, duration, attrs = json.loads(line)
                spans.append(SpanRecord(name, sid, parent, float(start),
                                        float(duration), attrs, pid))
    return spans


#: Program-owned span names -> the layer they time.  A ``client:`` span's
#: self time is the call as the client saw it minus ``dispatch``: the
#: HTTP client, the wire, and the server's parse/loop/hop/encode (or,
#: in process, the local transport's JSON round trip).
_PROGRAM_LAYERS = (
    ("client:", "transport"),
    ("dispatch", "service.api"),
    ("manager:", "service.manager"),
    ("chunk:", "jobs.executor"),
    ("simulate:", "service.simulation"),
)


def layer_of(name: str) -> str:
    """The layer a span's self time belongs to."""
    for prefix, layer in _PROGRAM_LAYERS:
        if name.startswith(prefix):
            return layer
    parts = name.split(".")
    if parts[0] == "bench":
        return "bench"
    return ".".join(parts[:2])


def _covered(parent: SpanRecord) -> float:
    """Seconds of ``parent``'s interval covered by its children."""
    intervals = sorted(
        (max(c.start, parent.start), min(c.end, parent.end))
        for c in parent.children
    )
    covered, cursor = 0.0, parent.start
    for lo, hi in intervals:
        lo = max(lo, cursor)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


class Fold:
    """Self times and counts over every span of one traced phase."""

    def __init__(self, spans: list[SpanRecord]) -> None:
        self.spans = spans
        by_id = {s.id: s for s in spans}
        self.roots = []
        for s in spans:
            parent = by_id.get(s.parent) if s.parent else None
            if parent is None:
                self.roots.append(s)
            else:
                parent.children.append(s)
        for s in spans:
            s.self_time = max(0.0, s.duration - _covered(s))
        self._by_name: dict[str, list[SpanRecord]] = defaultdict(list)
        for s in spans:
            self._by_name[s.name].append(s)

    def named(self, name: str) -> list[SpanRecord]:
        return self._by_name.get(name, [])

    def matching(self, predicate: Callable[[str], bool]) -> list[SpanRecord]:
        return [s for n, group in self._by_name.items() if predicate(n)
                for s in group]

    def layer_table(self, busy: float) -> dict:
        """Self seconds per layer and their share of ``busy`` seconds.

        ``busy`` is the traced phase's wall time (one caller); whatever
        the root spans do not cover is the
        unattributed remainder (benchmark loop, idle gaps).  Layers that
        run in parallel worker processes can add up to more than the
        wall time they overlap.
        """
        layers: dict[str, float] = defaultdict(float)
        for s in self.spans:
            layers[layer_of(s.name)] += s.self_time
        rooted = sum(r.duration for r in self.roots)
        unattributed = max(0.0, busy - rooted)
        total = sum(layers.values()) + unattributed
        table = {
            layer: {"self_s": round(sec, 6),
                    "share": round(sec / total, 4) if total else 0.0}
            for layer, sec in sorted(layers.items(), key=lambda kv: -kv[1])
        }
        table["unattributed"] = {
            "self_s": round(unattributed, 6),
            "share": round(unattributed / total, 4) if total else 0.0,
        }
        return table
