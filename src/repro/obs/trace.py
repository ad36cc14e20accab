"""Cross-host request tracing: span context, propagation, NDJSON export.

A trace is a tree of spans sharing one ``trace_id``.  The root span is
opened at the client SDK (or a CLI entry point); its context crosses
process boundaries inside a W3C-style ``traceparent`` header
(``00-<trace_id>-<span_id>-01``), which the server parses back into
a remote parent before dispatching — so a fleet worker's
``fleet-chunk:`` span and the coordinator's handling of its completion
report stitch into **one** trace.

In-process propagation uses a :mod:`contextvars` variable, which
follows the execution context across threads started per-request and
is explicitly re-attached inside executor-pool callables (the asyncio
server's worker offload).  Finished spans land in a bounded in-memory
ring (served paginated by ``GET /v1/traces``) and, when a sink is
configured (``--trace`` on the CLI), are appended to an NDJSON file.

Digest neutrality: span ids come from ``os.urandom`` and start
timestamps from :func:`repro.obs.clock.wall_now`; neither may reach
digested material — spans only leave through the ring, the sink and
the traces route.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar, Token
from dataclasses import dataclass
from time import perf_counter
from typing import Iterator

from repro.obs.clock import wall_now

__all__ = [
    "Span",
    "SpanContext",
    "TRACEPARENT_HEADER",
    "TRACER",
    "Tracer",
    "attach",
    "current",
    "detach",
    "from_traceparent",
    "span",
    "to_traceparent",
]

TRACEPARENT_HEADER = "traceparent"


@dataclass(frozen=True)
class SpanContext:
    """The propagated identity of one span: ``(trace_id, span_id)``."""

    trace_id: str
    span_id: str


_CURRENT: ContextVar[SpanContext | None] = ContextVar(
    "repro_obs_current_span", default=None
)


def _new_trace_id() -> str:
    return os.urandom(16).hex()


def _new_span_id() -> str:
    return os.urandom(8).hex()


def current() -> SpanContext | None:
    """The active span context in this execution context, if any."""
    return _CURRENT.get()


def attach(ctx: SpanContext | None) -> Token:
    """Install ``ctx`` as the current span context (remote parents).

    Returns a token for :func:`detach`.  Servers call this with the
    context parsed from an incoming ``traceparent`` header so the
    dispatch span parents correctly across the process boundary.
    """
    return _CURRENT.set(ctx)


def detach(token: Token) -> None:
    _CURRENT.reset(token)


def to_traceparent(ctx: SpanContext) -> str:
    """Serialise a context to a ``traceparent`` header value."""
    return f"00-{ctx.trace_id}-{ctx.span_id}-01"


def from_traceparent(value: str | None) -> SpanContext | None:
    """Parse a ``traceparent`` header; malformed input returns ``None``."""
    if not value:
        return None
    parts = value.strip().split("-")
    if len(parts) != 4:
        return None
    _, trace_id, span_id, _ = parts
    if len(trace_id) != 32 or len(span_id) != 16:
        return None
    try:
        int(trace_id, 16)
        int(span_id, 16)
    except ValueError:
        return None
    return SpanContext(trace_id=trace_id, span_id=span_id)


class Span:
    """One in-flight span; finished records are plain dicts in the ring."""

    __slots__ = ("context", "name", "attrs", "parent_id", "_start_wall", "_t0")

    def __init__(self, name: str, context: SpanContext, parent_id: str | None):
        self.name = name
        self.context = context
        self.parent_id = parent_id
        self.attrs: dict[str, object] = {}
        self._start_wall = wall_now()
        self._t0 = perf_counter()

    def set(self, **attrs: object) -> None:
        """Attach key/value annotations to the span record."""
        self.attrs.update(attrs)

    def finish(self) -> dict[str, object]:
        return {
            "name": self.name,
            "trace_id": self.context.trace_id,
            "span_id": self.context.span_id,
            "parent_id": self.parent_id,
            "start": self._start_wall,
            "duration": perf_counter() - self._t0,
            "attrs": dict(self.attrs),
        }


class Tracer:
    """Bounded ring of finished spans plus an optional NDJSON file sink."""

    def __init__(self, capacity: int = 4096) -> None:
        self._lock = threading.Lock()
        self._ring: deque[dict[str, object]] = deque(maxlen=capacity)
        self._seq = 0
        self._sink: str | None = None

    # -- recording ----------------------------------------------------
    def record(self, record: dict[str, object]) -> None:
        with self._lock:
            self._seq += 1
            record["seq"] = self._seq
            self._ring.append(record)
            sink = self._sink
        if sink is not None:
            line = json.dumps(record, sort_keys=True)
            with self._lock:
                with open(sink, "a", encoding="utf-8") as fh:
                    fh.write(line + "\n")

    # -- export -------------------------------------------------------
    def spans(self, offset: int = 0, limit: int | None = None) -> list[dict[str, object]]:
        """Finished spans with ``seq > offset``, oldest first.

        ``seq`` is a monotonically increasing record number, so clients
        page with ``offset=<last seen seq>`` and never see duplicates
        even while the ring evicts old records.
        """
        with self._lock:
            records = [r for r in self._ring if int(str(r["seq"])) > offset]
        if limit is not None:
            records = records[: max(0, limit)]
        return records

    def last_seq(self) -> int:
        with self._lock:
            return self._seq

    # -- sink ---------------------------------------------------------
    def set_sink(self, path: str | None) -> None:
        """Append every future span record to ``path`` as NDJSON."""
        with self._lock:
            self._sink = path


#: The process-global tracer every span records into.
TRACER = Tracer()


@contextmanager
def span(
    name: str, *, tracer: Tracer = TRACER, **attrs: object
) -> Iterator[Span]:
    """Open a child span of the current context (or a new root).

    The span becomes the current context for the ``with`` body, is
    restored on exit, and its finished record lands in ``tracer``.
    """
    parent = _CURRENT.get()
    context = SpanContext(
        trace_id=parent.trace_id if parent else _new_trace_id(),
        span_id=_new_span_id(),
    )
    active = Span(name, context, parent.span_id if parent else None)
    active.attrs.update(attrs)
    token = _CURRENT.set(context)
    try:
        yield active
    finally:
        _CURRENT.reset(token)
        tracer.record(active.finish())
