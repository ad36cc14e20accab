"""Thread-safe, zero-dependency metrics registry.

Three instrument kinds — :class:`Counter`, :class:`Gauge`,
:class:`Histogram` (fixed bucket bounds) — grouped into labeled
families under one process-global :data:`REGISTRY`.  Two export forms:
:meth:`MetricsRegistry.snapshot` (plain dict, keys sorted, byte-stable
for a given state) and :meth:`MetricsRegistry.render_prometheus`
(text exposition format, served by ``GET /v1/metrics``).

Design constraints, in order:

* **Hot-path cost**: recording is a dict update under one lock — no
  allocation beyond the label-key tuple, no string formatting.  The
  instrumented session hot path must stay within 5% of the bare one
  (asserted in ``benchmarks/bench_service_sessions.py``).
* **Digest neutrality**: nothing here reads a wall clock or feeds
  digested material; values only leave through the two export forms.
* **Determinism of exports**: family names, label names and label
  values are sorted on every export, so identical counter states
  render byte-identically regardless of recording order.
"""

from __future__ import annotations

import threading
import time as _time
from contextlib import contextmanager
from typing import Iterator, Mapping

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
]

#: Latency buckets (seconds) shared by the request / settle / chunk
#: histograms: sub-millisecond cache hits up to multi-second sweeps.
DEFAULT_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    # Integral values render without a trailing ".0" so counters look
    # like counters; everything else uses repr for round-trip fidelity.
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Family:
    """Shared plumbing: label validation, series storage, rendering."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: tuple[str, ...],
        lock: threading.Lock,
        enabled: "MetricsRegistry",
    ) -> None:
        self.name = name
        self.help = help_text
        self.labelnames = labelnames
        self._lock = lock
        self._registry = enabled
        self._series: dict[tuple[str, ...], object] = {}

    def _key(self, labels: Mapping[str, object]) -> tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name} expects labels {sorted(self.labelnames)}, "
                f"got {sorted(labels)}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    # -- export -------------------------------------------------------
    def _series_sorted(self) -> list[tuple[tuple[str, ...], object]]:
        return sorted(self._series.items())

    def _label_suffix(self, key: tuple[str, ...], extra: str = "") -> str:
        parts = [
            f'{name}="{_escape_label(value)}"'
            for name, value in zip(self.labelnames, key)
        ]
        if extra:
            parts.append(extra)
        return "{" + ",".join(parts) + "}" if parts else ""

    def snapshot(self) -> dict[str, object]:
        series: dict[str, object] = {}
        for key, value in self._series_sorted():
            label = ",".join(
                f"{name}={val}" for name, val in zip(self.labelnames, key)
            )
            series[label] = self._snapshot_value(value)
        return {
            "kind": self.kind,
            "help": self.help,
            "labels": list(self.labelnames),
            "series": series,
        }

    def _snapshot_value(self, value: object) -> object:
        return value

    def render(self) -> list[str]:
        lines = [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for key, value in self._series_sorted():
            lines.extend(self._render_series(key, value))
        return lines

    def _render_series(self, key: tuple[str, ...], value: object) -> list[str]:
        assert isinstance(value, float)
        return [f"{self.name}{self._label_suffix(key)} {_format_value(value)}"]


class Counter(_Family):
    """A monotonically increasing sum."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if not self._registry.enabled:
            return
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        key = self._key(labels)
        with self._lock:
            current = self._series.get(key, 0.0)
            assert isinstance(current, float) or current == 0.0
            self._series[key] = float(current) + amount

    def value(self, **labels: object) -> float:
        with self._lock:
            raw = self._series.get(self._key(labels), 0.0)
        assert isinstance(raw, (int, float))
        return float(raw)


class Gauge(_Family):
    """A value that can go up and down (occupancy, queue depth)."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        if not self._registry.enabled:
            return
        key = self._key(labels)
        with self._lock:
            self._series[key] = float(value)

    def add(self, delta: float, **labels: object) -> None:
        if not self._registry.enabled:
            return
        key = self._key(labels)
        with self._lock:
            current = self._series.get(key, 0.0)
            assert isinstance(current, (int, float))
            self._series[key] = float(current) + delta

    def value(self, **labels: object) -> float:
        with self._lock:
            raw = self._series.get(self._key(labels), 0.0)
        assert isinstance(raw, (int, float))
        return float(raw)


class _HistogramSeries:
    __slots__ = ("buckets", "total", "count")

    def __init__(self, n_buckets: int) -> None:
        self.buckets = [0] * n_buckets  # non-cumulative; summed on export
        self.total = 0.0
        self.count = 0


class Histogram(_Family):
    """Distribution over fixed bucket bounds (plus an implicit +Inf)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: tuple[str, ...],
        lock: threading.Lock,
        enabled: "MetricsRegistry",
        buckets: tuple[float, ...],
    ) -> None:
        super().__init__(name, help_text, labelnames, lock, enabled)
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"histogram {name} needs sorted, non-empty buckets")
        self.buckets = tuple(float(b) for b in buckets)

    def observe(self, value: float, **labels: object) -> None:
        if not self._registry.enabled:
            return
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = _HistogramSeries(len(self.buckets) + 1)
                self._series[key] = series
            assert isinstance(series, _HistogramSeries)
            index = len(self.buckets)
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    index = i
                    break
            series.buckets[index] += 1
            series.total += value
            series.count += 1

    @contextmanager
    def time(self, **labels: object) -> Iterator[None]:
        """Observe the elapsed monotonic time of the ``with`` body."""
        t0 = _time.perf_counter()
        try:
            yield
        finally:
            self.observe(_time.perf_counter() - t0, **labels)

    def count(self, **labels: object) -> int:
        with self._lock:
            series = self._series.get(self._key(labels))
            if series is None:
                return 0
            assert isinstance(series, _HistogramSeries)
            return series.count

    def _snapshot_value(self, value: object) -> object:
        assert isinstance(value, _HistogramSeries)
        cumulative: list[int] = []
        running = 0
        for raw in value.buckets:
            running += raw
            cumulative.append(running)
        return {
            "buckets": [
                [bound, count]
                for bound, count in zip(list(self.buckets) + ["+Inf"], cumulative)
            ],
            "sum": value.total,
            "count": value.count,
        }

    def _render_series(self, key: tuple[str, ...], value: object) -> list[str]:
        assert isinstance(value, _HistogramSeries)
        lines: list[str] = []
        running = 0
        bounds = [_format_value(b) for b in self.buckets] + ["+Inf"]
        for bound, raw in zip(bounds, value.buckets):
            running += raw
            suffix = self._label_suffix(key, f'le="{bound}"')
            lines.append(f"{self.name}_bucket{suffix} {running}")
        plain = self._label_suffix(key)
        lines.append(f"{self.name}_sum{plain} {_format_value(value.total)}")
        lines.append(f"{self.name}_count{plain} {value.count}")
        return lines


class MetricsRegistry:
    """Process-global family store with byte-stable exports."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}
        self._enabled = True

    # -- toggling (benchmarks measure the delta) ----------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    def set_enabled(self, flag: bool) -> None:
        self._enabled = bool(flag)

    # -- family constructors (get-or-create, kind-checked) ------------
    def _family(self, cls: type, name: str, **kwargs: object) -> _Family:
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise ValueError(
                        f"metric {name} already registered as {existing.kind}"
                    )
                return existing
            family = cls(name=name, lock=threading.Lock(), enabled=self, **kwargs)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help_text: str = "", labelnames: tuple[str, ...] = ()
    ) -> Counter:
        family = self._family(
            Counter, name, help_text=help_text, labelnames=tuple(labelnames)
        )
        assert isinstance(family, Counter)
        return family

    def gauge(
        self, name: str, help_text: str = "", labelnames: tuple[str, ...] = ()
    ) -> Gauge:
        family = self._family(
            Gauge, name, help_text=help_text, labelnames=tuple(labelnames)
        )
        assert isinstance(family, Gauge)
        return family

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        family = self._family(
            Histogram,
            name,
            help_text=help_text,
            labelnames=tuple(labelnames),
            buckets=tuple(buckets),
        )
        assert isinstance(family, Histogram)
        return family

    # -- exports ------------------------------------------------------
    def snapshot(self) -> dict[str, object]:
        """Plain-dict export, sorted at every level (byte-stable)."""
        with self._lock:
            families = sorted(self._families.items())
        return {name: family.snapshot() for name, family in families}

    def render_prometheus(self) -> str:
        """Prometheus text exposition (version 0.0.4)."""
        with self._lock:
            families = sorted(self._families.items())
        lines: list[str] = []
        for _, family in families:
            lines.extend(family.render())
        return "\n".join(lines) + "\n" if lines else ""


#: The process-global registry every instrumented module records into.
REGISTRY = MetricsRegistry()
