"""Observability core: the span tracer and the metrics registry.

Two tiers with different cost contracts:

* **Metrics** (counters, gauges, histograms) are *always on*.  An
  increment is a dict lookup plus an integer add, so lifecycle and
  error-path accounting (cache hits, swept shm segments, swallowed
  exceptions) never needs a switch -- the silent-failure handlers in
  :mod:`repro.parallel` count unconditionally.
* **Spans** (and any per-step hot-path instrumentation guarded by
  :func:`is_enabled`) are off by default.  :func:`span` returns a shared
  no-op context manager after a single module-level flag test, so the
  tier-1 suite and the committed benchmark sweeps pay only that bool
  check when observability is disabled.

Everything here is picklable plain data: worker processes export their
buffered spans and metric values with :func:`export_state`, ship them
over the pool's existing reply pipe, and the parent folds them in with
:func:`merge_state`.  Span timestamps come from
``time.perf_counter_ns`` (CLOCK_MONOTONIC on Linux, so parent and
worker clocks share an epoch and merged traces interleave correctly).
"""

from __future__ import annotations

import logging
import os
import threading
import time
from dataclasses import dataclass, field

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "SpanRecord",
    "OBS_ENV",
    "counter",
    "gauge",
    "histogram",
    "span",
    "enable",
    "disable",
    "is_enabled",
    "env_enabled",
    "reset",
    "swallowed",
    "spans",
    "metrics",
    "export_state",
    "merge_state",
]

log = logging.getLogger("repro.obs")

#: Environment knob: set to ``1`` to enable span tracing at import time
#: (covers subprocesses that never see an explicit :func:`enable` call).
OBS_ENV = "REPRO_OBS"

#: Span-buffer cap: completed spans beyond this are dropped (and counted
#: in ``repro_obs_spans_dropped_total``) rather than growing unbounded.
DEFAULT_MAX_SPANS = 200_000

#: Default histogram bucket upper bounds (seconds): 1us .. 10s.
DEFAULT_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)


# -- metric primitives ---------------------------------------------------------


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: tuple):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, n: int | float = 1) -> None:
        self.value += n


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, labels: tuple):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """A distribution: count/sum/min/max plus cumulative buckets."""

    __slots__ = ("name", "labels", "count", "sum", "min", "max", "bucket_counts")
    kind = "histogram"
    buckets = DEFAULT_BUCKETS

    def __init__(self, name: str, labels: tuple):
        self.name = name
        self.labels = labels
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None
        self.bucket_counts = [0] * len(self.buckets)

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[i] += 1

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


@dataclass
class SpanRecord:
    """One completed span (plain data, picklable)."""

    name: str
    ts_ns: int  # perf_counter_ns at entry
    dur_ns: int
    cpu_ns: int  # thread CPU time spent inside the span
    pid: int
    tid: int
    depth: int  # nesting depth within its thread (0 = root)
    attrs: dict = field(default_factory=dict)


# -- module state --------------------------------------------------------------


def env_enabled() -> bool:
    """True when ``REPRO_OBS=1``: the enabled state a process starts with."""
    return os.environ.get(OBS_ENV, "") == "1"


class _ObsState:
    def __init__(self) -> None:
        self.enabled = env_enabled()
        self.max_spans = DEFAULT_MAX_SPANS
        self.metrics: dict[tuple, Counter | Gauge | Histogram] = {}
        self.spans: list[SpanRecord] = []
        self.lock = threading.Lock()
        self.stack = threading.local()


_STATE = _ObsState()


def is_enabled() -> bool:
    """True when span tracing (and hot-path metrics) are collecting."""
    return _STATE.enabled


def enable(*, max_spans: int | None = None) -> None:
    """Turn span tracing on (idempotent)."""
    if max_spans is not None:
        _STATE.max_spans = max_spans
    _STATE.enabled = True


def disable() -> None:
    """Turn span tracing off; buffered spans and metrics are retained."""
    _STATE.enabled = False


def reset() -> None:
    """Drop every buffered span and every registered metric (test hook)."""
    with _STATE.lock:
        _STATE.spans.clear()
        _STATE.metrics.clear()


# -- metrics registry ----------------------------------------------------------


def _metric(cls, name: str, labels: dict):
    key = (name, tuple(sorted(labels.items())))
    metric = _STATE.metrics.get(key)
    if metric is None:
        with _STATE.lock:
            metric = _STATE.metrics.get(key)
            if metric is None:
                metric = cls(name, key[1])
                _STATE.metrics[key] = metric
    return metric


def counter(name: str, **labels) -> Counter:
    """The counter registered under ``name`` + ``labels`` (created lazily)."""
    return _metric(Counter, name, labels)


def gauge(name: str, **labels) -> Gauge:
    """The gauge registered under ``name`` + ``labels``."""
    return _metric(Gauge, name, labels)


def histogram(name: str, **labels) -> Histogram:
    """The histogram registered under ``name`` + ``labels``."""
    return _metric(Histogram, name, labels)


def metrics() -> list[Counter | Gauge | Histogram]:
    """Every registered metric, sorted by (name, labels)."""
    with _STATE.lock:
        return [m for _k, m in sorted(_STATE.metrics.items())]


def swallowed(site: str, exc: BaseException) -> None:
    """Account a deliberately swallowed exception.

    Best-effort cleanup paths (barrier aborts, shm unlinks, cache file
    removal) keep their old keep-going semantics but are no longer
    invisible: every occurrence increments
    ``repro_swallowed_errors_total{site=...}`` and emits a DEBUG record.
    """
    counter("repro_swallowed_errors_total", site=site).inc()
    log.debug("swallowed at %s: %s: %s", site, type(exc).__name__, exc)


# -- spans ---------------------------------------------------------------------


class _NoopSpan:
    """The shared disabled-path span: enter/exit do nothing."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NOOP = _NoopSpan()


class _Span:
    __slots__ = ("name", "attrs", "_t0", "_cpu0", "_depth")

    def __init__(self, name: str, attrs: dict):
        self.name = name
        self.attrs = attrs

    def __enter__(self):
        stack = getattr(_STATE.stack, "depth", 0)
        self._depth = stack
        _STATE.stack.depth = stack + 1
        self._cpu0 = time.thread_time_ns()
        self._t0 = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb):
        dur = time.perf_counter_ns() - self._t0
        cpu = time.thread_time_ns() - self._cpu0
        _STATE.stack.depth = self._depth
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        record = SpanRecord(
            name=self.name,
            ts_ns=self._t0,
            dur_ns=dur,
            cpu_ns=cpu,
            pid=os.getpid(),
            tid=threading.get_ident(),
            depth=self._depth,
            attrs=self.attrs,
        )
        state = _STATE
        with state.lock:
            dropped = len(state.spans) >= state.max_spans
            if not dropped:
                state.spans.append(record)
        if dropped:
            # Outside the lock: counter() may need it to register itself.
            counter("repro_obs_spans_dropped_total").inc()
        return False


def span(name: str, **attrs):
    """A context manager timing one named region (no-op when disabled).

    Spans nest: depth is tracked per thread, and the exporter renders
    children inside their parents.  Attributes must be picklable plain
    data (ints, floats, strings).
    """
    if not _STATE.enabled:
        return _NOOP
    return _Span(name, attrs)


def spans() -> list[SpanRecord]:
    """A snapshot of the buffered spans (completion order)."""
    with _STATE.lock:
        return list(_STATE.spans)


# -- cross-process propagation -------------------------------------------------


def export_state(*, clear: bool = False) -> dict:
    """Package buffered spans + metrics for shipping to another process."""
    with _STATE.lock:
        payload = {
            "spans": list(_STATE.spans),
            "metrics": [
                (
                    m.kind,
                    m.name,
                    m.labels,
                    (
                        (m.count, m.sum, m.min, m.max, list(m.bucket_counts))
                        if m.kind == "histogram"
                        else m.value
                    ),
                )
                for m in _STATE.metrics.values()
            ],
        }
        if clear:
            _STATE.spans.clear()
            _STATE.metrics.clear()
    return payload


def merge_state(payload: dict) -> None:
    """Fold a worker's exported state into this process' collector.

    Counters and histograms accumulate; gauges take the incoming value
    (last writer wins).  Spans are appended -- they carry their own
    pid/tid identity, and timestamps share the monotonic epoch, so
    sorting by start time in the exporter restores step order.
    """
    state = _STATE
    with state.lock:
        room = state.max_spans - len(state.spans)
        incoming = payload.get("spans", [])
        state.spans.extend(incoming[: max(0, room)])
        dropped = len(incoming) - max(0, room)
    if dropped > 0:
        counter("repro_obs_spans_dropped_total").inc(dropped)
    for kind, name, labels, data in payload.get("metrics", []):
        labels = dict(labels)
        if kind == "counter":
            counter(name, **labels).inc(data)
        elif kind == "gauge":
            gauge(name, **labels).set(data)
        else:
            h = histogram(name, **labels)
            cnt, total, mn, mx, buckets = data
            h.count += cnt
            h.sum += total
            if mn is not None and (h.min is None or mn < h.min):
                h.min = mn
            if mx is not None and (h.max is None or mx > h.max):
                h.max = mx
            for i, b in enumerate(buckets[: len(h.bucket_counts)]):
                h.bucket_counts[i] += b
