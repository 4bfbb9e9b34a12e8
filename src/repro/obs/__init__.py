"""Structured observability: spans, metrics and exporters (``repro.obs``).

The runtime's own execution -- the predictor, the discrete-event
replay, the shared-memory pool, the prediction cache -- reports through
this package the same way the paper accounts for the machine: nested
timed spans (wall + CPU, per process/thread) and a registry of named
counters, gauges and histograms.  See ``docs/OBSERVABILITY.md`` for the
span model, the metric-name inventory and the exporter formats.

Quick use::

    from repro import obs

    obs.enable()
    with obs.span("sweep", qubits=24):
        run()
    obs.write_chrome_trace("trace.json")   # open in ui.perfetto.dev
    print(obs.summary())

Disabled (the default), :func:`span` costs one flag test and returns a
shared no-op -- hot paths stay at tier-1 speed.  Metrics are always on:
error-path counters (``repro_swallowed_errors_total`` and friends)
count even when tracing is off.
"""

from __future__ import annotations

from repro.obs.core import (
    DEFAULT_MAX_SPANS,
    OBS_ENV,
    Counter,
    Gauge,
    Histogram,
    SpanRecord,
    counter,
    disable,
    enable,
    env_enabled,
    export_state,
    gauge,
    histogram,
    is_enabled,
    log,
    merge_state,
    metrics,
    reset,
    span,
    spans,
    swallowed,
)
from repro.obs.export import (
    chrome_trace,
    prometheus_text,
    summary,
    validate_chrome_trace,
    write_chrome_trace,
)

__all__ = [
    "DEFAULT_MAX_SPANS",
    "OBS_ENV",
    "Counter",
    "Gauge",
    "Histogram",
    "SpanRecord",
    "chrome_trace",
    "counter",
    "disable",
    "enable",
    "env_enabled",
    "export_state",
    "gauge",
    "histogram",
    "is_enabled",
    "merge_state",
    "metrics",
    "prometheus_text",
    "reset",
    "span",
    "spans",
    "summary",
    "swallowed",
    "validate_chrome_trace",
    "write_chrome_trace",
]
