"""Zero-overhead-when-disabled metrics, span tracing, and timeline export.

The evaluation of Section 6 needs quantities the algorithm does not
return: per-pass costs of truediff's four passes, share/equivalence
statistics, node reuse, patch edit mixes, and per-stratum costs of the
incremental engine.  This subsystem makes them first-class:

* :mod:`repro.observability.metrics` — counters, gauges, monotonic-timer
  histograms (p50/p95/max), and the process-wide
  :class:`~repro.observability.metrics.MetricsRegistry` with
  :func:`enable`/:func:`disable`/:func:`snapshot`/:func:`merge`/:func:`reset`;
* :mod:`repro.observability.spans` — ``with span("repro.diff.assign_shares")``
  context managers feeding histograms and (when tracing is on) the
  causal trace buffer, with typed attributes and outcome recording;
* :mod:`repro.observability.tracing` — trace contexts (trace/span/parent
  ids over :mod:`contextvars`), wall-clock epoch timestamps, head
  sampling (``OBS_SAMPLE=1/N``), and cross-process propagation
  (:func:`current_context` / :class:`remote_context`);
* :mod:`repro.observability.aggregate` — the worker-pool glue: obs
  envelopes, fork-safe worker setup, per-worker telemetry deltas with
  JSONL spill, and the driver-side :class:`TelemetryCollector`;
* :mod:`repro.observability.export` — Chrome trace-event JSON, OTLP-shaped
  JSON, and plain-text timeline rendering of collected spans, plus the
  Prometheus text and human-readable renderings of registry snapshots.

Instrumented call sites live in :mod:`repro.core.diff`,
:mod:`repro.core.flatdiff`, :mod:`repro.core.mtree`,
:mod:`repro.incremental.engine`, :mod:`repro.incremental.driver`, and
:mod:`repro.batch.worker`; metric names follow
``repro.<module>.<metric>`` (span histograms end in ``.ms``, span error
counters in ``.errors``).

The disabled path costs nothing measurable: hot sites guard on the
slotted module-level :data:`OBS` flag (one attribute load, no dict
allocation per call), and instrumentation aggregates per diff / patch /
stratum — never per node.  Typical usage::

    from repro import observability as obs

    obs.enable_tracing(sample="1/8")
    diff(a, b)
    obs.write_trace("trace.json", obs.take_spans(), fmt="chrome")
    obs.disable(); obs.reset()
"""

from .aggregate import (
    TelemetryCollector,
    read_spill_dir,
    worker_setup,
    worker_telemetry,
)
from .export import (
    chrome_trace,
    otlp_spans,
    prometheus_text,
    read_spans,
    render_report,
    render_timeline,
    write_trace,
)
from .metrics import (
    OBS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    disable,
    enable,
    enabled,
    merge,
    metrics,
    reset,
    snapshot,
)
from .spans import NOOP_SPAN, Span, span
from .tracing import (
    TRACE,
    TraceContext,
    current_context,
    disable_tracing,
    enable_tracing,
    parse_sample,
    remote_context,
    reset_tracing,
    span_count,
    take_spans,
    tracing_enabled,
)

__all__ = [
    "OBS",
    "REGISTRY",
    "TRACE",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NOOP_SPAN",
    "Span",
    "TelemetryCollector",
    "TraceContext",
    "chrome_trace",
    "current_context",
    "disable",
    "disable_tracing",
    "enable",
    "enable_tracing",
    "enabled",
    "merge",
    "metrics",
    "otlp_spans",
    "parse_sample",
    "prometheus_text",
    "read_spans",
    "read_spill_dir",
    "remote_context",
    "render_report",
    "render_timeline",
    "reset",
    "reset_tracing",
    "snapshot",
    "span",
    "span_count",
    "take_spans",
    "tracing_enabled",
    "worker_setup",
    "worker_telemetry",
    "write_trace",
]
