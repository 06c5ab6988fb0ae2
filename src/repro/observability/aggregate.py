"""Cross-process span/metric aggregation for the worker pool.

The batch driver (or the daemon) and its :class:`repro.pool.DiffPool`
workers each have a *process-local*
metrics registry and trace buffer (:data:`~repro.observability.metrics.REGISTRY`,
:data:`~repro.observability.tracing.TRACE`).  This module is the glue
that makes them behave like one, with the task result as the only
transport:

* the caller builds an **obs envelope** (:meth:`TelemetryCollector.envelope`)
  — a small picklable dict carrying the tracing flags, sampling rate,
  the caller's current trace context and its pid — which rides along
  with each pool task;
* each worker, via :func:`worker_setup`, resets any state it inherited
  from the caller through ``fork`` (a forked child starts with a *copy*
  of the caller's counters and trace buffer — publishing into that copy
  and shipping it back would double-count everything) and enables
  tracing per the envelope;
* after a task, :func:`worker_telemetry` drains the worker's spans and
  span drops and snapshots-then-resets its registry, producing a
  **delta** that returns inside the task result — so the caller-side
  merge is a plain sum, task after task;
* :meth:`TelemetryCollector.absorb` merges each delta into the caller's
  own registry and trace buffer, so the ``max_spans`` bound and the
  drop count cover worker spans too; callers drain every span, their
  own and their workers', with
  :func:`~repro.observability.tracing.take_spans`.

The invariant (asserted by the tier-1 aggregation tests): each envelope
is merged once, into the registry and the trace buffer — under happy
paths, per-pair timeouts, and broken-pool recovery alike.  A worker
killed mid-task returns no envelope, so nothing of that task is merged.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Optional

from . import tracing as _tracing
from .metrics import OBS, REGISTRY

#: Worker pid that already ran :func:`worker_setup` (fork-inheritance guard).
_WORKER_PID: Optional[int] = None


def worker_setup(obs: Optional[dict[str, Any]]) -> None:
    """Initialize observability in a pool worker, once per process.

    On Linux the default ``fork`` start method hands the worker a copy
    of the driver's registry values, trace buffer, and even its active
    contextvar — all of which must be discarded before the worker
    publishes anything, or the driver's own numbers come back to it and
    get double-counted on merge.  Idempotent per pid; a no-op in the
    driver process itself (a task run in-process publishes directly
    into the driver registry).
    """
    global _WORKER_PID
    if obs is None:
        return
    pid = os.getpid()
    if pid == obs.get("driver_pid") or pid == _WORKER_PID:
        return
    REGISTRY.reset()  # zero the values inherited across the fork
    _tracing.reset_tracing()
    _tracing.take_spans()
    if obs.get("trace"):
        _tracing.enable_tracing(obs.get("sample", 1))
    elif obs.get("metrics"):
        OBS.enabled = True
        _tracing.disable_tracing()
    _WORKER_PID = pid


def worker_telemetry(obs: Optional[dict[str, Any]]) -> Optional[dict[str, Any]]:
    """Drain this worker's spans and metric deltas into an envelope.

    Takes the spans and the drops counted since the last task, and
    snapshots the registry *with* histogram reservoirs, then resets it,
    so successive tasks from the same worker report disjoint deltas and
    the driver can merge by summing.  In the driver process this returns
    ``None`` and touches nothing — spans and metrics are already where
    they belong.
    """
    if obs is None or os.getpid() == obs.get("driver_pid"):
        return None
    spans, dropped = _tracing.TRACE.drain()
    telemetry: dict[str, Any] = {
        "pid": os.getpid(),
        "spans": spans,
        "metrics": REGISTRY.snapshot(samples=True),
        "dropped_spans": dropped,
    }
    REGISTRY.reset()
    return telemetry


class TelemetryCollector:
    """Caller-side half of the protocol: builds the task envelopes and
    absorbs the deltas that come back.

    Absorbed telemetry lands in the caller's own registry and trace
    buffer; the collector itself keeps only the counts of what it
    absorbed, for the batch summary.  :meth:`absorb` runs on whichever
    thread resolved the task — concurrently on the daemon's request
    threads.
    """

    __slots__ = ("trace", "sample_n", "_lock", "_envelopes", "_pids",
                 "_spans", "_dropped")

    def __init__(
        self,
        trace: bool = False,
        sample: "str | int | None" = None,
    ) -> None:
        self.trace = trace
        self.sample_n = _tracing.parse_sample(sample)
        self._lock = threading.Lock()
        self._envelopes = 0
        self._pids: set[int] = set()
        self._spans = 0
        self._dropped = 0

    def envelope(self) -> dict[str, Any]:
        """The picklable obs envelope shipped with each pool task."""
        return {
            "metrics": OBS.enabled,
            "trace": self.trace and _tracing.TRACE.enabled,
            "sample": self.sample_n,
            "trace_ctx": _tracing.current_context(),
            "driver_pid": os.getpid(),
        }

    def absorb(self, telemetry: Optional[dict[str, Any]]) -> None:
        """Merge one worker delta into the caller's registry and trace
        buffer."""
        if not telemetry or not isinstance(telemetry, dict):
            return
        snap = telemetry.get("metrics")
        if snap:
            REGISTRY.merge(snap)
        spans = telemetry.get("spans") or []
        dropped = int(telemetry.get("dropped_spans") or 0)
        kept = _tracing.TRACE.merge(spans, dropped)
        with self._lock:
            self._envelopes += 1
            self._pids.add(int(telemetry.get("pid") or 0))
            self._spans += kept
            self._dropped += dropped + len(spans) - kept

    def summary(self) -> dict[str, Any]:
        """Plain-data aggregation summary for the batch report: the
        envelopes absorbed, the worker pids they came from, and the
        worker spans kept and dropped."""
        with self._lock:
            return {
                "envelopes": self._envelopes,
                "workers": sorted(self._pids),
                "spans": self._spans,
                "dropped_spans": self._dropped,
            }
