"""Cross-process span/metric aggregation for the worker pool.

The batch driver (or the daemon) and its :class:`repro.pool.DiffPool`
workers each have a *process-local*
metrics registry and trace buffer (:data:`~repro.observability.metrics.REGISTRY`,
:data:`~repro.observability.tracing.TRACE`).  This module is the glue
that makes them behave like one:

* the driver builds an **obs envelope** (:meth:`TelemetryCollector.envelope`)
  — a small picklable dict carrying the tracing flags, sampling rate,
  the driver's current trace context, and an optional spill directory —
  which rides along with each pool task;
* each worker, via :func:`worker_setup`, resets any state it inherited
  from the driver through ``fork`` (a forked child starts with a *copy*
  of the driver's counters and trace buffer — publishing into that copy
  and shipping it back would double-count everything) and enables
  tracing per the envelope;
* after a task, :func:`worker_telemetry` drains the worker's spans and
  snapshots-then-resets its registry, producing a **delta** — so the
  driver-side merge is a plain sum, task after task;
* the driver absorbs deltas with :meth:`TelemetryCollector.absorb`
  (merging counters/gauges/histograms into its own registry and pooling
  span records), keeping a per-worker breakdown keyed by pid;
* when the envelope names a ``spill_dir``, workers append each task's
  telemetry as a JSON line to ``worker-<pid>.jsonl`` instead of
  returning it — the file survives a worker that is later killed or
  crashes, and :meth:`TelemetryCollector.absorb_spills` folds whatever
  was written back in at the end of the run.

The driver-side invariant (asserted by the tier-1 aggregation tests):
after ``absorb_spills``, each merged counter equals the driver's own
contribution plus the *sum* of the per-worker snapshots — under happy
paths, per-pair timeouts, and broken-pool recovery alike.
"""

from __future__ import annotations

import json
import os
from typing import Any, Optional

from . import tracing as _tracing
from .metrics import OBS, REGISTRY

#: Worker pid that already ran :func:`worker_setup` (fork-inheritance guard).
_WORKER_PID: Optional[int] = None
_SEQ = 0  # per-process telemetry sequence number


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

    Snapshots the registry *with* histogram reservoirs, then resets it,
    so successive tasks from the same worker report disjoint deltas and
    the driver can merge by summing.  In the driver process this returns
    ``None`` and touches nothing — spans and metrics are already where
    they belong.

    With a ``spill_dir`` in the envelope, the telemetry is appended to
    this worker's JSONL spill file and ``None`` is returned: the file is
    the transport, robust to the worker being killed before the task
    result would have been pickled back.
    """
    global _SEQ
    if obs is None or os.getpid() == obs.get("driver_pid"):
        return None
    _SEQ += 1
    telemetry: dict[str, Any] = {
        "pid": os.getpid(),
        "seq": _SEQ,
        "spans": _tracing.take_spans(),
        "metrics": REGISTRY.snapshot(samples=True),
        "dropped_spans": _tracing.TRACE.dropped,
    }
    REGISTRY.reset()
    spill_dir = obs.get("spill_dir")
    if spill_dir:
        path = os.path.join(spill_dir, f"worker-{telemetry['pid']}.jsonl")
        try:
            with open(path, "a", encoding="utf8") as fh:
                fh.write(json.dumps(telemetry) + "\n")
            return None
        except OSError:
            return telemetry  # spill dir gone — fall back to the pickle path
    return telemetry


def read_spill_dir(
    spill_dir: str, stats: Optional[dict[str, int]] = None
) -> list[dict[str, Any]]:
    """Load every telemetry envelope spilled under ``spill_dir``.

    Tolerates a worker killed mid-write: a truncated or otherwise
    unparseable line — including one that decodes as JSON but not as a
    telemetry envelope object — is skipped and *counted*, and every
    intact envelope around it is kept, so one dead worker can never
    abort the whole telemetry merge.  Pass a ``stats`` dict to receive
    the loss accounting: ``skipped_lines`` (undecodable or non-envelope
    lines) and ``skipped_files`` (spill files that vanished mid-read).
    """
    out: list[dict[str, Any]] = []
    if stats is None:
        stats = {}
    stats.setdefault("skipped_lines", 0)
    stats.setdefault("skipped_files", 0)
    try:
        names = sorted(os.listdir(spill_dir))
    except OSError:
        return out
    for fname in names:
        if not (fname.startswith("worker-") and fname.endswith(".jsonl")):
            continue
        try:
            with open(os.path.join(spill_dir, fname), encoding="utf8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        envelope = json.loads(line)
                    except json.JSONDecodeError:
                        stats["skipped_lines"] += 1
                        continue
                    # a line can be valid JSON yet still be a torn write
                    # (e.g. a truncated value that happens to parse);
                    # only envelope-shaped objects are mergeable
                    if not isinstance(envelope, dict):
                        stats["skipped_lines"] += 1
                        continue
                    out.append(envelope)
        except OSError:
            stats["skipped_files"] += 1
            continue
    return out


class TelemetryCollector:
    """Driver-side accumulator for worker telemetry envelopes.

    Collects span records from every process into one pool, merges
    worker metric deltas into the driver registry, and keeps the
    per-worker breakdown (summed per pid) for the batch summary.
    """

    __slots__ = ("trace", "sample_n", "spill_dir", "per_worker", "spans",
                 "dropped_spans", "spill_skipped", "_absorbed",
                 "_spills_read", "_finished")

    def __init__(
        self,
        trace: bool = False,
        sample: "str | int | None" = None,
        spill_dir: Optional[str] = None,
    ) -> None:
        self.trace = trace
        self.sample_n = _tracing.parse_sample(sample)
        self.spill_dir = spill_dir
        #: pid -> merged metrics snapshot for that worker
        self.per_worker: dict[int, dict[str, Any]] = {}
        self.spans: list[dict[str, Any]] = []
        self.dropped_spans = 0
        #: spill lines lost to a worker killed mid-write (skip-and-count)
        self.spill_skipped = 0
        self._absorbed = 0
        self._spills_read = False
        self._finished = False

    def envelope(self) -> dict[str, Any]:
        """The picklable obs envelope shipped with each pool task."""
        return {
            "metrics": OBS.enabled,
            "trace": self.trace and _tracing.TRACE.enabled,
            "sample": self.sample_n,
            "trace_ctx": _tracing.current_context(),
            "spill_dir": self.spill_dir,
            "driver_pid": os.getpid(),
        }

    def absorb(self, telemetry: Optional[dict[str, Any]]) -> None:
        """Fold one worker telemetry envelope into the driver state."""
        if not telemetry or not isinstance(telemetry, dict):
            return
        self._absorbed += 1
        pid = int(telemetry.get("pid") or 0)
        self.spans.extend(telemetry.get("spans") or ())
        self.dropped_spans += int(telemetry.get("dropped_spans") or 0)
        snap = telemetry.get("metrics")
        if snap:
            REGISTRY.merge(snap)
            mine = self.per_worker.get(pid)
            if mine is None:
                self.per_worker[pid] = _copy_snapshot(snap)
            else:
                _sum_snapshot(mine, snap)

    def absorb_spills(self) -> int:
        """Absorb everything workers spilled to disk; returns the number
        of envelopes read.  Idempotent — spill files are read once, at
        end of run (spilling workers return no inline telemetry, so
        there is nothing else to dedup against)."""
        if not self.spill_dir or self._spills_read:
            return 0
        self._spills_read = True
        stats: dict[str, int] = {}
        envelopes = read_spill_dir(self.spill_dir, stats)
        self.spill_skipped += stats["skipped_lines"] + stats["skipped_files"]
        for telemetry in envelopes:
            self.absorb(telemetry)
        return len(envelopes)

    def finish(self) -> list[dict[str, Any]]:
        """Drain the driver's own trace buffer into the pool and return
        every span collected, driver and workers together.  Idempotent."""
        self.absorb_spills()
        if self.trace and not self._finished:
            self.spans.extend(_tracing.take_spans())
            self.dropped_spans += _tracing.TRACE.dropped
        self._finished = True
        return self.spans

    def summary(self) -> dict[str, Any]:
        """Plain-data aggregation summary for the batch report."""
        return {
            "envelopes": self._absorbed,
            "workers": sorted(self.per_worker),
            "spans": len(self.spans),
            "dropped_spans": self.dropped_spans,
            "spill_skipped": self.spill_skipped,
        }


def _copy_snapshot(snap: dict[str, Any]) -> dict[str, Any]:
    return {
        "counters": dict(snap.get("counters", {})),
        "gauges": dict(snap.get("gauges", {})),
        "histograms": {k: dict(v) for k, v in snap.get("histograms", {}).items()},
    }


def _sum_snapshot(into: dict[str, Any], snap: dict[str, Any]) -> None:
    """Accumulate one delta snapshot into a per-worker running total."""
    counters = into.setdefault("counters", {})
    for name, value in snap.get("counters", {}).items():
        counters[name] = counters.get(name, 0) + value
    gauges = into.setdefault("gauges", {})
    gauges.update(snap.get("gauges", {}))
    hists = into.setdefault("histograms", {})
    for name, summ in snap.get("histograms", {}).items():
        mine = hists.get(name)
        if mine is None:
            hists[name] = dict(summ)
            continue
        mine["count"] = mine.get("count", 0) + summ.get("count", 0)
        mine["total"] = mine.get("total", 0.0) + summ.get("total", 0.0)
        mine["max"] = max(mine.get("max", 0.0), summ.get("max", 0.0))
        if "samples" in mine or "samples" in summ:
            merged = list(mine.get("samples") or []) + list(summ.get("samples") or [])
            mine["samples"] = merged
