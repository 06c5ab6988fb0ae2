"""Metric instruments and the process-wide registry.

Three instrument kinds, all named by dotted strings following the
``repro.<module>.<metric>`` convention (DESIGN.md "Observability"):

* :class:`Counter` — a monotonically increasing integer (events, edits,
  facts).  Increments are thread-safe: concurrent diffs running under
  ``concurrent.futures`` may publish into the same registry.
* :class:`Gauge` — a last-write-wins float (sizes, rates).
* :class:`Histogram` — a bounded reservoir of float observations with
  exact running ``count``/``total``/``max`` and approximate ``p50``/
  ``p95`` computed from the reservoir at snapshot time.  Span durations
  land here (in milliseconds, suffix ``.ms``); plain histograms may
  record any unit (e.g. ``repro.incremental.delta_size`` counts facts).

The registry is *disabled by default* and the disabled path is designed
to cost nothing: hot call sites guard on the module-level :data:`OBS`
flag object (one slotted attribute load, no dict allocation, no function
call) before touching any instrument.
"""

from __future__ import annotations

import threading
from typing import Any, Optional


class _ObsFlag:
    """The module-level enabled flag, readable with one attribute load.

    Hot paths do ``if OBS.enabled:`` — a slotted attribute access — so
    the disabled cost is a single predictable branch per *aggregate*
    operation (per diff, per patch, per stratum), never per node.
    """

    __slots__ = ("enabled",)

    def __init__(self) -> None:
        self.enabled = False


#: Process-wide enabled flag.  Flip via :func:`enable` / :func:`disable`.
OBS = _ObsFlag()


class Counter:
    """A thread-safe monotonically increasing counter."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._value = 0
        self._lock = lock

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0


class Gauge:
    """A last-write-wins float value."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        self._value = float(value)

    @property
    def value(self) -> float:
        return self._value

    def _reset(self) -> None:
        self._value = 0.0


class Histogram:
    """Float observations with exact count/total/max and reservoir
    percentiles.

    The reservoir is a ring buffer of the most recent
    :data:`MAX_SAMPLES` observations; ``count``/``total``/``max`` are
    maintained exactly regardless of how many samples were dropped.
    """

    MAX_SAMPLES = 8192

    __slots__ = ("name", "_samples", "_next", "_count", "_total", "_max", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._samples: list[float] = []
        self._next = 0  # ring-buffer write position once the cap is hit
        self._count = 0
        self._total = 0.0
        self._max = 0.0
        self._lock = lock

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._total += value
            if value > self._max:
                self._max = value
            if len(self._samples) < self.MAX_SAMPLES:
                self._samples.append(value)
            else:
                self._samples[self._next] = value
                self._next = (self._next + 1) % self.MAX_SAMPLES

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._total

    def quantile(self, q: float) -> float:
        """Approximate quantile from the reservoir (0 when empty)."""
        with self._lock:
            samples = sorted(self._samples)
        if not samples:
            return 0.0
        idx = min(len(samples) - 1, max(0, round(q * (len(samples) - 1))))
        return samples[idx]

    def summary(self, samples: bool = False) -> dict[str, Any]:
        """Plain-data view; ``samples=True`` also includes the reservoir
        (the transferable form — :meth:`merge` on another process's
        histogram can then reconstruct approximate percentiles)."""
        with self._lock:
            ordered = sorted(self._samples)
            count, total, mx = self._count, self._total, self._max
            raw = list(self._samples) if samples else None
        if not ordered:
            # exact aggregates survive even with an empty reservoir (a
            # merge of a sample-less summary still counts); only the
            # percentiles degrade to 0
            out: dict[str, Any] = {
                "count": count, "total": total, "p50": 0.0, "p95": 0.0, "max": mx
            }
            if samples:
                out["samples"] = []
            return out

        def q(p: float) -> float:
            return ordered[min(len(ordered) - 1, max(0, round(p * (len(ordered) - 1))))]

        out = {
            "count": count,
            "total": total,
            "p50": q(0.50),
            "p95": q(0.95),
            "max": mx,
        }
        if samples:
            out["samples"] = raw
        return out

    def merge(self, summary: dict[str, Any]) -> None:
        """Fold another histogram's summary into this one.

        ``count``/``total``/``max`` merge exactly; the reservoir extends
        with the summary's ``samples`` (when present), capped at
        :data:`MAX_SAMPLES` — percentiles of a merged histogram are
        approximate, exactly as they are for a local one.
        """
        with self._lock:
            self._count += int(summary.get("count", 0))
            self._total += float(summary.get("total", 0.0))
            mx = float(summary.get("max", 0.0))
            if mx > self._max:
                self._max = mx
            for value in summary.get("samples") or ():
                if len(self._samples) < self.MAX_SAMPLES:
                    self._samples.append(float(value))
                else:
                    self._samples[self._next] = float(value)
                    self._next = (self._next + 1) % self.MAX_SAMPLES

    def _reset(self) -> None:
        with self._lock:
            self._samples.clear()
            self._next = 0
            self._count = 0
            self._total = 0.0
            self._max = 0.0


class MetricsRegistry:
    """Get-or-create instruments by name; snapshot and reset them all.

    A single lock guards instrument creation *and* increments: the
    instrumented code publishes aggregates (a handful of updates per
    diff/patch/stratum), so contention is negligible and the semantics
    are simply correct under threads.
    """

    __slots__ = ("_lock", "_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            with self._lock:
                c = self._counters.get(name)
                if c is None:
                    c = Counter(name, self._lock)
                    self._counters[name] = c
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            with self._lock:
                g = self._gauges.get(name)
                if g is None:
                    g = Gauge(name, self._lock)
                    self._gauges[name] = g
        return g

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            with self._lock:
                h = self._histograms.get(name)
                if h is None:
                    h = Histogram(name, self._lock)
                    self._histograms[name] = h
        return h

    def snapshot(self, samples: bool = False) -> dict:
        """A plain-data view of every instrument (stable key order).

        ``samples=True`` includes each histogram's reservoir — the
        transferable form a worker ships to the driver so
        :meth:`merge` preserves approximate percentiles, not just the
        exact count/total/max.
        """
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "histograms": {
                name: h.summary(samples=samples)
                for name, h in sorted(self._histograms.items())
            },
        }

    def merge(self, snap: dict) -> None:
        """Fold a snapshot (typically from another process) into this
        registry: counters add, gauges last-write-win, histograms merge
        count/total/max exactly and extend their reservoirs.  The
        cross-process aggregation primitive of the batch driver."""
        for name, value in snap.get("counters", {}).items():
            if value:
                self.counter(name).inc(value)
        for name, value in snap.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, summary in snap.get("histograms", {}).items():
            if summary.get("count"):
                self.histogram(name).merge(summary)

    def reset(self) -> None:
        """Zero every instrument (registered objects stay valid)."""
        for c in self._counters.values():
            c._reset()
        for g in self._gauges.values():
            g._reset()
        for h in self._histograms.values():
            h._reset()


#: The process-wide registry all instrumented modules publish into.
REGISTRY = MetricsRegistry()


def metrics() -> MetricsRegistry:
    """The process-wide registry (for instrumented code and tests)."""
    return REGISTRY


def enable() -> None:
    """Turn instrumentation on."""
    OBS.enabled = True


def disable() -> None:
    """Turn instrumentation off (instruments keep their values)."""
    OBS.enabled = False


def enabled() -> bool:
    return OBS.enabled


def snapshot(samples: bool = False) -> dict:
    return REGISTRY.snapshot(samples=samples)


def merge(snap: dict) -> None:
    """Fold a snapshot from another process into the local registry."""
    REGISTRY.merge(snap)


def reset() -> None:
    """Zero all instruments."""
    REGISTRY.reset()
