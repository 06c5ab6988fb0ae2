"""Span tracing: timed context managers feeding histograms and the
causal trace buffer.

``with span("repro.diff.assign_shares"): ...`` measures the block with
the monotonic clock and, on exit,

* observes the duration (milliseconds) into the histogram named
  ``<name>.ms`` in the process-wide registry,
* records its outcome: a pass that raises closes with
  ``status="error"``, its ``error_type``, and a bump of the
  ``<name>.errors`` counter — a raising pass is no longer
  indistinguishable from a succeeding one,
* when tracing is enabled (:func:`repro.observability.tracing.enable_tracing`),
  appends a span *record* — trace/span/parent ids from the contextvar
  chain, epoch start, duration, typed attributes — to the process-local
  trace buffer, provided its head-sampling decision came up sampled.

Attributes are typed key/values attached per span: pass a dict at
creation (``span("repro.diff", {"engine": "flat"})``) or set them inside
the block (``sp.set_attrs(shares=n)``) — e.g. node counts, share and
assignment statistics, engine and typecheck mode, which let latency be
attributed to tree shape rather than guessed at.

When instrumentation is disabled, :func:`span` returns a single shared
no-op context manager — no allocation, no clock read — so spans may be
left in place on warm paths.  Spans are re-entrant but the shared no-op
is stateless, so nesting is always safe.
"""

from __future__ import annotations

import time
from typing import Any, Optional

from . import tracing as _tracing
from .metrics import OBS, REGISTRY


class Span:
    """One timed region; created only while instrumentation is enabled."""

    __slots__ = (
        "name",
        "attrs",
        "status",
        "error_type",
        "duration_ms",
        "_t0",
        "_epoch",
        "_token",
        "_ctx",
    )

    def __init__(self, name: str, attrs: Optional[dict[str, Any]] = None) -> None:
        self.name = name
        self.attrs = attrs
        self.status = "ok"
        self.error_type: Optional[str] = None
        self.duration_ms = 0.0
        self._t0 = 0.0
        self._epoch = 0.0
        self._token = None
        self._ctx = None

    def set_attr(self, key: str, value: Any) -> None:
        """Attach one typed attribute to the span record."""
        if self.attrs is None:
            self.attrs = {}
        self.attrs[key] = value

    def set_attrs(self, **attrs: Any) -> None:
        """Attach several typed attributes to the span record."""
        if self.attrs is None:
            self.attrs = {}
        self.attrs.update(attrs)

    def set_status(self, status: str, error_type: Optional[str] = None) -> None:
        """Mark the span's outcome explicitly (an exception escaping the
        block overrides this on exit)."""
        self.status = status
        self.error_type = error_type

    def __enter__(self) -> "Span":
        if _tracing.TRACE.enabled:
            self._token, self._ctx = _tracing.begin_span()
        self._epoch = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        dur_ms = (time.perf_counter() - self._t0) * 1000.0
        self.duration_ms = dur_ms
        if exc_type is not None:
            self.status = "error"
            self.error_type = exc_type.__name__
        REGISTRY.histogram(self.name + ".ms").observe(dur_ms)
        if self.status != "ok":
            REGISTRY.counter(self.name + ".errors").inc()
        if self._token is not None:
            _tracing.end_span(
                self._token,
                self._ctx,
                self.name,
                self._epoch,
                dur_ms,
                self.status,
                self.error_type,
                self.attrs,
            )
            self._token = self._ctx = None


class _NoopSpan:
    """Shared do-nothing span returned while instrumentation is off."""

    __slots__ = ()
    duration_ms = 0.0
    status = "ok"
    error_type = None
    attrs = None

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass

    def set_attr(self, key: str, value: Any) -> None:
        pass

    def set_attrs(self, **attrs: Any) -> None:
        pass

    def set_status(self, status: str, error_type: Optional[str] = None) -> None:
        pass


NOOP_SPAN = _NoopSpan()


def span(name: str, attrs: Optional[dict[str, Any]] = None):
    """A context manager timing ``name``; shared no-op when disabled.

    ``attrs`` (optional) seeds the span's typed attributes; more may be
    attached inside the block with :meth:`Span.set_attrs`.
    """
    if not OBS.enabled:
        return NOOP_SPAN
    return Span(name, attrs)
