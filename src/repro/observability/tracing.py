"""Causal trace contexts: trace/span identity, propagation, sampling.

PR 2's spans were flat named timers: each ``with span(name)`` fed a
histogram and an event sink, but nothing related one span to another, and
the ``perf_counter``-relative origins made events from two processes
incomparable.  This module upgrades them into a **causal tree**:

* every enabled span carries a :class:`TraceContext` — a ``trace_id``
  shared by all spans of one logical operation, its own ``span_id``, and
  the ``parent_id`` of the span it ran under — tracked through
  :mod:`contextvars`, so nesting works across ``with`` blocks, helper
  functions, and (via :func:`current_context` / :func:`remote_context`)
  process boundaries;
* span records capture **wall-clock epoch** start times alongside the
  monotonic duration, so spans from the batch driver and its pool
  workers land on one global timeline;
* **head sampling** (``OBS_SAMPLE=1/N``) decides once per trace root —
  or once per *resample point*, see below — whether the whole subtree is
  recorded, so always-on tracing in batch costs a counter bump and a
  modulo for the unsampled majority.

The zero-overhead story is unchanged: with the :data:`~repro.observability.metrics.OBS`
flag off, :func:`repro.observability.span` still returns the shared
no-op and this module is never consulted.  With metrics on but tracing
off (``TRACE.enabled`` false), spans pay two attribute loads extra.

Resample points
---------------

A batch run is *one* trace (the driver's ``repro.batch.run`` root), but
sampling all-or-nothing at that root would make ``OBS_SAMPLE`` useless
for exactly the workload it exists for.  A context propagated with
``resample=True`` marks a resample point: every span opened *directly*
under it makes a fresh head-sampling decision while keeping the parent's
``trace_id`` and causal link.  The batch driver propagates its run
context to workers as a resample point, so each file pair is an
independently sampled subtree of the one batch trace.

Span records are plain dicts (picklable, JSON-ready)::

    {"name": ..., "trace_id": ..., "span_id": ..., "parent_id": ...,
     "start": <epoch seconds>, "dur_ms": ..., "pid": ..,
     "status": "ok"|"error", "error_type": ..., "attrs": {...}}

They accumulate in a bounded process-local buffer; :func:`take_spans`
drains it (the exporters in :mod:`repro.observability.export` consume
the drained list).  A pool worker ships its buffer back inside each
task result, and the caller merges it into its own buffer under the
same bound (:mod:`repro.observability.aggregate`).
"""

from __future__ import annotations

import os
import random
import threading
import time
from contextvars import ContextVar, Token
from typing import Any, Optional

from .metrics import OBS


class TraceContext:
    """The identity a span runs under; immutable once created."""

    __slots__ = ("trace_id", "span_id", "sampled", "resample")

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        sampled: bool,
        resample: bool = False,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.sampled = sampled
        self.resample = resample

    def as_dict(self) -> dict[str, Any]:
        """A picklable envelope form (for cross-process propagation)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "sampled": self.sampled,
            "resample": self.resample,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TraceContext":
        return cls(
            data["trace_id"],
            data["span_id"],
            bool(data.get("sampled", True)),
            bool(data.get("resample", False)),
        )


class _TraceState:
    """Process-wide tracing state, guarded like the metrics registry.

    ``enabled`` gates everything; ``sample_n`` is the N of ``1/N`` head
    sampling (1 = record every trace); ``buffer`` holds finished span
    records up to ``max_spans`` (drops are counted, never silent).
    """

    __slots__ = (
        "enabled",
        "sample_n",
        "max_spans",
        "buffer",
        "dropped",
        "_heads",
        "_lock",
    )

    def __init__(self) -> None:
        self.enabled = False
        self.sample_n = 1
        self.max_spans = 100_000
        self.buffer: list[dict[str, Any]] = []
        self.dropped = 0
        self._heads = 0  # sampling decisions made so far (head counter)
        self._lock = threading.Lock()

    def head_decision(self) -> bool:
        """One head-sampling decision: deterministically every Nth head.

        The first head is always sampled, so short runs (one diff, a
        smoke batch) produce spans even under aggressive sampling.
        """
        if self.sample_n <= 1:
            return True
        with self._lock:
            n = self._heads
            self._heads += 1
        return n % self.sample_n == 0

    def record(self, rec: dict[str, Any]) -> None:
        with self._lock:
            if len(self.buffer) >= self.max_spans:
                self.dropped += 1
                return
            self.buffer.append(rec)

    def drain(self) -> tuple[list[dict[str, Any]], int]:
        """Take the buffered spans and the drop count, zeroing both —
        the disjoint per-task delta a pool worker ships back."""
        with self._lock:
            spans, dropped = self.buffer, self.dropped
            self.buffer, self.dropped = [], 0
        return spans, dropped

    def merge(self, spans: list[dict[str, Any]], dropped: int) -> int:
        """Fold a delta drained in another process into this buffer.

        The spans are kept under the same ``max_spans`` bound as local
        ones, each span past it counted as dropped; the sender's own
        ``dropped`` adds once.  Returns how many spans were kept.
        """
        with self._lock:
            kept = spans[: max(0, self.max_spans - len(self.buffer))]
            self.buffer.extend(kept)
            self.dropped += dropped + len(spans) - len(kept)
        return len(kept)


#: Process-wide tracing state (one per driver / worker process).
TRACE = _TraceState()

#: The context the *next* span will be parented under, per logical task.
_CTX: ContextVar[Optional[TraceContext]] = ContextVar("repro_trace_ctx", default=None)

_rand = random.Random()
if hasattr(os, "register_at_fork"):
    # forked pool workers would otherwise all replay the parent's id
    # sequence, and their spans would collide within one trace
    os.register_at_fork(after_in_child=_rand.seed)


def _new_trace_id() -> str:
    return f"{_rand.getrandbits(128):032x}"


def _new_span_id() -> str:
    return f"{_rand.getrandbits(64):016x}"


def parse_sample(spec: "str | int | None") -> int:
    """Parse a head-sampling spec: ``8``, ``"8"``, or ``"1/8"`` → 8.

    ``None`` or empty reads the ``OBS_SAMPLE`` environment variable and
    defaults to 1 (sample everything).

    Every malformed spec — ``"1/0"``, ``"0"``, negatives, floats,
    garbage, a bare ``"1/"`` — raises :exc:`ValueError` with one clear
    sentence naming the offending value (and ``OBS_SAMPLE`` when it came
    from the environment), so the CLI can render it as a one-line exit-2
    diagnostic and an env-sourced typo never silently samples everything
    or surfaces as an ``int()`` traceback.
    """
    source = ""
    if spec is None or spec == "":
        spec = os.environ.get("OBS_SAMPLE", "") or "1"
        source = " (from OBS_SAMPLE)"

    def bad(reason: str) -> ValueError:
        return ValueError(
            f"invalid sampling spec {spec!r}{source}: {reason}; "
            "expected a positive integer N or '1/N'"
        )

    if isinstance(spec, bool):
        raise bad("not a number")
    if isinstance(spec, int):
        n = spec
    elif isinstance(spec, str):
        text = spec.strip()
        if "/" in text:
            num, _, den = text.partition("/")
            if num.strip() != "1":
                raise bad("the numerator must be 1")
            try:
                n = int(den.strip() or "x")
            except ValueError:
                raise bad(f"{den.strip()!r} is not an integer") from None
        else:
            try:
                n = int(text)
            except ValueError:
                raise bad(f"{text!r} is not an integer") from None
    else:
        raise bad(f"unsupported type {type(spec).__name__}")
    if n < 1:
        raise bad(f"the rate must be >= 1, got {n}")
    return n


def enable_tracing(
    sample: "str | int | None" = None, max_spans: int = 100_000
) -> None:
    """Turn span tracing on (implies metrics instrumentation).

    ``sample`` is a head-sampling spec (see :func:`parse_sample`);
    unspecified, it honors ``OBS_SAMPLE=1/N`` from the environment.
    """
    TRACE.sample_n = parse_sample(sample)
    TRACE.max_spans = max_spans
    TRACE.enabled = True
    OBS.enabled = True  # spans only exist while instrumentation is on


def disable_tracing() -> None:
    """Turn tracing off (metrics stay as they are; buffer is kept)."""
    TRACE.enabled = False


def tracing_enabled() -> bool:
    return TRACE.enabled


def reset_tracing() -> None:
    """Drop buffered spans and zero the head counter (tests, forked
    workers inheriting driver state)."""
    with TRACE._lock:
        TRACE.buffer.clear()
        TRACE.dropped = 0
        TRACE._heads = 0
    _CTX.set(None)


def take_spans() -> list[dict[str, Any]]:
    """Drain and return all buffered span records."""
    with TRACE._lock:
        out = TRACE.buffer
        TRACE.buffer = []
    return out


def span_count() -> int:
    with TRACE._lock:
        return len(TRACE.buffer)


def current_context() -> Optional[dict[str, Any]]:
    """The active span's context as a picklable dict, or ``None``.

    This is what a driver puts in a task envelope so remote work is
    parented under the span that submitted it."""
    ctx = _CTX.get()
    return ctx.as_dict() if ctx is not None else None


class remote_context:
    """Adopt a propagated context for the duration of a ``with`` block.

    Used on the far side of a process boundary: the batch worker wraps
    each pair task in ``remote_context(envelope["trace"], resample=True)``
    so its spans join the driver's trace as independently-sampled pair
    subtrees.  ``ctx=None`` is a no-op (the driver ran without tracing).
    """

    __slots__ = ("_ctx", "_resample", "_token")

    def __init__(self, ctx: Optional[dict[str, Any]], resample: bool = False) -> None:
        self._ctx = ctx
        self._resample = resample
        self._token = None

    def __enter__(self) -> "remote_context":
        if self._ctx is not None:
            adopted = TraceContext.from_dict(self._ctx)
            if self._resample:
                adopted = TraceContext(
                    adopted.trace_id, adopted.span_id, adopted.sampled, resample=True
                )
            self._token = _CTX.set(adopted)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._token is not None:
            _CTX.reset(self._token)
            self._token = None


def begin_span() -> tuple[Any, Optional[TraceContext]]:
    """Open a trace node for a starting span (called by ``Span.__enter__``
    while tracing is enabled).

    Returns ``(token, ctx)``: the contextvar reset token and the new
    context — whose ``sampled`` flag says whether the closing span must
    be recorded.  Unsampled subtrees still thread a context (so deeper
    spans inherit the negative decision) but allocate no ids beyond it.
    """
    parent = _CTX.get()
    if parent is None:
        sampled = TRACE.head_decision()
        ctx = TraceContext(
            _new_trace_id() if sampled else "", _new_span_id() if sampled else "", sampled
        )
    elif parent.resample:
        sampled = TRACE.head_decision()
        ctx = TraceContext(parent.trace_id, _new_span_id() if sampled else "", sampled)
    elif parent.sampled:
        ctx = TraceContext(parent.trace_id, _new_span_id(), True)
    else:
        ctx = parent  # negative decision inherited by the whole subtree
    token = _CTX.set(ctx)
    return token, ctx


def end_span(
    token: Any,
    ctx: TraceContext,
    name: str,
    start_epoch: float,
    dur_ms: float,
    status: str,
    error_type: Optional[str],
    attrs: Optional[dict[str, Any]],
) -> None:
    """Close the trace node opened by :func:`begin_span`; record if sampled."""
    parent = None
    if ctx.sampled:
        prev = token.old_value
        if prev is Token.MISSING:
            prev = None
        if prev is not None and prev is not ctx and prev.sampled:
            parent = prev.span_id
        rec: dict[str, Any] = {
            "name": name,
            "trace_id": ctx.trace_id,
            "span_id": ctx.span_id,
            "parent_id": parent,
            "start": start_epoch,
            "dur_ms": dur_ms,
            "pid": os.getpid(),
            "status": status,
        }
        if error_type is not None:
            rec["error_type"] = error_type
        if attrs:
            rec["attrs"] = attrs
        TRACE.record(rec)
    _CTX.reset(token)
