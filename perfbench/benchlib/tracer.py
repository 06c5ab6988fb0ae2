"""Span recording around the program's public calls, from outside the program.

A :class:`Tracer` replaces chosen functions and methods of the program
with wrappers that record one span per call: ``[name, start, end,
parent, op]`` where ``parent`` is the index of the enclosing recorded
span (``-1`` at top level) and ``op`` the id of the benchmark operation
the call belongs to (``None`` during set-up).  Spans stay in memory in
one list; :func:`layer_self_ms` reduces them to per-layer self time.

A layer's self time is its span's duration minus the part of that
interval that its child spans cover, so nested layers are never counted
twice.  Layer names are ``<layer>.<what>`` (``adapters.parse``,
``core.flatten``, ...); the workload maps them to ``<name>_ms`` metrics.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from typing import Any, Callable, Iterable, Optional

Span = list  # [name, start, end, parent, op]


class Tracer:
    """In-memory span recorder; wrappers are installed with :meth:`wrap`
    and removed with :meth:`restore`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: op id stamped on new spans: set by in-process workloads, or by
        #: a ``root`` wrapper (it stays set after the call returns, so work
        #: the caller does afterwards, e.g. encoding the response, counts
        #: toward the same op)
        self.op: Optional[int] = None
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []
        self._pid = os.getpid()
        self._next_op = 0

    # -- recording -----------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[str]:
        """Name of the innermost open span on this thread, if any."""
        stack = self._stack()
        return self.spans[stack[-1]][0] if stack else None

    def begin(self, name: str) -> int:
        stack = self._stack()
        idx = len(self.spans)
        self.spans.append(
            [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.op]
        )
        stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack().pop()

    def add(self, name: str, start: float, end: float, parent: int) -> None:
        """Record a derived span (e.g. time a child process reported)."""
        self.spans.append([name, start, end, parent, self.spans[parent][4]])

    # -- wrappers ------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        root: bool = False,
        skip_under: Optional[str] = None,
        when: Optional[Callable[..., bool]] = None,
        after: Optional[Callable[["Tracer", int, Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``root=True`` makes each call start a new operation (the
        daemon's request handler).  ``skip_under`` suppresses the span when the
        innermost open span has that name; ``when(*args, **kwargs)``
        suppresses it when false.  ``after(tracer, idx, result)`` runs
        after the call, before the span closes, and may add derived
        child spans.  Calls from other processes (forked pool workers
        inherit the wrappers) pass straight through.
        """
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return orig(*args, **kwargs)
            if skip_under is not None and tracer.current() == skip_under:
                return orig(*args, **kwargs)
            if when is not None and not when(*args, **kwargs):
                return orig(*args, **kwargs)
            if root:
                tracer.op = tracer._next_op
                tracer._next_op += 1
            idx = tracer.begin(name)
            try:
                out = orig(*args, **kwargs)
                if after is not None:
                    after(tracer, idx, out)
                return out
            finally:
                tracer.end(idx)

        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def reset(self) -> None:
        self.spans = []


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Self time (seconds) of every span: duration minus child coverage."""
    kids: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[3] >= 0:
            kids.setdefault(s[3], []).append((s[1], s[2]))
    out = []
    for i, s in enumerate(spans):
        dur = s[2] - s[1]
        out.append(dur - _covered(kids[i], s[1], s[2]) if i in kids else dur)
    return out


def layer_self_ms(spans: list[Span], ops: Iterable[int]) -> dict[str, float]:
    """Summed self time (ms) per span name over the spans of ``ops``."""
    wanted = set(ops)
    out: dict[str, float] = {}
    for s, own in zip(spans, self_times(spans)):
        if s[4] in wanted:
            out[s[0]] = out.get(s[0], 0.0) + own * 1000.0
    return out

