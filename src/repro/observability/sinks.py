"""Pluggable sinks and exporters for the metrics registry.

A sink is any object with two methods:

* ``event(name, start, dur_ms, epoch=0.0, status="ok")`` — called once
  per closed span while instrumentation is enabled and the sink is
  attached.  ``start`` is the span's ``perf_counter`` origin (ordering
  and gap analysis within one process); ``epoch`` is the wall-clock
  start in seconds since the Unix epoch, the timestamp that makes events
  from different processes correlatable; ``status`` is ``"ok"`` or
  ``"error"``;
* ``export(snap)`` — called with a registry snapshot by
  :func:`repro.observability.export`.

Provided sinks:

* :class:`InMemorySink` — keeps events and snapshots in lists (tests,
  REPL inspection);
* :class:`JSONFileSink` — writes each exported snapshot as a JSON
  document to a path;
* :class:`EventLogSink` — a line-oriented span stream
  (``<epoch> <start> <name> <dur_ms> [error=<type>]`` per line) to a
  path or file object, read back by :func:`parse_event_line`.

Exporter functions (no sink object needed):

* :func:`prometheus_text` — renders a snapshot in the Prometheus text
  exposition format (counters as ``_total``, histograms as summaries
  with ``quantile`` labels); metric names are sanitized and label values
  escaped per the exposition format, so adapter names and worker ids can
  be used as labels verbatim;
* :func:`render_report` — the human-readable pass-by-pass report used
  by ``python -m repro stats``.
"""

from __future__ import annotations

import json
import re
from typing import Any, Mapping, Optional, TextIO


class InMemorySink:
    """Collects span events and exported snapshots in memory."""

    __slots__ = ("events", "snapshots")

    def __init__(self) -> None:
        self.events: list[tuple[str, float, float, float, str]] = []
        self.snapshots: list[dict] = []

    def event(
        self, name: str, start: float, dur_ms: float,
        epoch: float = 0.0, status: str = "ok",
    ) -> None:
        self.events.append((name, start, dur_ms, epoch, status))

    def export(self, snap: dict) -> None:
        self.snapshots.append(snap)


class JSONFileSink:
    """Writes each exported snapshot as a JSON document to ``path``."""

    __slots__ = ("path",)

    def __init__(self, path: str) -> None:
        self.path = path

    def event(
        self, name: str, start: float, dur_ms: float,
        epoch: float = 0.0, status: str = "ok",
    ) -> None:
        pass  # snapshots only

    def export(self, snap: dict) -> None:
        with open(self.path, "w", encoding="utf8") as fh:
            json.dump(snap, fh, indent=2, sort_keys=True)
            fh.write("\n")


class EventLogSink:
    """A line-oriented span stream, one closed span per line::

        <epoch> <start> <name> <dur_ms> [error=<type or status>]

    ``epoch`` (wall-clock seconds) correlates events across processes;
    ``start`` (``perf_counter`` origin) orders them precisely within
    one.  Failed spans carry a trailing ``error=...`` field.
    :func:`parse_event_line` reads the lines back.
    """

    __slots__ = ("_fh", "_own")

    def __init__(self, target: "str | TextIO") -> None:
        if isinstance(target, str):
            self._fh = open(target, "w", encoding="utf8")
            self._own = True
        else:
            self._fh = target
            self._own = False

    def event(
        self, name: str, start: float, dur_ms: float,
        epoch: float = 0.0, status: str = "ok",
    ) -> None:
        suffix = "" if status == "ok" else f" error={status}"
        self._fh.write(f"{epoch:.6f} {start:.6f} {name} {dur_ms:.3f}{suffix}\n")

    def export(self, snap: dict) -> None:
        self._fh.flush()

    def close(self) -> None:
        self._fh.flush()
        if self._own:
            self._fh.close()


def parse_event_line(line: str) -> Optional[dict[str, Any]]:
    """Parse one span-stream line,
    ``<epoch> <start> <name> <dur_ms> [error=<type>]``, into a dict.

    Returns ``None`` for blank/unparseable lines rather than raising
    (log files may be truncated mid-line).
    """
    fields = line.split()
    if len(fields) < 4:
        return None
    try:
        out = {
            "epoch": float(fields[0]),
            "start": float(fields[1]),
            "name": fields[2],
            "dur_ms": float(fields[3]),
            "status": "ok",
        }
    except ValueError:
        return None
    for extra in fields[4:]:
        if extra.startswith("error="):
            out["status"] = extra[len("error="):] or "error"
    return out


# -- Prometheus text exposition ----------------------------------------------

_PROM_BAD = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """Sanitize a dotted metric name into a legal Prometheus name.

    The exposition format requires ``[a-zA-Z_:][a-zA-Z0-9_:]*`` — every
    other character becomes ``_`` and a leading digit gets a ``_``
    prefix.
    """
    out = _PROM_BAD.sub("_", name)
    if out and out[0].isdigit():
        out = "_" + out
    return out or "_"


def _prom_label_value(value: Any) -> str:
    """Escape a label value per the text exposition format: backslash,
    double-quote, and line-feed must be escaped inside the quotes."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _prom_labels(labels: Optional[Mapping[str, Any]], extra: str = "") -> str:
    """Render a label set (plus an optional pre-rendered pair) as
    ``{k="v",...}``; empty when there is nothing to render."""
    parts = [
        f'{_prom_name(str(k))}="{_prom_label_value(v)}"'
        for k, v in (labels or {}).items()
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def prometheus_text(
    snap: dict, labels: Optional[Mapping[str, Any]] = None
) -> str:
    """Render a registry snapshot in the Prometheus text format.

    Counters become ``<name>_total`` counter samples, gauges stay
    gauges, histograms are exposed as summaries (``quantile`` labels,
    ``_sum``/``_count``) plus a non-standard ``_max`` gauge.

    ``labels`` attaches a label set to every sample — the batch driver
    renders per-worker snapshots with ``labels={"worker": pid}`` — with
    values escaped per the exposition format (quote, backslash, and
    newline safe).
    """
    base = _prom_labels(labels)
    lines: list[str] = []
    for name, value in snap.get("counters", {}).items():
        pname = _prom_name(name) + "_total"
        lines.append(f"# TYPE {pname} counter")
        lines.append(f"{pname}{base} {value}")
    for name, value in snap.get("gauges", {}).items():
        pname = _prom_name(name)
        lines.append(f"# TYPE {pname} gauge")
        lines.append(f"{pname}{base} {value}")
    q50 = _prom_labels(labels, extra='quantile="0.5"')
    q95 = _prom_labels(labels, extra='quantile="0.95"')
    for name, summ in snap.get("histograms", {}).items():
        pname = _prom_name(name)
        lines.append(f"# TYPE {pname} summary")
        lines.append(f"{pname}{q50} {summ['p50']}")
        lines.append(f"{pname}{q95} {summ['p95']}")
        lines.append(f"{pname}_sum{base} {summ['total']}")
        lines.append(f"{pname}_count{base} {summ['count']}")
        lines.append(f"# TYPE {pname}_max gauge")
        lines.append(f"{pname}_max{base} {summ['max']}")
    return "\n".join(lines) + "\n"


def render_report(snap: dict, title: Optional[str] = None) -> str:
    """Human-readable report: histograms (the per-pass timings) first,
    then counters, then gauges."""
    lines: list[str] = []
    if title:
        lines.append(title)
    hists: dict[str, Any] = snap.get("histograms", {})
    if hists:
        lines.append("spans / histograms:")
        width = max(len(n) for n in hists)
        for name, s in hists.items():
            lines.append(
                f"  {name:<{width}}  count {s['count']:>6}  "
                f"p50 {s['p50']:>9.3f}  p95 {s['p95']:>9.3f}  "
                f"max {s['max']:>9.3f}  total {s['total']:>10.3f}"
            )
    counters: dict[str, int] = snap.get("counters", {})
    if counters:
        lines.append("counters:")
        width = max(len(n) for n in counters)
        for name, v in counters.items():
            lines.append(f"  {name:<{width}}  {v}")
    gauges: dict[str, float] = snap.get("gauges", {})
    if gauges:
        lines.append("gauges:")
        width = max(len(n) for n in gauges)
        for name, v in gauges.items():
            lines.append(f"  {name:<{width}}  {v}")
    if len(lines) <= (1 if title else 0):
        lines.append("(no metrics recorded)")
    return "\n".join(lines)
