"""Timeline export: Chrome trace-event JSON and OTLP-shaped span files.

Consumes the span records drained from the trace buffer
(:func:`repro.observability.tracing.take_spans`, which holds pool
workers' spans too) and renders them for external tooling:

* :func:`chrome_trace` — the Trace Event Format understood by Perfetto
  (https://ui.perfetto.dev) and ``chrome://tracing``: complete
  (``"ph": "X"``) events with microsecond timestamps on the shared
  wall-clock timeline, ``pid`` mapped to the originating process
  (driver vs. pool workers, named via metadata events) and trace/span
  ids preserved in ``args``;
* :func:`otlp_spans` — a flat OTLP-shaped JSON document
  (``resourceSpans`` → ``scopeSpans`` → ``spans`` with hex ids and
  nanosecond timestamps), one resource per process, importable by
  OTLP-compatible tooling and by ``python -m repro trace``;
* :func:`read_spans` — the inverse: load span records back from an OTLP
  file, a Chrome trace file (as long as it was written by
  :func:`chrome_trace`, which keeps the ids in ``args``), a raw span
  list, or a JSONL stream of records;
* :func:`render_timeline` — a human-readable causal tree for terminal
  inspection.

``write_trace`` picks the format by name and writes the document.

Registry snapshots render here too:

* :func:`prometheus_text` — the Prometheus text exposition format
  (counters as ``_total``, histograms as summaries with ``quantile``
  labels); metric names are sanitized and label values escaped per the
  exposition format, so adapter names and worker ids can be used as
  labels verbatim — ``/metrics`` and ``--metrics=prom``;
* :func:`render_report` — the human-readable pass-by-pass report used
  by ``python -m repro stats``.
"""

from __future__ import annotations

import json
import os
import re
from typing import Any, Iterable, Mapping, Optional

TRACE_FORMATS = ("chrome", "otlp", "timeline")


def _by_start(spans: Iterable[dict[str, Any]]) -> list[dict[str, Any]]:
    return sorted(spans, key=lambda r: (r.get("start") or 0.0, r.get("name", "")))


def _process_names(
    spans: list[dict[str, Any]], driver_pid: Optional[int]
) -> dict[int, str]:
    pids = sorted({int(r.get("pid") or 0) for r in spans})
    names = {}
    for pid in pids:
        if driver_pid is not None and pid == driver_pid:
            names[pid] = "repro-driver"
        elif driver_pid is not None:
            names[pid] = f"repro-worker-{pid}"
        else:
            names[pid] = f"repro-{pid}"
    return names


def chrome_trace(
    spans: Iterable[dict[str, Any]], driver_pid: Optional[int] = None
) -> dict[str, Any]:
    """Render span records as a Chrome trace-event document.

    Timestamps are wall-clock microseconds rebased to the earliest span
    (Perfetto renders absolute epochs poorly); the absolute epoch and the
    trace/span/parent ids ride along in each event's ``args`` so the
    document round-trips through :func:`read_spans`.  ``driver_pid``
    names that process ``repro-driver`` and every other one
    ``repro-worker-<pid>`` in the process list.
    """
    records = _by_start(spans)
    origin = records[0]["start"] if records else 0.0
    events: list[dict[str, Any]] = []
    for pid, pname in _process_names(records, driver_pid).items():
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": pid,
                "args": {"name": pname},
            }
        )
    for rec in records:
        pid = int(rec.get("pid") or 0)
        args: dict[str, Any] = {
            "trace_id": rec.get("trace_id"),
            "span_id": rec.get("span_id"),
            "parent_id": rec.get("parent_id"),
            "epoch": rec.get("start"),
            "status": rec.get("status", "ok"),
        }
        if rec.get("error_type"):
            args["error_type"] = rec["error_type"]
        if rec.get("attrs"):
            args.update(rec["attrs"])
        events.append(
            {
                "name": rec["name"],
                "cat": "repro",
                "ph": "X",
                "ts": round((rec["start"] - origin) * 1e6, 3),
                "dur": round(rec.get("dur_ms", 0.0) * 1000.0, 3),
                "pid": pid,
                "tid": pid,
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# -- OTLP-shaped JSON --------------------------------------------------------

_ATTR_META = frozenset(
    {"trace_id", "span_id", "parent_id", "epoch", "status", "error_type"}
)


def _otlp_value(value: Any) -> dict[str, Any]:
    if isinstance(value, bool):
        return {"boolValue": value}
    if isinstance(value, int):
        return {"intValue": str(value)}
    if isinstance(value, float):
        return {"doubleValue": value}
    return {"stringValue": str(value)}


def _from_otlp_value(value: dict[str, Any]) -> Any:
    if "boolValue" in value:
        return bool(value["boolValue"])
    if "intValue" in value:
        return int(value["intValue"])
    if "doubleValue" in value:
        return float(value["doubleValue"])
    return value.get("stringValue")


def otlp_spans(
    spans: Iterable[dict[str, Any]], driver_pid: Optional[int] = None
) -> dict[str, Any]:
    """Render span records as a flat OTLP-shaped JSON document: one
    ``resourceSpans`` entry per originating process (``service.name`` and
    ``process.pid`` resource attributes), spans with hex ids and Unix
    nanosecond timestamps, OTLP status codes (1=OK, 2=ERROR)."""
    records = _by_start(spans)
    by_pid: dict[int, list[dict[str, Any]]] = {}
    for rec in records:
        by_pid.setdefault(int(rec.get("pid") or 0), []).append(rec)
    names = _process_names(records, driver_pid)
    resource_spans = []
    for pid, recs in sorted(by_pid.items()):
        otlp = []
        for rec in recs:
            start_ns = int(rec["start"] * 1e9)
            end_ns = start_ns + int(rec.get("dur_ms", 0.0) * 1e6)
            entry: dict[str, Any] = {
                "traceId": rec.get("trace_id") or "",
                "spanId": rec.get("span_id") or "",
                "parentSpanId": rec.get("parent_id") or "",
                "name": rec["name"],
                "kind": 1,  # SPAN_KIND_INTERNAL
                "startTimeUnixNano": str(start_ns),
                "endTimeUnixNano": str(end_ns),
                "attributes": [
                    {"key": k, "value": _otlp_value(v)}
                    for k, v in (rec.get("attrs") or {}).items()
                ],
                "status": (
                    {"code": 1}
                    if rec.get("status", "ok") == "ok"
                    else {"code": 2, "message": rec.get("error_type") or "error"}
                ),
            }
            otlp.append(entry)
        resource_spans.append(
            {
                "resource": {
                    "attributes": [
                        {"key": "service.name", "value": {"stringValue": names[pid]}},
                        {"key": "process.pid", "value": {"intValue": str(pid)}},
                    ]
                },
                "scopeSpans": [
                    {"scope": {"name": "repro.observability"}, "spans": otlp}
                ],
            }
        )
    return {"resourceSpans": resource_spans}


# -- readers -----------------------------------------------------------------


def _records_from_otlp(doc: dict[str, Any]) -> list[dict[str, Any]]:
    out = []
    for res in doc.get("resourceSpans", []):
        pid = 0
        for attr in res.get("resource", {}).get("attributes", []):
            if attr.get("key") == "process.pid":
                pid = int(_from_otlp_value(attr["value"]) or 0)
        for scope in res.get("scopeSpans", []):
            for sp in scope.get("spans", []):
                start_ns = int(sp["startTimeUnixNano"])
                end_ns = int(sp["endTimeUnixNano"])
                status = sp.get("status") or {}
                rec: dict[str, Any] = {
                    "name": sp["name"],
                    "trace_id": sp.get("traceId") or None,
                    "span_id": sp.get("spanId") or None,
                    "parent_id": sp.get("parentSpanId") or None,
                    "start": start_ns / 1e9,
                    "dur_ms": (end_ns - start_ns) / 1e6,
                    "pid": pid,
                    "status": "error" if status.get("code") == 2 else "ok",
                }
                if status.get("code") == 2 and status.get("message"):
                    rec["error_type"] = status["message"]
                attrs = {
                    a["key"]: _from_otlp_value(a["value"])
                    for a in sp.get("attributes", [])
                }
                if attrs:
                    rec["attrs"] = attrs
                out.append(rec)
    return out


def _records_from_chrome(doc: dict[str, Any]) -> list[dict[str, Any]]:
    out = []
    for ev in doc.get("traceEvents", []):
        if ev.get("ph") != "X":
            continue
        args = dict(ev.get("args") or {})
        rec: dict[str, Any] = {
            "name": ev["name"],
            "trace_id": args.pop("trace_id", None),
            "span_id": args.pop("span_id", None),
            "parent_id": args.pop("parent_id", None),
            "start": args.pop("epoch", None) or ev.get("ts", 0) / 1e6,
            "dur_ms": ev.get("dur", 0.0) / 1000.0,
            "pid": ev.get("pid", 0),
            "status": args.pop("status", "ok"),
        }
        error_type = args.pop("error_type", None)
        if error_type:
            rec["error_type"] = error_type
        if args:
            rec["attrs"] = args
        out.append(rec)
    return out


def _record_like(obj: Any) -> bool:
    return isinstance(obj, dict) and "name" in obj and "dur_ms" in obj


def read_spans(path: str) -> list[dict[str, Any]]:
    """Load span records from a trace file: OTLP JSON, Chrome trace
    JSON, a raw JSON list of records, or JSONL with one record per line
    (a truncated line is skipped).

    Raises ``ValueError`` when the file holds none of those shapes.
    """
    with open(path, encoding="utf8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    if isinstance(doc, dict):
        if "resourceSpans" in doc:
            return _records_from_otlp(doc)
        if "traceEvents" in doc:
            return _records_from_chrome(doc)
        if _record_like(doc):
            return [doc]
        raise ValueError(f"{path}: unrecognized trace document shape")
    if isinstance(doc, list):
        return [r for r in doc if _record_like(r)]
    # JSONL: one record per line
    out: list[dict[str, Any]] = []
    parsed_any = False
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            continue
        parsed_any = True
        if _record_like(obj):
            out.append(obj)
    if not parsed_any:
        raise ValueError(f"{path}: not JSON, JSONL, or a known trace format")
    return out


def write_trace(
    path: str,
    spans: Iterable[dict[str, Any]],
    fmt: str = "chrome",
    driver_pid: Optional[int] = None,
) -> None:
    """Write span records to ``path`` as ``chrome`` trace-event JSON,
    ``otlp`` JSON, or a plain-text ``timeline``."""
    if driver_pid is None:
        driver_pid = os.getpid()
    spans = list(spans)
    if fmt == "chrome":
        doc: Any = chrome_trace(spans, driver_pid)
    elif fmt == "otlp":
        doc = otlp_spans(spans, driver_pid)
    elif fmt == "timeline":
        with open(path, "w", encoding="utf8") as fh:
            fh.write(render_timeline(spans))
            fh.write("\n")
        return
    else:
        raise ValueError(
            f"unknown trace format {fmt!r}; expected one of {TRACE_FORMATS}"
        )
    with open(path, "w", encoding="utf8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def render_timeline(spans: Iterable[dict[str, Any]]) -> str:
    """A terminal-friendly causal tree: roots ordered by wall-clock
    start, children indented under their parents, one line per span with
    offset, duration, pid, status, and attributes."""
    records = _by_start(spans)
    if not records:
        return "(no spans)"
    origin = records[0]["start"]
    by_id = {r["span_id"]: r for r in records if r.get("span_id")}
    children: dict[Optional[str], list[dict[str, Any]]] = {}
    for rec in records:
        parent = rec.get("parent_id")
        if parent is not None and parent not in by_id:
            parent = None  # parent unsampled or from an unexported process
        children.setdefault(parent, []).append(rec)

    lines: list[str] = []

    def emit(rec: dict[str, Any], depth: int) -> None:
        offset_ms = (rec["start"] - origin) * 1000.0
        status = rec.get("status", "ok")
        tail = "" if status == "ok" else f"  !{rec.get('error_type') or status}"
        attrs = rec.get("attrs") or {}
        if attrs:
            rendered = " ".join(f"{k}={v}" for k, v in attrs.items())
            tail += f"  [{rendered}]"
        lines.append(
            f"{offset_ms:>10.3f}ms  {'  ' * depth}{rec['name']}  "
            f"({rec.get('dur_ms', 0.0):.3f} ms, pid {rec.get('pid', 0)})"
            f"{tail}"
        )
        for kid in children.get(rec.get("span_id"), []) if rec.get("span_id") else []:
            emit(kid, depth + 1)

    for root in children.get(None, []):
        emit(root, 0)
    n_pids = len({r.get("pid") for r in records})
    traces = len({r.get("trace_id") for r in records if r.get("trace_id")})
    lines.append(
        f"-- {len(records)} span(s), {traces} trace(s), {n_pids} process(es)"
    )
    return "\n".join(lines)


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
