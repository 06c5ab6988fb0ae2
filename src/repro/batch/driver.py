"""Corpus-scale batch diffing with fault isolation (the ROADMAP's
production-batching step; the workload of the paper's Section 6
evaluation — thousands of changed file pairs from a repository history).

The driver fans file pairs out over :class:`repro.pool.DiffPool`, the
worker pool the daemon also runs on, one task per pair:

* **fault isolation** — a syntax error, timeout, or crash in one pair
  is recorded as a structured failure row and never aborts the run.
  Expected failures are caught inside the worker
  (:mod:`repro.batch.worker`); hard worker death is detected via the
  broken pool, which is rebuilt, and the in-flight pairs re-run one at a
  time until the culprit is known;
* **per-pair deadline and bounded retry** — a pair that runs past
  :attr:`BatchConfig.timeout_s` has its worker killed and the pool
  rebuilt; ``timeout``/``crash`` failures (transient by nature) are
  re-submitted up to :attr:`BatchConfig.retries` times;
* **streaming results** — rows are handed to the ``emit`` callback as
  they arrive (the CLI writes JSONL), so driver memory stays flat on
  large corpora; only the aggregate :class:`BatchSummary` accumulates.

Observability: the run is wrapped in a ``repro.batch.run`` span, and
each row bumps ``repro.batch.pairs`` / ``repro.batch.failures`` and
feeds the ``repro.batch.worker.ms`` histogram when instrumentation is
enabled.  With instrumentation on, the driver additionally hands the
pool a :class:`~repro.observability.aggregate.TelemetryCollector`:
every pair task carries an obs envelope (trace context + sampling),
workers return per-pair span/metric deltas inside the task result, and
the pool merges them into the driver's registry and trace buffer — so
``snapshot()`` after a batch run covers driver *and* workers, and
``take_spans()`` returns the causal trace of the run across all
processes.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Any, Callable, Iterable, Optional

from repro.observability import OBS, metrics as _metrics, span as _span
from repro.observability import tracing_enabled
from repro.observability.aggregate import TelemetryCollector
from repro.observability.tracing import TRACE
from repro.pool import DiffPool

from .worker import RETRYABLE_KINDS, pair_task


@dataclass(frozen=True)
class BatchConfig:
    """Knobs of the batch driver.

    ``workers=0`` (the default) uses ``os.cpu_count()`` worker
    processes; ``workers=1`` is a one-worker pool.  ``timeout_s=None``
    (or ``<= 0``) disables the per-pair deadline; ``retries`` bounds
    re-submission of timeout/crash failures.  ``fallback_replace``
    degrades internal diff errors to verified replace-root scripts
    (``status="degraded"`` rows) instead of failure rows.
    """

    workers: int = 0
    timeout_s: Optional[float] = 30.0
    retries: int = 1
    fallback_replace: bool = False

    def resolved_workers(self) -> int:
        if self.workers > 0:
            return self.workers
        return os.cpu_count() or 1


DEFAULT_CONFIG = BatchConfig()


@dataclass
class BatchSummary:
    """Aggregates of one batch run (everything else streams to ``emit``)."""

    pairs: int = 0
    ok: int = 0
    degraded: int = 0
    failed: int = 0
    retried: int = 0
    failures_by_kind: dict[str, int] = field(default_factory=dict)
    edits: int = 0
    nodes: int = 0
    worker_ms: float = 0.0
    elapsed_s: float = 0.0
    workers: int = 1
    #: collector's aggregation summary (envelopes, worker pids, span
    #: counts); ``None`` when instrumentation was off.
    telemetry: Optional[dict[str, Any]] = None

    @property
    def pairs_per_sec(self) -> float:
        return self.pairs / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def nodes_per_sec(self) -> float:
        return self.nodes / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "pairs": self.pairs,
            "ok": self.ok,
            "degraded": self.degraded,
            "failed": self.failed,
            "retried": self.retried,
            "failures_by_kind": dict(sorted(self.failures_by_kind.items())),
            "edits": self.edits,
            "nodes": self.nodes,
            "worker_ms": round(self.worker_ms, 1),
            "elapsed_s": round(self.elapsed_s, 3),
            "workers": self.workers,
            "pairs_per_sec": round(self.pairs_per_sec, 2),
            "nodes_per_sec": round(self.nodes_per_sec),
        }
        if self.telemetry is not None:
            out["telemetry"] = dict(self.telemetry)
        return out


def discover_pairs(
    before_dir: str, after_dir: str, pattern: str = "*.py"
) -> tuple[list[tuple[str, str]], list[str], list[str]]:
    """Match files of two directory trees by relative path.

    Returns ``(pairs, only_before, only_after)``; the unmatched lists let
    the caller report files that exist on one side only (added/deleted
    files are not diffable pairs).
    """
    before_root, after_root = Path(before_dir), Path(after_dir)
    if not before_root.is_dir():
        raise NotADirectoryError(f"not a directory: {before_dir}")
    if not after_root.is_dir():
        raise NotADirectoryError(f"not a directory: {after_dir}")
    before_files = {p.relative_to(before_root): p for p in before_root.rglob(pattern)}
    after_files = {p.relative_to(after_root): p for p in after_root.rglob(pattern)}
    pairs = [
        (str(before_files[rel]), str(after_files[rel]))
        for rel in sorted(before_files.keys() & after_files.keys())
    ]
    only_before = [str(before_files[r]) for r in sorted(before_files.keys() - after_files.keys())]
    only_after = [str(after_files[r]) for r in sorted(after_files.keys() - before_files.keys())]
    return pairs, only_before, only_after


def read_pairs_file(path: str) -> list[tuple[str, str]]:
    """Read explicit pairs, one per line: ``before<TAB>after`` (or two
    whitespace-separated paths); blank lines and ``#`` comments skipped."""
    pairs: list[tuple[str, str]] = []
    with open(path, encoding="utf8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t") if "\t" in line else line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected two paths, got {line!r}")
            pairs.append((parts[0], parts[1]))
    return pairs


def _error_row(
    before: str, after: str, kind: str, error: str, total_ms: float = 0.0
) -> dict[str, Any]:
    """The failure row the driver writes for a pair whose task returned
    none (its worker was killed or died, or the task could not run)."""
    return {
        "before": before,
        "after": after,
        "status": "error",
        "error_kind": kind,
        "error": error,
        "total_ms": round(total_ms, 3),
    }


class _RowSink:
    """Final accounting for finished rows: summary, metrics, callback."""

    def __init__(self, summary: BatchSummary, emit: Optional[Callable[[dict], None]]):
        self.summary = summary
        self.emit = emit

    def __call__(self, row: dict[str, Any], attempts: int) -> None:
        row["attempts"] = attempts
        s = self.summary
        s.pairs += 1
        s.worker_ms += row.get("total_ms") or 0.0
        if row["status"] == "ok":
            s.ok += 1
            s.edits += row["edits"]
            s.nodes += row["src_nodes"] + row["dst_nodes"]
        elif row["status"] == "degraded":
            # a verified replace-root script was emitted for this pair
            s.degraded += 1
            s.edits += row["edits"]
            s.nodes += row["src_nodes"] + row["dst_nodes"]
        else:
            s.failed += 1
            kind = row.get("error_kind", "internal")
            s.failures_by_kind[kind] = s.failures_by_kind.get(kind, 0) + 1
        if OBS.enabled:
            m = _metrics()
            m.counter("repro.batch.pairs").inc()
            if row["status"] == "degraded":
                m.counter("repro.batch.degraded").inc()
            elif row["status"] != "ok":
                m.counter("repro.batch.failures").inc()
            m.histogram("repro.batch.worker.ms").observe(row.get("total_ms") or 0.0)
        if self.emit is not None:
            self.emit(row)


def _run_pool(
    pairs: list[tuple[str, str]],
    config: BatchConfig,
    sink: _RowSink,
    pair_fn: Optional[Callable[[str, str], dict]],
    collector: Optional[TelemetryCollector],
) -> None:
    """The driver loop: one pool task per pair, blame-accurate failures.

    Up to ``2 * workers`` tasks are queued so no worker idles between
    pairs.  The pool starts tasks in submission order, so the running
    pairs are the oldest ``workers`` unfinished ones; a pair's deadline
    clock starts when it enters that set.  When the oldest running pair
    outlives ``timeout_s``, the pool kills its workers and rebuilds:
    that pair gets a charged ``timeout`` row, and every other in-flight
    pair is re-queued uncharged — the blame is known.

    When a worker dies, ``BrokenProcessPool`` fails *every* in-flight
    future, so the culprit is ambiguous.  The loop therefore moves all
    in-flight pairs to a ``suspects`` queue and re-runs them one at a
    time (nothing else in flight): a pair that breaks the pool while
    running alone is unambiguously to blame and is charged a retry;
    innocent pool-mates complete normally with their budget intact.
    Per-pair rows (syntax errors and the like) name their pair directly.
    Every execution, killed ones included, counts in the row's
    ``attempts``.
    """
    from concurrent.futures import FIRST_COMPLETED, wait

    workers = config.resolved_workers()
    retries = max(0, config.retries)
    timeout_s = config.timeout_s if config.timeout_s and config.timeout_s > 0 else None
    runs = [0] * len(pairs)  # executions, reported as the row's "attempts"
    charged = [0] * len(pairs)  # blamed failures, bounded by `retries`
    queue: deque[int] = deque(range(len(pairs)))
    suspects: deque[int] = deque()
    in_flight: dict[Any, int] = {}  # future -> pair, in submission order
    clock: dict[Any, float] = {}  # future -> when its pair started running
    pool = DiffPool(workers, collector)

    def submit(i: int) -> None:
        runs[i] += 1
        payload = {"before": pairs[i][0], "after": pairs[i][1], "pair_fn": pair_fn}
        in_flight[pool.submit(payload, pair_task)] = i

    def settle(i: int, row: dict[str, Any]) -> None:
        if row["status"] == "error" and row.get("error_kind") in RETRYABLE_KINDS:
            charged[i] += 1
            if charged[i] <= retries:
                sink.summary.retried += 1
                queue.append(i)
                return
        sink(row, runs[i])

    def abandon() -> list[int]:
        """Forget every in-flight future (the pool was just rebuilt)."""
        victims = list(in_flight.values())
        in_flight.clear()
        clock.clear()
        return victims

    try:
        while queue or suspects or in_flight:
            if suspects:
                # isolation mode: one suspect alone in the pool at a time
                if not in_flight:
                    submit(suspects.popleft())
            else:
                while queue and len(in_flight) < workers * 2:
                    submit(queue.popleft())
            wait_s = None
            if timeout_s is not None:
                now = time.monotonic()
                for fut in islice(in_flight, workers):
                    clock.setdefault(fut, now)
                oldest = next(iter(in_flight))
                wait_s = max(0.0, clock[oldest] + timeout_s - now)
            done, _ = wait(set(in_flight), timeout=wait_s, return_when=FIRST_COMPLETED)
            if not done:
                done = {oldest}  # past its deadline
            for fut in done:
                if fut not in in_flight:
                    continue  # already abandoned by a pool rebuild
                i = in_flight.pop(fut)
                started = clock.pop(fut, None)
                try:
                    row = pool.finish(fut, timeout_s=None if fut.done() else 0)
                except Exception as exc:  # the task itself failed: isolate it
                    error = " ".join((str(exc) or type(exc).__name__).split())
                    row = _error_row(*pairs[i], "internal", error)
                failure = row.get("error_type")
                if failure == "Timeout":
                    queue.extendleft(reversed(abandon()))
                    error = f"pair exceeded {timeout_s:g}s budget (worker killed, pool rebuilt)"
                    ran_ms = (time.monotonic() - started) * 1000
                    settle(i, _error_row(*pairs[i], "timeout", error, ran_ms))
                elif failure == "BrokenProcessPool":
                    victims = [i] + abandon()
                    if len(victims) == 1:
                        # ran alone: this pair provably killed the worker
                        charged[i] += 1
                        if charged[i] <= retries:
                            sink.summary.retried += 1
                            suspects.append(i)
                        else:
                            error = "worker process died (broken process pool)"
                            sink(_error_row(*pairs[i], "crash", error), runs[i])
                    else:
                        # ambiguous blame: re-run each victim in isolation,
                        # no retry budget charged
                        suspects.extend(victims)
                else:
                    settle(i, row)
    finally:
        pool.shutdown(wait=False)


def run_batch(
    pairs: Iterable[tuple[str, str]],
    config: BatchConfig = DEFAULT_CONFIG,
    emit: Optional[Callable[[dict], None]] = None,
    pair_fn: Optional[Callable[[str, str], dict]] = None,
) -> BatchSummary:
    """Diff every file pair, streaming result rows to ``emit``.

    Never raises for per-pair problems: each pair produces exactly one
    row (after retries), either ``status="ok"`` or a structured failure.
    ``pair_fn`` swaps the per-pair work function (tests inject sleeping /
    crashing functions to exercise the isolation machinery); it must be
    a picklable top-level callable.

    When instrumentation is enabled, worker metric deltas merge into the
    driver registry and worker spans into its trace buffer (drain them
    with ``take_spans()``), and ``summary.telemetry`` counts what was
    absorbed.
    """
    if pair_fn is None and config.fallback_replace:
        from .worker import diff_pair_degrading

        pair_fn = diff_pair_degrading
    pair_list = [(str(b), str(a)) for b, a in pairs]
    summary = BatchSummary(workers=config.resolved_workers())
    sink = _RowSink(summary, emit)
    collector = (
        TelemetryCollector(trace=tracing_enabled(), sample=TRACE.sample_n)
        if OBS.enabled
        else None
    )
    started = time.perf_counter()
    with _span("repro.batch.run") as sp:
        sp.set_attrs(pairs=len(pair_list), workers=summary.workers)
        # Tasks are submitted *inside* the run span, so the envelope each
        # carries parents the worker pair spans under it.
        _run_pool(pair_list, config, sink, pair_fn, collector)
    summary.elapsed_s = time.perf_counter() - started
    if collector is not None:
        summary.telemetry = collector.summary()
    return summary
