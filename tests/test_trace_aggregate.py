"""Tests for cross-process span/metric aggregation through the worker
pool: obs envelopes, worker telemetry deltas, the caller-side merge into
the process registry and trace buffer, and the ``--trace`` CLI surface.

The invariant under test: each worker envelope is merged once, into the
caller's registry and trace buffer, so after a batch run each merged
counter equals what the workers really counted — including runs that
hit per-pair timeouts and broken-pool recovery — and the trace buffer's
``max_spans`` bound holds for worker spans too.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import observability as obs
from repro.__main__ import main
from repro.batch import BatchConfig, discover_pairs, run_batch
from repro.batch.worker import pair_task
from repro.observability import span
from repro.observability.aggregate import TelemetryCollector, worker_telemetry
from repro.server import ReproService

FIXTURES = Path(__file__).parent / "fixtures" / "batch"
BEFORE = str(FIXTURES / "before")
AFTER = str(FIXTURES / "after")


@pytest.fixture(autouse=True)
def _clean_tracing():
    max_spans = obs.TRACE.max_spans
    obs.disable_tracing()
    obs.reset_tracing()
    obs.disable()
    obs.reset()
    yield
    obs.disable_tracing()
    obs.reset_tracing()
    obs.disable()
    obs.reset()
    obs.TRACE.max_spans = max_spans


def _fixture_pairs():
    pairs, _, _ = discover_pairs(BEFORE, AFTER)
    assert pairs
    return pairs


# -- injectable pair functions (top-level for pickling) --------------------


def _ok_row(before: str, after: str) -> dict:
    return {
        "before": before,
        "after": after,
        "status": "ok",
        "edits": 1,
        "edit_mix": {"update": 1},
        "src_nodes": 3,
        "dst_nodes": 3,
        "parse_ms": 0.0,
        "diff_ms": 0.0,
        "total_ms": 0.1,
    }


def counting_fn(before: str, after: str) -> dict:
    """Bumps a custom counter per pair — the quantity whose driver-side
    merge the aggregation invariant is asserted against."""
    obs.REGISTRY.counter("t.pairs_seen").inc()
    return _ok_row(before, after)


def slow_counting_fn(before: str, after: str) -> dict:
    if "slow" in before:
        time.sleep(10)
    return counting_fn(before, after)


def dying_counting_fn(before: str, after: str) -> dict:
    if "die" in before:
        os._exit(17)
    return counting_fn(before, after)


# -- pair task envelope contract ------------------------------------------


class TestPairTaskEnvelope:
    def test_envelope_call_returns_row_and_telemetry_key(self):
        obs.enable_tracing()
        collector = TelemetryCollector(trace=True)
        result = pair_task(
            {
                "before": f"{BEFORE}/simple.py",
                "after": f"{AFTER}/simple.py",
                "pair_fn": None,
            },
            collector.envelope(),
        )
        assert result["result"]["status"] == "ok"
        # in-process (driver pid): no delta envelope, spans stay local
        assert result["telemetry"] is None
        names = {r["name"] for r in obs.take_spans()}
        assert "repro.batch.pair" in names


# -- the aggregation invariant --------------------------------------------


class TestMergedCountersEqualWorkerSums:
    def test_happy_path_pool(self):
        obs.enable_tracing()
        pairs = [(f"p{i}.py", f"q{i}.py") for i in range(10)]
        summary = run_batch(
            pairs,
            BatchConfig(workers=2, timeout_s=5.0),
            pair_fn=counting_fn,
        )
        assert summary.ok == 10
        merged = obs.snapshot()["counters"]
        assert merged["t.pairs_seen"] == 10
        assert merged["repro.batch.worker.rows"] == 10
        assert summary.telemetry["envelopes"] == 10  # one per pair task

    def test_timeout_run_stays_consistent(self):
        obs.enable_tracing()
        pairs = [(f"p{i}.py", f"q{i}.py") for i in range(4)]
        pairs.insert(2, ("slow.py", "slow_after.py"))
        summary = run_batch(
            pairs,
            BatchConfig(workers=2, timeout_s=0.3, retries=0),
            pair_fn=slow_counting_fn,
        )
        assert summary.ok == 4
        assert summary.failures_by_kind.get("timeout") == 1
        merged = obs.snapshot()["counters"]
        # the timed-out pair never reached its counter bump, and its
        # killed worker never wrote a row: the driver wrote the timeout
        assert merged["t.pairs_seen"] == 4
        assert merged["repro.batch.worker.rows"] == 4

    def test_broken_pool_recovery_stays_consistent(self):
        obs.enable_tracing()
        pairs = [(f"p{i}.py", f"q{i}.py") for i in range(6)]
        pairs.insert(3, ("die.py", "die_after.py"))
        summary = run_batch(
            pairs,
            BatchConfig(workers=2, timeout_s=5.0, retries=1),
            pair_fn=dying_counting_fn,
        )
        assert summary.ok == 6
        assert summary.failed == 1
        assert summary.failures_by_kind == {"crash": 1}
        merged = obs.snapshot()["counters"]
        # a killed worker returns no envelope for its in-flight pair;
        # every task that did return merged both counters exactly once
        assert merged["t.pairs_seen"] == merged["repro.batch.worker.rows"]
        assert merged["t.pairs_seen"] >= 6  # every ok row was counted

    def test_one_worker_pool_ships_worker_telemetry(self):
        obs.enable_tracing()
        pairs = [(f"p{i}.py", f"q{i}.py") for i in range(3)]
        summary = run_batch(pairs, BatchConfig(workers=1), pair_fn=counting_fn)
        assert summary.ok == 3
        assert obs.snapshot()["counters"]["t.pairs_seen"] == 3
        assert len(summary.telemetry["workers"]) == 1  # one worker process
        names = [r["name"] for r in obs.take_spans()]
        assert names.count("repro.batch.pair") == 3
        assert "repro.batch.run" in names


class TestCausalTraceAcrossPool:
    def test_worker_spans_join_driver_trace(self):
        obs.enable_tracing()
        summary = run_batch(
            _fixture_pairs(),
            BatchConfig(workers=2, timeout_s=10.0),
        )
        assert summary.pairs > 0
        spans = obs.take_spans()
        pids = {r["pid"] for r in spans}
        assert len(pids) >= 2  # driver + at least one pool worker
        assert len({r["span_id"] for r in spans}) == len(spans)
        run_span = next(r for r in spans if r["name"] == "repro.batch.run")
        pair_spans = [r for r in spans if r["name"] == "repro.batch.pair"]
        assert pair_spans
        for pair in pair_spans:
            assert pair["trace_id"] == run_span["trace_id"]
            assert pair["parent_id"] == run_span["span_id"]
        # per-pass diff spans nest under their pair span
        passes = [r for r in spans if r["name"] == "repro.diff.assign_shares"]
        pair_ids = {r["span_id"] for r in pair_spans}
        diff_ids = {
            r["span_id"] for r in spans if r["name"] == "repro.diff"
        }
        assert passes
        for p in passes:
            assert p["parent_id"] in diff_ids | pair_ids

    def test_pair_span_records_failure_outcome(self):
        obs.enable_tracing()
        run_batch(
            [(f"{BEFORE}/poison.py", f"{AFTER}/poison.py")],
            BatchConfig(workers=1),
        )
        pair = next(
            r for r in obs.take_spans() if r["name"] == "repro.batch.pair"
        )
        assert pair["status"] == "error"
        assert pair["error_type"] == "syntax"
        assert pair["attrs"]["status"] == "error"


# -- one trace buffer: worker spans share the caller's bound ----------------

SOURCE = "def f(x):\n    return x + 1\n"


def _pooled_diffs(n: int) -> None:
    """``n`` pooled diffs on a fresh one-worker daemon with traced workers."""
    service = ReproService(workers=1, collector=TelemetryCollector(trace=True))
    try:
        for i in range(n):
            after = SOURCE.replace("1", str(i + 2))
            service.handle(
                "diff", {"before": {"source": SOURCE}, "after": {"source": after}}
            )
    finally:
        service.close()


class TestCallerTraceBuffer:
    def test_worker_span_drops_count_once(self):
        obs.enable_tracing(max_spans=1)
        as_worker = {"driver_pid": -1}  # not this pid: act as a pool worker
        envelopes = []
        for _ in range(2):
            with span("t.kept"):
                pass
            with span("t.dropped"):  # the one-span buffer is full
                pass
            envelopes.append(worker_telemetry(as_worker))
        # each envelope reports the drops of its own task only
        assert [len(e["spans"]) for e in envelopes] == [1, 1]
        assert [e["dropped_spans"] for e in envelopes] == [1, 1]
        # the caller, with room to spare, adds each drop once
        obs.reset_tracing()
        obs.enable_tracing()
        collector = TelemetryCollector(trace=True)
        for envelope in envelopes:
            collector.absorb(envelope)
        assert [r["name"] for r in obs.take_spans()] == ["t.kept", "t.kept"]
        assert obs.TRACE.dropped == 2
        assert collector.summary()["dropped_spans"] == 2

    def test_concurrent_absorbs_lose_nothing(self):
        # the daemon resolves pool tasks on many request threads at once
        obs.enable_tracing()
        collector = TelemetryCollector(trace=True)
        envelope = {
            "pid": 7,
            "spans": [{"name": "t.s", "dur_ms": 0.0}],
            "metrics": {"counters": {"t.c": 1}},
            "dropped_spans": 1,
        }
        threads, per = 8, 500

        def absorb_many() -> None:
            for _ in range(per):
                collector.absorb(envelope)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=absorb_many) for _ in range(threads)]
            for t in workers:
                t.start()
            for t in workers:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers)
        total = threads * per
        assert collector.summary() == {
            "envelopes": total, "workers": [7], "spans": total, "dropped_spans": total,
        }
        assert obs.snapshot()["counters"]["t.c"] == total
        assert obs.span_count() == total
        assert obs.TRACE.dropped == total

    def test_daemon_trace_buffer_bounds_worker_spans(self):
        obs.enable_tracing()
        _pooled_diffs(30)
        everything = obs.take_spans()
        assert obs.TRACE.dropped == 0
        # the worker's spans landed in this process's buffer
        assert len({r["pid"] for r in everything}) == 2
        assert len(everything) > 50

        obs.reset_tracing()
        obs.enable_tracing(max_spans=50)
        _pooled_diffs(30)
        kept = obs.take_spans()
        assert len(kept) == 50
        assert len(kept) + obs.TRACE.dropped == len(everything)


# -- CLI surface ----------------------------------------------------------


class TestTraceCLI:
    def test_batch_trace_writes_chrome_json_with_two_pids(
        self, tmp_path, capsys
    ):
        out = tmp_path / "trace.json"
        rc = main(
            [
                "batch", BEFORE, AFTER,
                "--workers", "2",
                "--out", str(tmp_path / "rows.jsonl"),
                "--trace", str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len({e["pid"] for e in xs}) >= 2
        names = {e["name"] for e in xs}
        assert "repro.batch.run" in names
        assert "repro.batch.pair" in names
        assert "repro: trace:" in capsys.readouterr().err

    def test_batch_trace_otlp_format(self, tmp_path, capsys):
        out = tmp_path / "trace.otlp.json"
        rc = main(
            [
                "batch", BEFORE, AFTER,
                "--workers", "1",
                "--out", str(tmp_path / "rows.jsonl"),
                "--trace", str(out),
                "--trace-format", "otlp",
            ]
        )
        assert rc == 0
        assert "resourceSpans" in json.loads(out.read_text())

    def test_batch_trace_sample_rejects_garbage(self, tmp_path, capsys):
        rc = main(
            [
                "batch", BEFORE, AFTER,
                "--out", str(tmp_path / "rows.jsonl"),
                "--trace", str(tmp_path / "t.json"),
                "--sample", "nope",
            ]
        )
        assert rc == 2

    def test_diff_trace_records_pass_spans(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        rc = main(
            [
                "diff",
                f"{BEFORE}/simple.py",
                f"{AFTER}/simple.py",
                "--trace", str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"repro.diff", "repro.diff.assign_shares",
                "repro.diff.validate"} <= names

    def test_trace_subcommand_renders_timeline(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        main(
            [
                "diff",
                f"{BEFORE}/simple.py",
                f"{AFTER}/simple.py",
                "--trace", str(out),
            ]
        )
        capsys.readouterr()
        rc = main(["trace", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "repro.diff" in text
        assert "span(s)" in text

    def test_trace_subcommand_converts_formats(self, tmp_path, capsys):
        src = tmp_path / "trace.json"
        main(
            [
                "diff",
                f"{BEFORE}/simple.py",
                f"{AFTER}/simple.py",
                "--trace", str(src),
            ]
        )
        dst = tmp_path / "trace.otlp.json"
        rc = main(["trace", str(src), "--format", "otlp", "--out", str(dst)])
        assert rc == 0
        assert "resourceSpans" in json.loads(dst.read_text())

    def test_trace_subcommand_bad_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "junk.txt"
        bad.write_text("hello\n")
        assert main(["trace", str(bad)]) == 2
        assert main(["trace", str(tmp_path / "missing.json")]) == 2
