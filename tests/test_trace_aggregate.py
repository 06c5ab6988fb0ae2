"""Tests for cross-process span/metric aggregation through the batch
pool: obs envelopes, worker telemetry deltas, spill files, driver-side
merging, and the ``--trace`` CLI surface.

The driver-side invariant under test: after a batch run, each merged
counter in the driver registry equals the sum of the per-worker
snapshots plus the driver's own contribution — including runs that hit
per-pair timeouts and broken-pool recovery.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro import observability as obs
from repro.__main__ import main
from repro.batch import BatchConfig, discover_pairs, run_batch
from repro.batch.worker import pair_task
from repro.observability.aggregate import TelemetryCollector, read_spill_dir

FIXTURES = Path(__file__).parent / "fixtures" / "batch"
BEFORE = str(FIXTURES / "before")
AFTER = str(FIXTURES / "after")


@pytest.fixture(autouse=True)
def _clean_tracing():
    obs.disable_tracing()
    obs.reset_tracing()
    obs.disable()
    obs.reset()
    yield
    obs.disable_tracing()
    obs.reset_tracing()
    obs.disable()
    obs.reset()


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


def _rows_sum(per_worker: dict, counter: str) -> int:
    return sum(s["counters"].get(counter, 0) for s in per_worker.values())


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
        collector = TelemetryCollector(trace=True)
        summary = run_batch(
            pairs,
            BatchConfig(workers=2, timeout_s=5.0),
            pair_fn=counting_fn,
            collector=collector,
        )
        assert summary.ok == 10
        merged = obs.snapshot()["counters"]
        assert merged["t.pairs_seen"] == 10
        assert _rows_sum(summary.per_worker, "t.pairs_seen") == 10
        assert _rows_sum(summary.per_worker, "repro.batch.worker.rows") == 10

    def test_timeout_run_stays_consistent(self):
        obs.enable_tracing()
        pairs = [(f"p{i}.py", f"q{i}.py") for i in range(4)]
        pairs.insert(2, ("slow.py", "slow_after.py"))
        collector = TelemetryCollector(trace=True)
        summary = run_batch(
            pairs,
            BatchConfig(workers=2, timeout_s=0.3, retries=0),
            pair_fn=slow_counting_fn,
            collector=collector,
        )
        assert summary.ok == 4
        assert summary.failures_by_kind.get("timeout") == 1
        merged = obs.snapshot()["counters"]
        # the timed-out pair never reached its counter bump, and its
        # killed worker never wrote a row: the driver wrote the timeout
        assert merged["t.pairs_seen"] == 4
        assert merged["t.pairs_seen"] == _rows_sum(
            summary.per_worker, "t.pairs_seen"
        )
        assert _rows_sum(summary.per_worker, "repro.batch.worker.rows") == 4

    def test_broken_pool_recovery_stays_consistent(self, tmp_path):
        obs.enable_tracing()
        spill = tmp_path / "spill"
        spill.mkdir()
        pairs = [(f"p{i}.py", f"q{i}.py") for i in range(6)]
        pairs.insert(3, ("die.py", "die_after.py"))
        collector = TelemetryCollector(trace=True, spill_dir=str(spill))
        summary = run_batch(
            pairs,
            BatchConfig(workers=2, timeout_s=5.0, retries=1),
            pair_fn=dying_counting_fn,
            collector=collector,
        )
        assert summary.ok == 6
        assert summary.failed == 1
        assert summary.failures_by_kind == {"crash": 1}
        merged = obs.snapshot()["counters"]
        # a killed worker loses at most its in-flight pairs' counts;
        # whatever was spilled or returned must agree on both sides
        assert merged["t.pairs_seen"] == _rows_sum(
            summary.per_worker, "t.pairs_seen"
        )
        assert merged["t.pairs_seen"] >= 6  # every ok row was counted

    def test_one_worker_pool_ships_worker_telemetry(self):
        obs.enable_tracing()
        pairs = [(f"p{i}.py", f"q{i}.py") for i in range(3)]
        collector = TelemetryCollector(trace=True)
        summary = run_batch(
            pairs, BatchConfig(workers=1), pair_fn=counting_fn, collector=collector
        )
        assert summary.ok == 3
        assert obs.snapshot()["counters"]["t.pairs_seen"] == 3
        assert len(summary.per_worker) == 1  # one worker process
        assert _rows_sum(summary.per_worker, "t.pairs_seen") == 3
        names = [r["name"] for r in collector.finish()]
        assert names.count("repro.batch.pair") == 3
        assert "repro.batch.run" in names


class TestCausalTraceAcrossPool:
    def test_worker_spans_join_driver_trace(self):
        obs.enable_tracing()
        collector = TelemetryCollector(trace=True)
        summary = run_batch(
            _fixture_pairs(),
            BatchConfig(workers=2, timeout_s=10.0),
            collector=collector,
        )
        assert summary.pairs > 0
        spans = collector.finish()
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
        collector = TelemetryCollector(trace=True)
        run_batch(
            [(f"{BEFORE}/poison.py", f"{AFTER}/poison.py")],
            BatchConfig(workers=1),
            collector=collector,
        )
        pair = next(
            r for r in collector.finish() if r["name"] == "repro.batch.pair"
        )
        assert pair["status"] == "error"
        assert pair["error_type"] == "syntax"
        assert pair["attrs"]["status"] == "error"

    def test_spill_files_survive_and_merge(self, tmp_path):
        obs.enable_tracing()
        spill = tmp_path / "spill"
        spill.mkdir()
        collector = TelemetryCollector(trace=True, spill_dir=str(spill))
        run_batch(
            _fixture_pairs(),
            BatchConfig(workers=2, timeout_s=10.0),
            collector=collector,
        )
        spans = collector.finish()
        assert len({r["pid"] for r in spans}) >= 2
        # envelopes went through the spill dir, not the pickle channel
        assert collector.summary()["envelopes"] > 0
        assert read_spill_dir(str(spill))  # files really were written

    def test_absorb_spills_is_idempotent(self, tmp_path):
        spill = tmp_path / "spill"
        spill.mkdir()
        (spill / "worker-1.jsonl").write_text(
            json.dumps(
                {"pid": 1, "spans": [], "metrics": {"counters": {"c": 2}}}
            )
            + "\n"
        )
        obs.enable()
        collector = TelemetryCollector(trace=False, spill_dir=str(spill))
        assert collector.absorb_spills() == 1
        assert collector.absorb_spills() == 0
        collector.finish()
        assert obs.snapshot()["counters"]["c"] == 2


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


# -- spill recovery: a worker killed mid-write ----------------------------


class TestTruncatedSpill:
    GOOD = {
        "pid": 41,
        "seq": 1,
        "spans": [],
        "metrics": {"counters": {"repro.test.spilled": 2}, "gauges": {}, "histograms": {}},
        "dropped_spans": 0,
    }

    def _spill_with_torn_tail(self, tmp_path):
        spill = tmp_path / "spill"
        spill.mkdir()
        line = json.dumps(self.GOOD)
        # a complete envelope, a non-envelope JSON value (a torn write
        # that still happens to parse), and a half-written final line
        (spill / "worker-41.jsonl").write_text(
            line + "\n" + "42\n" + line[: len(line) // 2], encoding="utf8"
        )
        return spill

    def test_read_skips_and_counts_bad_lines(self, tmp_path):
        spill = self._spill_with_torn_tail(tmp_path)
        stats: dict = {}
        envelopes = read_spill_dir(str(spill), stats)
        assert len(envelopes) == 1
        assert envelopes[0]["pid"] == 41
        assert stats["skipped_lines"] == 2
        assert stats["skipped_files"] == 0

    def test_absorb_spills_merges_survivors_and_counts_losses(self, tmp_path):
        spill = self._spill_with_torn_tail(tmp_path)
        obs.enable()
        collector = TelemetryCollector(spill_dir=str(spill))
        assert collector.absorb_spills() == 1
        assert collector.spill_skipped == 2
        assert collector.summary()["spill_skipped"] == 2
        # the intact envelope really merged, torn tail notwithstanding
        assert obs.snapshot()["counters"]["repro.test.spilled"] == 2
        assert 41 in collector.per_worker
        # idempotent: a second pass reads nothing and counts nothing new
        assert collector.absorb_spills() == 0
        assert collector.spill_skipped == 2

    def test_clean_spill_counts_zero_skips(self, tmp_path):
        spill = tmp_path / "spill"
        spill.mkdir()
        (spill / "worker-41.jsonl").write_text(
            json.dumps(self.GOOD) + "\n", encoding="utf8"
        )
        collector = TelemetryCollector(spill_dir=str(spill))
        assert collector.absorb_spills() == 1
        assert collector.summary()["spill_skipped"] == 0
