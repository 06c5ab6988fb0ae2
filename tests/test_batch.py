"""Tests for the parallel batch-diff driver (``repro.batch``).

The fault-isolation machinery is exercised with injectable pair
functions (picklable top-level callables): a sleeper for the per-pair
deadline, a hard ``os._exit`` for worker death / broken-pool recovery,
and a marker-file flake for the bounded-retry path.
"""

from __future__ import annotations

import json
import os
import signal
import time
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.batch import (
    BatchConfig,
    RETRYABLE_KINDS,
    diff_pair,
    diff_pair_degrading,
    discover_pairs,
    read_pairs_file,
    run_batch,
)

FIXTURES = Path(__file__).parent / "fixtures" / "batch"
BEFORE = str(FIXTURES / "before")
AFTER = str(FIXTURES / "after")


# -- injectable pair functions (must be top-level for pickling) -----------


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


def sleepy_fn(before: str, after: str) -> dict:
    if "slow" in before:
        time.sleep(10)
    return _ok_row(before, after)


def exiting_fn(before: str, after: str) -> dict:
    if "die" in before:
        os._exit(17)
    return _ok_row(before, after)


def flaky_fn(before: str, after: str) -> dict:
    """Outlives the deadline once, then succeeds: ``after`` names a
    marker file."""
    if not os.path.exists(after):
        with open(after, "w", encoding="utf8") as fh:
            fh.write("attempted\n")
        time.sleep(10)
    return _ok_row(before, after)


def raising_fn(before: str, after: str) -> dict:
    if "boom" in before:
        raise RuntimeError("pair exploded")
    return _ok_row(before, after)


def alarm_masking_fn(before: str, after: str) -> dict:
    """Blocks SIGALRM, then runs past any short deadline."""
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    time.sleep(4)
    return _ok_row(before, after)


# -- pair discovery -------------------------------------------------------


class TestDiscovery:
    def test_discover_pairs_matches_relative_paths(self):
        pairs, only_before, only_after = discover_pairs(BEFORE, AFTER)
        rels = [os.path.relpath(b, BEFORE) for b, _ in pairs]
        assert rels == sorted(rels)
        assert set(rels) == {
            "poison.py",
            "simple.py",
            "unchanged.py",
            os.path.join("pkg", "util.py"),
        }
        assert [os.path.basename(p) for p in only_before] == ["only_before.py"]
        assert [os.path.basename(p) for p in only_after] == ["only_after.py"]

    def test_discover_pairs_rejects_non_directory(self, tmp_path):
        with pytest.raises(NotADirectoryError):
            discover_pairs(str(tmp_path / "nope"), AFTER)

    def test_read_pairs_file(self, tmp_path):
        listing = tmp_path / "pairs.txt"
        listing.write_text(
            "# comment\n"
            "a.py\tb.py\n"
            "\n"
            "c.py d.py\n",
            encoding="utf8",
        )
        assert read_pairs_file(str(listing)) == [("a.py", "b.py"), ("c.py", "d.py")]

    def test_read_pairs_file_rejects_bad_line(self, tmp_path):
        listing = tmp_path / "pairs.txt"
        listing.write_text("just-one-path\n", encoding="utf8")
        with pytest.raises(ValueError, match="pairs.txt:1"):
            read_pairs_file(str(listing))


# -- the per-pair worker --------------------------------------------------


class TestDiffPair:
    def test_ok_row_shape(self):
        row = diff_pair(
            os.path.join(BEFORE, "simple.py"), os.path.join(AFTER, "simple.py")
        )
        assert row["status"] == "ok"
        assert row["edits"] > 0  # includes the 1 -> True literal fix
        assert row["edits"] == sum(row["edit_mix"].values()) or row["edit_mix"]
        assert row["src_nodes"] > 0 and row["dst_nodes"] > 0
        assert row["parse_ms"] >= 0 and row["diff_ms"] >= 0
        # the truelint verdict rides along on every ok row
        assert row["lint"]["clean"] is True
        assert row["lint"]["findings"] == 0 and row["lint"]["codes"] == {}

    def test_unchanged_pair_is_empty(self):
        row = diff_pair(
            os.path.join(BEFORE, "unchanged.py"), os.path.join(AFTER, "unchanged.py")
        )
        assert row["status"] == "ok"
        assert row["edits"] == 0

    def test_syntax_error_is_structured_failure(self):
        row = diff_pair(
            os.path.join(BEFORE, "poison.py"), os.path.join(AFTER, "poison.py")
        )
        assert row["status"] == "error"
        assert row["error_kind"] == "syntax"
        assert "line 1" in row["error"]
        assert "\n" not in row["error"]

    def test_missing_file_is_io_failure(self):
        row = diff_pair("/nonexistent/a.py", "/nonexistent/b.py")
        assert row["status"] == "error"
        assert row["error_kind"] == "io"


# -- graceful degradation: replace-root fallback on internal errors -------


def _broken_diff(src, dst):
    raise RuntimeError("simulated differ bug")


class TestDegradation:
    PAIR = (os.path.join(BEFORE, "simple.py"), os.path.join(AFTER, "simple.py"))

    def test_internal_failure_degrades_to_replace_root(self, monkeypatch):
        import repro.core

        monkeypatch.setattr(repro.core, "diff", _broken_diff)
        row = diff_pair(*self.PAIR, fallback_replace=True)
        assert row["status"] == "degraded"
        assert row["fallback"] == "replace_root"
        assert row["error_kind"] == "internal"
        assert "simulated differ bug" in row["error"]
        # replace-root script: whole source unloaded, whole target loaded
        assert row["edits"] == row["src_nodes"] + row["dst_nodes"]
        # edit_mix counts primitives; the two coalesced composites (Remove
        # of the old root, Insert of the new) each expand to two
        assert sum(row["edit_mix"].values()) == row["edits"] + 2

    def test_internal_failure_without_fallback_records_integrity(self, monkeypatch):
        import repro.core

        monkeypatch.setattr(repro.core, "diff", _broken_diff)
        row = diff_pair(*self.PAIR)
        assert row["status"] == "error"
        assert row["error_kind"] == "internal"
        assert row["integrity"] == "src: ok; dst: ok"

    def test_syntax_failure_never_degrades(self):
        row = diff_pair(
            os.path.join(BEFORE, "poison.py"),
            os.path.join(AFTER, "poison.py"),
            fallback_replace=True,
        )
        assert row["status"] == "error" and row["error_kind"] == "syntax"

    def test_run_batch_counts_degraded_rows(self, monkeypatch):
        import repro.core
        from repro import observability as obs

        monkeypatch.setattr(repro.core, "diff", _broken_diff)
        pairs, _, _ = discover_pairs(BEFORE, AFTER)
        rows: list[dict] = []
        obs.reset()
        obs.enable()
        try:
            summary = run_batch(
                pairs,
                BatchConfig(workers=1, timeout_s=20.0, fallback_replace=True),
                emit=rows.append,
            )
            snap = obs.snapshot()
        finally:
            obs.disable()
            obs.reset()
        assert summary.pairs == 4
        assert summary.degraded == 3  # poison.py keeps its syntax failure
        assert summary.ok == 0 and summary.failed == 1
        assert summary.failures_by_kind == {"syntax": 1}
        assert summary.edits > 0 and summary.nodes > 0
        assert summary.as_dict()["degraded"] == 3
        assert snap["counters"]["repro.batch.degraded"] == 3
        assert snap["counters"]["repro.batch.failures"] == 1
        statuses = {r["before"]: r["status"] for r in rows}
        assert sum(1 for s in statuses.values() if s == "degraded") == 3

    def test_degrading_wrapper_is_plain_diff_when_healthy(self):
        row = diff_pair_degrading(*self.PAIR)
        assert row["status"] == "ok"


# -- the driver: corpus runs with fault isolation -------------------------


def _run_corpus(workers: int) -> tuple[list[dict], "object"]:
    pairs, _, _ = discover_pairs(BEFORE, AFTER)
    rows: list[dict] = []
    summary = run_batch(
        pairs, BatchConfig(workers=workers, timeout_s=20.0), emit=rows.append
    )
    return rows, summary


class TestRunBatch:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_poisoned_corpus_completes(self, workers):
        rows, summary = _run_corpus(workers)
        assert summary.pairs == 4
        assert summary.ok == 3
        assert summary.failed == 1
        assert summary.failures_by_kind == {"syntax": 1}
        assert len(rows) == len({r["before"] for r in rows}) == 4
        poison = next(r for r in rows if "poison" in r["before"])
        assert poison["status"] == "error" and poison["error_kind"] == "syntax"
        assert summary.edits > 0 and summary.nodes > 0
        assert summary.elapsed_s > 0

    def test_empty_corpus(self):
        summary = run_batch([], BatchConfig(workers=1))
        assert summary.pairs == 0 and summary.ok == 0 and summary.failed == 0

    def test_timeout_is_recorded_not_fatal(self):
        rows: list[dict] = []
        summary = run_batch(
            [("slow.py", "x.py"), ("fast.py", "y.py")],
            BatchConfig(workers=1, timeout_s=0.2, retries=0),
            emit=rows.append,
            pair_fn=sleepy_fn,
        )
        assert summary.failed == 1 and summary.ok == 1
        slow = next(r for r in rows if r["before"] == "slow.py")
        assert slow["error_kind"] == "timeout"
        assert "timeout" in RETRYABLE_KINDS
        assert slow["attempts"] == 1

    def test_timeout_retry_is_bounded(self):
        rows: list[dict] = []
        summary = run_batch(
            [("slow.py", "x.py")],
            BatchConfig(workers=1, timeout_s=0.2, retries=1),
            emit=rows.append,
            pair_fn=sleepy_fn,
        )
        assert summary.retried == 1
        assert rows[0]["error_kind"] == "timeout"
        assert rows[0]["attempts"] == 2

    def test_transient_failure_retries_to_success(self, tmp_path):
        marker = str(tmp_path / "marker.txt")
        rows: list[dict] = []
        summary = run_batch(
            [("flaky.py", marker)],
            BatchConfig(workers=1, timeout_s=0.5, retries=1),
            emit=rows.append,
            pair_fn=flaky_fn,
        )
        assert summary.ok == 1 and summary.failed == 0
        assert summary.retried == 1
        assert rows[0]["status"] == "ok" and rows[0]["attempts"] == 2

    @pytest.mark.skipif(
        not hasattr(signal, "pthread_sigmask"), reason="needs POSIX signal masks"
    )
    def test_pair_masking_sigalrm_still_stops_at_deadline(self):
        """The deadline is enforced from the driver by killing the
        worker, so a pair cannot escape it by masking signals."""
        rows: list[dict] = []
        started = time.monotonic()
        run_batch(
            [("masked.py", "x.py")],
            BatchConfig(workers=1, timeout_s=0.5, retries=0),
            emit=rows.append,
            pair_fn=alarm_masking_fn,
        )
        assert time.monotonic() - started < 3
        assert rows[0]["error_kind"] == "timeout"

    def test_pair_errors_become_failure_rows(self):
        rows: list[dict] = []
        summary = run_batch(
            [("boom.py", "x.py"), ("ok.py", "y.py")],
            BatchConfig(workers=1, retries=1),
            emit=rows.append,
            pair_fn=raising_fn,
        )
        assert summary.ok == 1 and summary.failures_by_kind == {"internal": 1}
        boom = next(r for r in rows if r["before"] == "boom.py")
        assert boom["error"] == "pair exploded" and boom["attempts"] == 1

    def test_timeout_enforced_off_main_thread(self):
        """The deadline needs no signal, so a caller driving the batch
        from another thread (an executor thread of a server) keeps it."""
        import threading

        rows: list[dict] = []

        def run() -> None:
            run_batch(
                [("slow-before", "slow-after")],
                BatchConfig(workers=1, timeout_s=0.2, retries=0),
                emit=rows.append,
                pair_fn=sleepy_fn,
            )

        t = threading.Thread(target=run)
        started = time.monotonic()
        t.start()
        t.join(30)
        assert not t.is_alive(), "off-main-thread batch never returned"
        assert time.monotonic() - started < 8
        (row,) = rows
        assert row["status"] == "error" and row["error_kind"] == "timeout"

    def test_worker_death_breaks_pool_but_not_run(self):
        rows: list[dict] = []
        summary = run_batch(
            [("die.py", "x.py"), ("ok1.py", "y.py"), ("ok2.py", "z.py")],
            BatchConfig(workers=2, timeout_s=20.0, retries=1),
            emit=rows.append,
            pair_fn=exiting_fn,
        )
        assert summary.pairs == 3
        dead = next(r for r in rows if r["before"] == "die.py")
        assert dead["status"] == "error" and dead["error_kind"] == "crash"
        # charged a bounded retry after isolation pinned the blame on it
        assert dead["attempts"] >= 2
        assert summary.retried >= 1
        # innocent pairs may get caught in a broken pool but must end ok
        assert {r["before"]: r["status"] for r in rows if r["before"] != "die.py"} == {
            "ok1.py": "ok",
            "ok2.py": "ok",
        }

    def test_run_loads_no_daemon_modules(self):
        """The pool lives outside ``repro.server``: a batch run, and every
        worker it forks, loads none of the daemon's asyncio/HTTP stack."""
        import subprocess
        import sys

        import repro

        code = (
            "import sys\n"
            "from repro.batch import BatchConfig, discover_pairs, run_batch\n"
            f"pairs, _, _ = discover_pairs({BEFORE!r}, {AFTER!r})\n"
            "assert run_batch(pairs, BatchConfig(workers=2)).ok == 3\n"
            "print(sorted(m for m in sys.modules if m.startswith('repro.server')))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"

    def test_metrics_counters(self):
        from repro import observability as obs

        obs.reset()
        obs.enable()
        try:
            _run_corpus(workers=1)
            snap = obs.snapshot()
        finally:
            obs.disable()
            obs.reset()
        assert snap["counters"]["repro.batch.pairs"] == 4
        assert snap["counters"]["repro.batch.failures"] == 1
        assert snap["histograms"]["repro.batch.worker.ms"]["count"] == 4
        assert "repro.batch.run.ms" in snap["histograms"]


# -- the CLI front end ----------------------------------------------------


class TestBatchCLI:
    def test_directory_run_writes_jsonl_and_summary(self, tmp_path, capsys):
        out = tmp_path / "rows.jsonl"
        summary_path = tmp_path / "summary.json"
        code = main(
            [
                "batch",
                BEFORE,
                AFTER,
                "--workers",
                "1",
                "--out",
                str(out),
                "--summary",
                str(summary_path),
            ]
        )
        assert code == 0
        rows = [json.loads(line) for line in out.read_text("utf8").splitlines()]
        assert len(rows) == 4
        assert {r["status"] for r in rows} == {"ok", "error"}
        summary = json.loads(summary_path.read_text("utf8"))
        assert summary["ok"] == 3 and summary["failed"] == 1
        assert summary["failures_by_kind"] == {"syntax": 1}
        err = capsys.readouterr().err
        assert "3/4 ok" in err
        assert "skipping 1 before-only and 1 after-only" in err

    def test_rows_stream_to_stdout_by_default(self, capsys):
        code = main(["batch", BEFORE, AFTER, "--workers", "1", "--glob", "simple.py"])
        assert code == 0
        out = capsys.readouterr().out
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 1 and rows[0]["status"] == "ok"

    def test_pairs_file_input(self, tmp_path, capsys):
        listing = tmp_path / "pairs.txt"
        listing.write_text(
            f"{BEFORE}/simple.py\t{AFTER}/simple.py\n", encoding="utf8"
        )
        code = main(["batch", BEFORE, "--pairs", str(listing), "--workers", "1"])
        assert code == 0
        assert "1/1 ok" in capsys.readouterr().err

    def test_all_failures_exit_1(self, capsys):
        code = main(["batch", BEFORE, AFTER, "--workers", "1", "--glob", "poison.py"])
        assert code == 1
        assert "0/1 ok" in capsys.readouterr().err

    def test_missing_after_dir_is_cli_error(self, capsys):
        code = main(["batch", BEFORE])
        assert code == 2
        assert capsys.readouterr().err.startswith("repro: ")

    def test_nonexistent_directory_is_cli_error(self, tmp_path, capsys):
        code = main(["batch", str(tmp_path / "nope"), AFTER])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: ") and "not a directory" in err

    @pytest.mark.parametrize(
        "flag,value", [("--workers", "-3"), ("--retries", "-1"), ("--timeout", "-5")]
    )
    def test_negative_numbers_are_cli_errors(self, flag, value, capsys):
        code = main(["batch", BEFORE, AFTER, flag, value])
        assert code == 2
        assert capsys.readouterr().err == f"repro: {flag}: must be >= 0, got {value}\n"

    def test_bad_pairs_file_is_cli_error(self, tmp_path, capsys):
        listing = tmp_path / "pairs.txt"
        listing.write_text("one-path-only\n", encoding="utf8")
        code = main(["batch", BEFORE, "--pairs", str(listing)])
        assert code == 2
        assert capsys.readouterr().err.startswith("repro: ")

    def test_fallback_replace_flag(self, tmp_path, capsys, monkeypatch):
        import repro.core

        monkeypatch.setattr(repro.core, "diff", _broken_diff)
        out = tmp_path / "rows.jsonl"
        code = main(
            [
                "batch",
                BEFORE,
                AFTER,
                "--workers",
                "1",
                "--fallback-replace",
                "--out",
                str(out),
            ]
        )
        # every parseable pair degrades; that still counts as output
        assert code == 0
        rows = [json.loads(line) for line in out.read_text("utf8").splitlines()]
        assert sum(1 for r in rows if r["status"] == "degraded") == 3
        err = capsys.readouterr().err
        assert "0/4 ok, 3 degraded, 1 failed" in err

    def test_metrics_flag_reports_batch_counters(self, tmp_path, capsys):
        out = tmp_path / "rows.jsonl"
        code = main(
            ["batch", BEFORE, AFTER, "--workers", "1", "--out", str(out), "--metrics", "json"]
        )
        assert code == 0
        err = capsys.readouterr().err
        payload = err[err.index("{") : err.rindex("}") + 1]
        snap = json.loads(payload)
        assert snap["counters"]["repro.batch.pairs"] == 4
        assert snap["counters"]["repro.batch.failures"] == 1
