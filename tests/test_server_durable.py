"""Tests for the durable server layer (``repro.server.durable``) and the
robustness plumbing around it: CRC journal framing, crash-safe snapshots
+ write-ahead journal, verified replay recovery, damage tolerance
(torn tails, flipped bytes, forged records), single-owner locking, and
the pool's wedged-worker deadline path.

The full crash matrix (kill -9 mid-apply, slow-loris, overload shedding)
lives in the ``chaos`` suite (``python -m repro.campaign chaos``) —
these tests pin the unit semantics the chaos suite builds on.
"""

from __future__ import annotations

import json
import zlib

import pytest

from repro.__main__ import main
from repro.core.serialize import script_from_json
from repro.server import (
    DataDirLocked,
    DiffPool,
    DurableTreeStore,
    ReproService,
    TreeStore,
    UnknownFingerprint,
    diff_trees,
    frame_record,
    pool_diff_task,
    read_segment,
)
from repro.server.durable import RECORD_HEADER

BEFORE = "def f(x):\n    return x + 1\n"
AFTER = "def f(x, y=0):\n    return x + y\n"
THIRD = "def g():\n    return 42\n"


def make_script(before: str, after: str):
    """A truechange script between two sources, computed on a scratch
    in-memory store (so the *target* tree is never uploaded — exactly
    the shape that must survive via the journal alone)."""
    scratch = TreeStore()
    src, _ = scratch.put_source(before, "a.py")
    dst, _ = scratch.put_source(after, "a.py")
    return script_from_json(diff_trees(src.tree, dst.tree)["script_json"]), dst.fingerprint


# -- journal framing --------------------------------------------------------


class TestFraming:
    def test_round_trip(self):
        payloads = [b'{"a": 1}', b'{"b": [2, 3]}', b'{"c": "x"}']
        data = b"".join(frame_record(p) for p in payloads)
        records, problems, consumed = read_segment(data)
        assert records == [json.loads(p) for p in payloads]
        assert problems == []
        assert consumed == len(data)

    def test_torn_tail_stops_scan_at_last_whole_record(self):
        whole = frame_record(b'{"a": 1}')
        torn = frame_record(b'{"b": 2}')[:-3]
        records, problems, consumed = read_segment(whole + torn)
        assert records == [{"a": 1}]
        assert len(problems) == 1 and "torn" in problems[0]
        assert consumed == len(whole)

    def test_crc_mismatch_skips_record_and_resyncs(self):
        first = bytearray(frame_record(b'{"a": 1}'))
        first[-1] ^= 0xFF  # corrupt the payload, not the framing
        second = frame_record(b'{"b": 2}')
        records, problems, consumed = read_segment(bytes(first) + second)
        # the damaged record is skipped; the next one is still reachable
        assert records == [{"b": 2}]
        assert len(problems) == 1 and "crc" in problems[0]
        assert consumed == len(first) + len(second)

    def test_implausible_length_is_torn_not_a_giant_alloc(self):
        bogus = RECORD_HEADER.pack(2**31, zlib.crc32(b"")) + b"xx"
        records, problems, consumed = read_segment(bogus)
        assert records == [] and consumed == 0
        assert len(problems) == 1 and "torn" in problems[0]


# -- durable store ----------------------------------------------------------


class TestDurableTreeStore:
    def test_uploads_survive_reopen(self, tmp_path):
        store = DurableTreeStore(tmp_path)
        entry, _ = store.put_source(BEFORE, "a.py")
        other, _ = store.put_source(AFTER, "b.py")
        store.close()

        reopened = DurableTreeStore(tmp_path)
        try:
            assert reopened.recovery.clean
            assert reopened.recovery.snapshots_loaded == 2
            for fp in (entry.fingerprint, other.fingerprint):
                assert reopened.get(fp).fingerprint == fp
        finally:
            reopened.close()

    def test_duplicate_upload_writes_one_snapshot(self, tmp_path):
        store = DurableTreeStore(tmp_path)
        try:
            store.put_source(BEFORE, "a.py")
            store.put_source(BEFORE, "elsewhere.py")  # same canonical tree
            assert len(list((tmp_path / "trees").glob("*.json"))) == 1
        finally:
            store.close()

    def test_apply_is_journaled_and_replayed(self, tmp_path):
        script, expect_fp = make_script(BEFORE, AFTER)
        store = DurableTreeStore(tmp_path)
        base, _ = store.put_source(BEFORE, "a.py")
        applied, _, _ = store.apply(base.fingerprint, script)
        assert applied.fingerprint == expect_fp
        store.close()

        # the result tree was never uploaded: only the journal has it
        assert len(list((tmp_path / "trees").glob("*.json"))) == 1
        reopened = DurableTreeStore(tmp_path)
        try:
            assert reopened.recovery.clean
            assert reopened.recovery.applies_replayed == 1
            recovered = reopened.get(expect_fp)
            assert recovered.fingerprint == expect_fp
        finally:
            reopened.close()

    def test_apply_with_snapshotted_result_skips_the_journal(self, tmp_path):
        store = DurableTreeStore(tmp_path)
        try:
            base, _ = store.put_source(BEFORE, "a.py")
            target, _ = store.put_source(AFTER, "a.py")  # snapshot exists
            script, _ = make_script(BEFORE, AFTER)
            store.apply(base.fingerprint, script)
            journal = b"".join(
                p.read_bytes() for p in (tmp_path / "journal").glob("wal-*.log")
            )
            assert journal == b""  # redundant record elided
        finally:
            store.close()

    def test_torn_journal_tail_is_truncated_and_counted(self, tmp_path):
        script, expect_fp = make_script(BEFORE, AFTER)
        store = DurableTreeStore(tmp_path)
        base, _ = store.put_source(BEFORE, "a.py")
        store.apply(base.fingerprint, script)
        store.close()

        (seg,) = sorted((tmp_path / "journal").glob("wal-*.log"))
        data = seg.read_bytes()
        seg.write_bytes(data[:-5])  # tear the tail mid-record

        reopened = DurableTreeStore(tmp_path)
        try:
            stats = reopened.recovery
            assert not stats.clean
            assert stats.torn_records == 1
            assert stats.applies_replayed == 0
            assert stats.truncated_bytes == len(data) - 5
            assert expect_fp not in reopened
            # truncation restored a clean boundary: new appends work
            again, _, _ = reopened.apply(base.fingerprint, script)
            assert again.fingerprint == expect_fp
        finally:
            reopened.close()
        third = DurableTreeStore(tmp_path)
        try:
            assert third.recovery.clean
            assert third.get(expect_fp).fingerprint == expect_fp
        finally:
            third.close()

    def test_flipped_journal_byte_is_skipped_not_fatal(self, tmp_path):
        script, expect_fp = make_script(BEFORE, AFTER)
        store = DurableTreeStore(tmp_path)
        base, _ = store.put_source(BEFORE, "a.py")
        store.apply(base.fingerprint, script)
        store.close()

        (seg,) = sorted((tmp_path / "journal").glob("wal-*.log"))
        data = bytearray(seg.read_bytes())
        data[RECORD_HEADER.size + 10] ^= 0xFF  # flip one payload byte
        seg.write_bytes(bytes(data))

        reopened = DurableTreeStore(tmp_path)
        try:
            stats = reopened.recovery
            assert not stats.clean and stats.torn_records == 1
            assert stats.applies_replayed == 0
            # the upload snapshot is untouched by journal damage
            assert reopened.get(base.fingerprint).fingerprint == base.fingerprint
            assert expect_fp not in reopened
        finally:
            reopened.close()

    def test_forged_expectation_is_a_fingerprint_mismatch(self, tmp_path):
        script, _ = make_script(BEFORE, AFTER)
        store = DurableTreeStore(tmp_path)
        base, _ = store.put_source(BEFORE, "a.py")
        store.close()

        from repro.core.serialize import script_to_json

        record = {
            "v": 1,
            "op": "apply",
            "base": base.fingerprint,
            "expect": "f" * 64,  # wrong on purpose
            "filename": "a.py",
            "script": script_to_json(script),
        }
        seg = tmp_path / "journal" / "wal-000001.log"
        seg.write_bytes(frame_record(json.dumps(record).encode("utf8")))

        reopened = DurableTreeStore(tmp_path)
        try:
            stats = reopened.recovery
            assert stats.fingerprint_mismatches == 1
            assert stats.applies_replayed == 0
            assert any("expected" in p for p in stats.problems)
        finally:
            reopened.close()

    def test_unknown_base_record_is_skipped(self, tmp_path):
        script, _ = make_script(BEFORE, AFTER)
        store = DurableTreeStore(tmp_path)
        store.close()

        from repro.core.serialize import script_to_json

        record = {
            "v": 1,
            "op": "apply",
            "base": "0" * 64,
            "expect": "1" * 64,
            "filename": "a.py",
            "script": script_to_json(script),
        }
        seg = tmp_path / "journal" / "wal-000001.log"
        seg.write_bytes(frame_record(json.dumps(record).encode("utf8")))

        reopened = DurableTreeStore(tmp_path)
        try:
            stats = reopened.recovery
            assert stats.records_skipped == 1 and stats.applies_replayed == 0
            assert any("unknown base" in p for p in stats.problems)
        finally:
            reopened.close()

    def test_corrupt_snapshot_is_skipped_and_counted(self, tmp_path):
        store = DurableTreeStore(tmp_path)
        entry, _ = store.put_source(BEFORE, "a.py")
        other, _ = store.put_source(AFTER, "b.py")
        store.close()

        victim = tmp_path / "trees" / f"{entry.fingerprint}.json"
        doc = json.loads(victim.read_text("utf8"))
        doc["source"] = THIRD  # bit rot: content no longer matches the name
        victim.write_text(json.dumps(doc), "utf8")

        reopened = DurableTreeStore(tmp_path)
        try:
            stats = reopened.recovery
            assert stats.snapshots_loaded == 1 and stats.snapshots_skipped == 1
            assert entry.fingerprint not in reopened
            assert reopened.get(other.fingerprint).fingerprint == other.fingerprint
        finally:
            reopened.close()

    def test_eviction_bounds_memory_not_durability(self, tmp_path):
        store = DurableTreeStore(tmp_path, max_trees=2)
        try:
            a, _ = store.put_source(BEFORE, "a.py")
            b, _ = store.put_source(AFTER, "b.py")
            c, _ = store.put_source(THIRD, "c.py")  # evicts a (LRU)
            assert len(store) == 2
            # the evicted fingerprint is transparently reloaded from disk
            reloaded = store.get(a.fingerprint)
            assert reloaded.fingerprint == a.fingerprint
            assert reloaded.source == BEFORE
        finally:
            store.close()

    def test_compaction_folds_journal_into_snapshots(self, tmp_path):
        script, expect_fp = make_script(BEFORE, AFTER)
        store = DurableTreeStore(tmp_path)
        base, _ = store.put_source(BEFORE, "a.py")
        store.apply(base.fingerprint, script)
        assert not (tmp_path / "trees" / f"{expect_fp}.json").exists()
        store.compact()
        # the journal-derived tree now has a snapshot; the journal is fresh
        assert (tmp_path / "trees" / f"{expect_fp}.json").exists()
        segs = sorted((tmp_path / "journal").glob("wal-*.log"))
        assert [s.name for s in segs] == ["wal-000001.log"]
        assert segs[0].stat().st_size == 0
        store.close()

        reopened = DurableTreeStore(tmp_path)
        try:
            assert reopened.recovery.clean
            assert reopened.recovery.applies_replayed == 0  # all snapshots now
            assert reopened.get(expect_fp).fingerprint == expect_fp
        finally:
            reopened.close()

    def test_segment_rotation_under_small_limit(self, tmp_path):
        store = DurableTreeStore(
            tmp_path, segment_max_bytes=4096, compact_total_bytes=1024 * 1024
        )
        try:
            sources = [f"x_{i} = {i}\n" for i in range(8)]
            base, _ = store.put_source(BEFORE, "a.py")
            for i, src in enumerate(sources):
                script, _ = make_script(BEFORE, BEFORE + src)
                store.apply(base.fingerprint, script)
            assert len(sorted((tmp_path / "journal").glob("wal-*.log"))) >= 2
        finally:
            store.close()
        reopened = DurableTreeStore(tmp_path)
        try:
            assert reopened.recovery.clean
            assert reopened.recovery.applies_replayed == len(sources)
        finally:
            reopened.close()

    def test_unknown_fingerprint_still_raises(self, tmp_path):
        store = DurableTreeStore(tmp_path)
        try:
            with pytest.raises(UnknownFingerprint):
                store.get("0" * 64)
            assert store.recovery.clean  # a plain miss is not a problem
        finally:
            store.close()

    def test_concurrent_uploads_and_rotating_applies_do_not_deadlock(self, tmp_path):
        """Regression: rotation-triggered compaction used to take the
        in-memory lock while holding the journal handle, while uploads
        take them in the opposite order — an ABBA deadlock under a
        multi-thread front end.  Hammer both paths concurrently with
        limits small enough to force rotations and compactions."""
        import threading

        store = DurableTreeStore(
            tmp_path, fsync=False, segment_max_bytes=4096, compact_total_bytes=4096
        )
        script, _ = make_script(BEFORE, AFTER)
        base, _ = store.put_source(BEFORE, "a.py")
        errors: list[BaseException] = []

        def applier() -> None:
            try:
                for _ in range(12):
                    store.apply(base.fingerprint, script)
                    store.compact()
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        def uploader(k: int) -> None:
            try:
                for i in range(12):
                    store.put_source(f"u{k}_{i} = {i}\n", f"u{k}_{i}.py")
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=applier) for _ in range(2)] + [
            threading.Thread(target=uploader, args=(k,)) for k in range(2)
        ]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            stuck = [t for t in threads if t.is_alive()]
            assert not stuck, "store deadlocked: worker threads never finished"
            assert errors == []
        finally:
            store.close()

    def test_compaction_never_loses_a_concurrent_apply(self, tmp_path):
        """Every apply acknowledged while compactions race it must be
        recoverable after reopen — either from a snapshot or a journal
        record that survived compaction."""
        import threading

        store = DurableTreeStore(tmp_path, fsync=False)
        base, _ = store.put_source(BEFORE, "a.py")
        sources = [BEFORE + f"v_{i} = {i}\n" for i in range(10)]
        scripts = [make_script(BEFORE, src) for src in sources]
        acked: list[str] = []
        errors: list[BaseException] = []

        def applier() -> None:
            try:
                for script, expect in scripts:
                    applied, _, _ = store.apply(base.fingerprint, script)
                    assert applied.fingerprint == expect
                    acked.append(expect)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        def compactor() -> None:
            try:
                for _ in range(20):
                    store.compact()
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        t1 = threading.Thread(target=applier)
        t2 = threading.Thread(target=compactor)
        t1.start()
        t2.start()
        t1.join(60)
        t2.join(60)
        assert not t1.is_alive() and not t2.is_alive()
        assert errors == []
        assert len(acked) == len(scripts)
        store.close()

        reopened = DurableTreeStore(tmp_path)
        try:
            for fp in acked:
                assert reopened.get(fp).fingerprint == fp
        finally:
            reopened.close()

    def test_recovery_eviction_does_not_lose_dependent_records(self, tmp_path):
        """Regression: during replay the pre-eviction snapshot guard was
        disabled, so a journal-derived base evicted mid-recovery made
        every later record depending on it an 'unknown base' skip — an
        acknowledged, fsync'd apply silently lost on restart."""
        s1, s2, s3 = (BEFORE + f"x_{i} = {i}\n" for i in range(3))
        s4 = s1 + "tail = True\n"
        store = DurableTreeStore(tmp_path)
        base, _ = store.put_source(BEFORE, "a.py")
        fp1 = None
        for src in (s1, s2, s3):  # three applies all based on the upload
            script, expect = make_script(BEFORE, src)
            applied, _, _ = store.apply(base.fingerprint, script)
            if fp1 is None:
                fp1 = applied.fingerprint
        # the fourth record's base is the *journal-derived* first result
        script, fp4 = make_script(s1, s4)
        applied, _, _ = store.apply(fp1, script)
        assert applied.fingerprint == fp4
        store.close()

        # replay with room for only 2 trees: fp1 is evicted mid-replay
        # before its dependent record arrives
        reopened = DurableTreeStore(tmp_path, max_trees=2)
        try:
            stats = reopened.recovery
            assert stats.applies_replayed == 4
            assert stats.records_skipped == 0
            assert not any("unknown base" in p for p in stats.problems)
            assert reopened.get(fp4).fingerprint == fp4
        finally:
            reopened.close()

    def test_post_startup_disk_misses_do_not_grow_recovery_problems(self, tmp_path):
        """Regression: a repeatedly-requested corrupt snapshot used to
        append to ``recovery.problems`` on every ``get`` for the
        daemon's whole lifetime."""
        store = DurableTreeStore(tmp_path)
        try:
            assert store.recovery.problems == []
            bogus = "blake2b-" + "9" * 64  # well-formed, so the disk is read
            (tmp_path / "trees" / f"{bogus}.json").write_text("not json", "utf8")
            for _ in range(5):
                with pytest.raises(UnknownFingerprint):
                    store.get(bogus)
            assert store.recovery.problems == []
        finally:
            store.close()

    def test_traversal_key_never_reaches_the_filesystem(self, tmp_path):
        """A ``../`` key must not open, decode or parse a snapshot-shaped
        file outside the data dir: only a key of the store's own format
        may become a file name."""
        from repro import observability as obs

        fp = TreeStore().put_source(BEFORE, "a.py")[0].fingerprint
        outside = tmp_path / "elsewhere"
        outside.mkdir()
        doc = {"fingerprint": fp, "filename": "a.py", "source": BEFORE}
        (outside / f"{fp}.json").write_text(json.dumps(doc), "utf8")
        store = DurableTreeStore(tmp_path / "data")
        obs.reset()
        obs.enable()
        try:
            with pytest.raises(UnknownFingerprint):
                store.get(f"../../elsewhere/{fp}")
            counters = obs.snapshot()["counters"]
            for name in ("disk_hits", "fingerprint_mismatches", "snapshot_errors"):
                assert counters.get(f"repro.server.durable.{name}", 0) == 0, name
            assert fp not in store and len(store) == 0
        finally:
            obs.disable()
            obs.reset()
            store.close()

    def test_store_key_format(self):
        from repro.server.store import is_store_key

        assert is_store_key("blake2b-" + "0a" * 32)
        assert is_store_key("sha256-" + "f" * 128)
        for bad in (
            "blake2b-" + "0a" * 31,  # short
            "blake2b-" + "0A" * 32,  # uppercase
            "sha256-" + "f" * 64,  # blake2b length under sha256
            "md5-" + "0" * 64,  # unknown scheme
            "blake2b-" + "0" * 64 + "\n",
            "../../elsewhere/blake2b-" + "0" * 64,
        ):
            assert not is_store_key(bad), bad


# -- locking ----------------------------------------------------------------


class TestDataDirLock:
    def test_second_open_is_refused_with_owner_pid(self, tmp_path):
        import os

        first = DurableTreeStore(tmp_path)
        try:
            with pytest.raises(DataDirLocked) as exc:
                DurableTreeStore(tmp_path)
            assert str(os.getpid()) in str(exc.value)
        finally:
            first.close()
        # close released the lock: reopening works
        second = DurableTreeStore(tmp_path)
        second.close()

    def test_cli_serve_rejects_locked_data_dir(self, tmp_path, capsys):
        holder = DurableTreeStore(tmp_path)
        try:
            rc = main(["serve", "--data-dir", str(tmp_path)])
        finally:
            holder.close()
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("repro:") and "locked" in err
        assert err.count("\n") == 1  # one-line diagnostic


# -- data-dir format ----------------------------------------------------------


class TestDataDirFormat:
    def test_new_dir_is_marked_with_the_current_format(self, tmp_path):
        from repro.server.durable import DATA_FORMAT

        store = DurableTreeStore(tmp_path / "data")
        try:
            entry, _ = store.put_source(BEFORE)
        finally:
            store.close()
        assert (tmp_path / "data" / "FORMAT").read_text() == f"{DATA_FORMAT}\n"
        reopened = DurableTreeStore(tmp_path / "data")
        try:
            assert reopened.recovery.clean
            assert reopened.get(entry.fingerprint).fingerprint == entry.fingerprint
        finally:
            reopened.close()

    def old_dir(self, tmp_path):
        """A data dir as written before store keys were root hashes:
        trees/ and journal/, no FORMAT file."""
        data = tmp_path / "old"
        (data / "trees").mkdir(parents=True)
        (data / "journal").mkdir()
        (data / "trees" / f"{'ab' * 32}.json").write_text(
            json.dumps({"fingerprint": "ab" * 32, "filename": "a.py", "source": BEFORE})
        )
        return data

    def test_old_dir_is_refused_not_emptied(self, tmp_path):
        from repro.server import DataDirFormatError

        data = self.old_dir(tmp_path)
        with pytest.raises(DataDirFormatError) as exc:
            DurableTreeStore(data)
        assert str(data) in str(exc.value)
        assert not (data / "FORMAT").exists()  # never re-marked
        assert (data / "trees" / f"{'ab' * 32}.json").exists()
        # the refusal released the lock: a second attempt is refused the
        # same way, not as a locked dir
        with pytest.raises(DataDirFormatError):
            DurableTreeStore(data)

    def test_other_version_is_refused(self, tmp_path):
        from repro.server import DataDirFormatError

        (tmp_path / "FORMAT").write_text("1\n")
        with pytest.raises(DataDirFormatError, match="has format 1,"):
            DurableTreeStore(tmp_path)

    def test_cli_serve_exits_2_on_old_dir(self, tmp_path, capsys):
        from repro.server.durable import DATA_FORMAT

        data = self.old_dir(tmp_path)
        rc = main(["serve", "--data-dir", str(data)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # one-line diagnostic
        assert err.startswith("repro:") and str(data) in err
        assert "format 1" in err and f"format {DATA_FORMAT}" in err


# -- service integration ----------------------------------------------------


class TestDurableService:
    def test_health_reports_recovery(self, tmp_path):
        store = DurableTreeStore(tmp_path)
        service = ReproService(store)
        try:
            health = service.handle("health", {})
            assert health["recovery"]["clean"] is True
            assert health["recovery"]["snapshots_loaded"] == 0
        finally:
            service.close()

    def test_service_close_releases_the_lock(self, tmp_path):
        service = ReproService(DurableTreeStore(tmp_path))
        service.handle("put_tree", {"source": BEFORE})
        service.close()
        reopened = DurableTreeStore(tmp_path)
        try:
            assert reopened.recovery.snapshots_loaded == 1
        finally:
            reopened.close()

    def test_apply_round_trip_survives_restart(self, tmp_path):
        script, expect_fp = make_script(BEFORE, AFTER)
        service = ReproService(DurableTreeStore(tmp_path))
        fp = service.handle("put_tree", {"source": BEFORE})["fingerprint"]
        from repro.core.serialize import script_to_json

        applied = service.handle(
            "apply", {"tree": fp, "script": script_to_json(script)}
        )
        assert applied["fingerprint"] == expect_fp
        service.close()

        restarted = ReproService(DurableTreeStore(tmp_path))
        try:
            verified = restarted.handle("verify", {"tree": expect_fp})
            assert verified["ok"] and verified["violations"] == []
        finally:
            restarted.close()


# -- pool deadline ----------------------------------------------------------


class TestPoolDeadline:
    def test_unanswered_future_times_out_structurally(self):
        from concurrent.futures import Future

        pool = DiffPool(1)
        try:
            wedged: Future = Future()  # never resolves: a wedged worker
            out = pool.finish(wedged, timeout_s=0.05)
            assert out["ok"] is False
            assert out["error_type"] == "Timeout"
            assert "deadline" in out["error"]
            # the pool was rebuilt and still answers real requests
            payload = {
                "before": {"fingerprint": "b" * 64, "source": BEFORE},
                "after": {"fingerprint": "a" * 64, "source": AFTER},
            }
            result = pool.finish(pool.submit(payload, pool_diff_task), timeout_s=60)
            assert result["ok"] is True and result["edits"] >= 1
        finally:
            pool.shutdown()

    def test_no_deadline_means_no_timeout_machinery(self):
        pool = DiffPool(1)
        try:
            payload = {
                "before": {"fingerprint": "b" * 64, "source": BEFORE},
                "after": {"fingerprint": "a" * 64, "source": AFTER},
            }
            result = pool.finish(pool.submit(payload, pool_diff_task))
            assert result["ok"] is True
        finally:
            pool.shutdown()
