"""Crash-safe durable tree store: snapshots + a write-ahead journal.

The in-memory :class:`~repro.server.store.TreeStore` dies with the
daemon: a crash, OOM-kill, or deploy restart loses every parsed tree
and every applied patch.  :class:`DurableTreeStore` keeps the same
content-addressed semantics but backs them with an on-disk layout under
``--data-dir``::

    data-dir/
      FORMAT                # layout version (DATA_FORMAT), written first
      LOCK                  # pidfile, flock'd by the live daemon
      trees/<fp>.json       # content-addressed source snapshots
      journal/wal-NNNNNN.log  # append-only CRC-framed apply records

**Format.**  ``FORMAT`` names the layout version; a new dir gets it
before anything else is written.  A dir of another version — or one
with ``trees/``/``journal/`` but no ``FORMAT``, written before store
keys became root hashes — is refused with :class:`DataDirFormatError`
(``repro serve`` exits 2): there is no migration, and the two formats
are never mixed.

**Snapshots.**  Every *uploaded* source is written to
``trees/<fingerprint>.json`` (tmp-file + ``os.replace`` + fsync) the
first time its tree enters the store.  Snapshots are the ground truth
for uploads: recovery re-parses each one and cross-checks the parsed
tree's store key (:func:`~repro.server.store.fingerprint_tree`, whose
root hashes the re-parse computes from every node) against the filed
fingerprint — a mismatch (bit rot, a hand-edited file) is
skipped-and-counted, never fatal.

**Journal.**  Every *applied* edit script is appended to the active
journal segment as one CRC-framed record — ``<u32 length><u32 crc32>``
header followed by a JSON payload carrying the base fingerprint, the
truechange script, and the **expected** result fingerprint — and
fsync'd *before* the patched tree is published to the in-memory store
(write-ahead: an acknowledged apply is on disk).  Segments rotate at
``segment_max_bytes``; when the sealed backlog exceeds
``compact_total_bytes``, compaction snapshots every journal-derived
tree and deletes the now-redundant segments.

**Recovery** (on open) replays the layout in order: snapshots first,
then every journal record through the full transactional machinery —
``patch(atomic=True, verify=True)`` via :meth:`TreeStore.apply` — and
cross-checks the recovered tree's fingerprint against the journaled
expectation.  A torn tail record, a CRC mismatch, an unknown base, a
rejected patch, or a fingerprint mismatch is skipped-and-counted
(:class:`RecoveryStats`), never fatal; the active segment is truncated
back to its last whole record so post-recovery appends stay readable.
This is the paper's type-safety story doing operational work: replay is
*verifiable* (every replayed script re-runs the linear typecheck and
the integrity verifier) rather than hopeful.

**Locking.**  One live daemon per data dir: the ``LOCK`` pidfile is
held under ``fcntl.flock`` for the store's lifetime; a second open
raises :class:`DataDirLocked` naming the owning pid (the CLI renders it
as a one-line exit-2 diagnostic).

Internally two locks protect the store, with a fixed order: the
in-memory ``_lock`` (inherited from :class:`TreeStore`) may be held
while acquiring the on-disk ``_io_lock`` (snapshot writes during
eviction do exactly that), but ``_io_lock`` must NEVER be held while
acquiring ``_lock`` — request handlers run on a multi-thread executor,
so the reverse order is an ABBA deadlock waiting for an upload
concurrent with a compaction.  This is why segment rotation only
*requests* compaction (:meth:`compact` runs after ``_append`` has
released the journal handle) and why :meth:`compact` is phased so the
sweep over the in-memory table happens with ``_io_lock`` free.

Counters live under ``repro.server.durable.``; recovery runs under a
``repro.server.durable.recovery`` span.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from repro.core import PatchError, TNode
from repro.core.serialize import SerializationError, script_from_json, script_to_json
from repro.observability import OBS, metrics as _metrics, span as _span

from .store import StoredTree, StoreError, TreeStore, UnknownFingerprint, fingerprint_tree


class DataDirLocked(StoreError):
    """The data dir is already owned by a live daemon."""

    def __init__(self, path: Path, pid: str) -> None:
        owner = f" (held by pid {pid})" if pid else ""
        super().__init__(f"data dir already locked by a running daemon{owner}: {path.parent}")
        self.path = path
        self.pid = pid


#: On-disk layout version, kept in ``data-dir/FORMAT``: 2 files trees
#: under :func:`~repro.server.store.fingerprint_tree`; 1 (no ``FORMAT``)
#: filed them under the sha256 of the MTree state.
DATA_FORMAT = 2


class DataDirFormatError(StoreError):
    """The data dir was written in another on-disk layout version."""

    def __init__(self, path: Path, found: str) -> None:
        super().__init__(
            f"data dir {path} has format {found}, this daemon reads format "
            f"{DATA_FORMAT}; serve from a new --data-dir (formats are never mixed)"
        )
        self.path = path
        self.found = found


# -- journal framing --------------------------------------------------------

#: Record header: little-endian payload length + crc32(payload).
RECORD_HEADER = struct.Struct("<II")
#: Sanity cap on one record; a larger claimed length means lost framing.
MAX_RECORD = 256 * 1024 * 1024


def frame_record(payload: bytes) -> bytes:
    """One CRC-framed journal record for ``payload``."""
    return RECORD_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def read_segment(data: bytes) -> tuple[list[dict[str, Any]], list[str], int]:
    """Decode one journal segment tolerantly.

    Returns ``(records, problems, consumed)`` where ``consumed`` is the
    byte offset of the last cleanly framed record boundary.  A CRC or
    JSON failure inside a well-framed record skips that record and
    resyncs on the length field; a torn or implausible header stops the
    scan (everything after a torn write is unreachable by construction).
    """
    records: list[dict[str, Any]] = []
    problems: list[str] = []
    off = 0
    consumed = 0
    while off < len(data):
        if off + RECORD_HEADER.size > len(data):
            problems.append(f"torn header at byte {off} ({len(data) - off} trailing byte(s))")
            break
        length, crc = RECORD_HEADER.unpack_from(data, off)
        end = off + RECORD_HEADER.size + length
        if length > MAX_RECORD or end > len(data):
            problems.append(f"torn record at byte {off} (claimed {length} byte(s))")
            break
        payload = data[off + RECORD_HEADER.size : end]
        off = consumed = end
        if zlib.crc32(payload) != crc:
            problems.append(f"crc mismatch for record ending at byte {end}")
            continue
        try:
            record = json.loads(payload.decode("utf8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            problems.append(f"undecodable record ending at byte {end}: {exc}")
            continue
        if not isinstance(record, dict):
            problems.append(f"non-object record ending at byte {end}")
            continue
        records.append(record)
    return records, problems, consumed


# -- recovery bookkeeping ---------------------------------------------------


@dataclass
class RecoveryStats:
    """What recovery found, replayed, and refused."""

    snapshots_loaded: int = 0
    snapshots_skipped: int = 0
    applies_replayed: int = 0
    records_skipped: int = 0
    torn_records: int = 0
    fingerprint_mismatches: int = 0
    truncated_bytes: int = 0
    elapsed_s: float = 0.0
    problems: list = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.problems

    def as_dict(self) -> dict[str, Any]:
        return {
            "snapshots_loaded": self.snapshots_loaded,
            "snapshots_skipped": self.snapshots_skipped,
            "applies_replayed": self.applies_replayed,
            "records_skipped": self.records_skipped,
            "torn_records": self.torn_records,
            "fingerprint_mismatches": self.fingerprint_mismatches,
            "truncated_bytes": self.truncated_bytes,
            "elapsed_s": round(self.elapsed_s, 4),
            "clean": self.clean,
            "problems": list(self.problems[:20]),
        }


# -- the store --------------------------------------------------------------


class DurableTreeStore(TreeStore):
    """A :class:`TreeStore` whose contents survive crashes and restarts.

    Same public surface and content-addressed semantics as the base
    store (the service layer is oblivious), plus:

    * uploads persist as snapshot files, applies as journal records —
      an acknowledged operation is fsync'd before the caller sees it;
    * :meth:`get` falls back to disk for LRU-evicted fingerprints
      (``repro.server.durable.disk_hits``), so eviction bounds memory,
      not durability;
    * :meth:`compact` folds the journal into snapshots and resets it;
    * ``recovery`` carries the :class:`RecoveryStats` of the open.
    """

    def __init__(
        self,
        data_dir,
        max_trees: int = 1024,
        *,
        fsync: bool = True,
        segment_max_bytes: int = 1024 * 1024,
        compact_total_bytes: int = 4 * 1024 * 1024,
        lock: bool = True,
    ) -> None:
        super().__init__(max_trees)
        self.data_dir = Path(data_dir)
        self.trees_dir = self.data_dir / "trees"
        self.journal_dir = self.data_dir / "journal"
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.segment_max_bytes = max(4096, segment_max_bytes)
        self.compact_total_bytes = max(self.segment_max_bytes, compact_total_bytes)
        # lock-order class "store._io_lock": always ordered *after* the
        # in-memory "store._lock" (see the module docstring); instrumented
        # by the lock sanitizer when REPRO_LOCKSAN is enabled
        from repro.robustness import locksan

        self._io_lock = locksan.rlock("store._io_lock")
        self._local = threading.local()
        #: serializes whole compactions; _compact_pending is the
        #: rotation->compaction handoff (see _rotate / apply)
        self._compact_lock = threading.Lock()
        self._compact_pending = False
        #: applies between journal-append and in-memory publish; compact
        #: waits these out before deleting sealed segments, so every
        #: record in a sealed segment has its entry swept into a snapshot
        self._publish_cv = threading.Condition()
        self._publishing = 0
        self._lockfile = None
        self._active_fh = None
        self._persist = False
        if lock:
            self._acquire_lock()
        try:
            self._check_format()
            self.trees_dir.mkdir(exist_ok=True)
            self.journal_dir.mkdir(exist_ok=True)
            #: fingerprints with an on-disk snapshot (journal records for
            #: these are redundant and skipped at append time)
            self._snapshots: set[str] = {p.stem for p in self.trees_dir.glob("*.json")}
            self.recovery = self._recover()
            self._open_active_segment()
            self._persist = True
        except BaseException:
            self.close()
            raise

    # -- locking ------------------------------------------------------

    def _acquire_lock(self) -> None:
        path = self.data_dir / "LOCK"
        fh = open(path, "a+", encoding="utf8")
        try:
            import fcntl

            try:
                fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                fh.seek(0)
                pid = fh.read().strip()
                fh.close()
                raise DataDirLocked(path, pid) from None
        except ImportError:  # non-POSIX: best-effort live-pid check
            fh.seek(0)
            pid = fh.read().strip()
            if pid.isdigit() and _pid_alive(int(pid)):
                fh.close()
                raise DataDirLocked(path, pid) from None
        fh.seek(0)
        fh.truncate()
        fh.write(str(os.getpid()))
        fh.flush()
        self._lockfile = fh

    def _check_format(self) -> None:
        """Refuse a data dir of another layout version; mark a new one.
        A version-1 dir opened as version 2 would skip every snapshot as
        a fingerprint mismatch and silently start empty."""
        marker = self.data_dir / "FORMAT"
        try:
            found = " ".join(marker.read_text("utf8", errors="replace").split())
        except FileNotFoundError:
            if self.trees_dir.exists() or self.journal_dir.exists():
                raise DataDirFormatError(self.data_dir, "1 (no FORMAT file)") from None
            self._write_atomic(marker, f"{DATA_FORMAT}\n".encode("utf8"))
            return
        if found != str(DATA_FORMAT):
            raise DataDirFormatError(self.data_dir, found[:32] or "<empty>")

    # -- observability helpers ----------------------------------------

    def _dcount(self, name: str, n: int = 1) -> None:
        if OBS.enabled:
            _metrics().counter(f"repro.server.durable.{name}").inc(n)

    # -- snapshot persistence -----------------------------------------

    def _snapshot_path(self, fingerprint: str) -> Path:
        return self.trees_dir / f"{fingerprint}.json"

    def _write_snapshot(self, entry: StoredTree) -> None:
        if entry.source is None or entry.fingerprint in self._snapshots:
            return
        doc = {
            "fingerprint": entry.fingerprint,
            "filename": entry.filename,
            "source": entry.source,
        }
        data = (json.dumps(doc, sort_keys=True) + "\n").encode("utf8")
        with self._io_lock:
            self._write_atomic(self._snapshot_path(entry.fingerprint), data)
            self._snapshots.add(entry.fingerprint)
        self._dcount("snapshots")

    def _write_atomic(self, path: Path, data: bytes) -> None:
        """Write ``path`` whole or not at all: tmp file, fsync,
        ``os.replace``, then fsync the directory."""
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            if self.fsync:
                os.fsync(fh.fileno())
        os.replace(tmp, path)
        self._fsync_dir(path.parent)

    def _fsync_dir(self, path: Path) -> None:
        if not self.fsync:
            return
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:
            return  # e.g. platforms that cannot open directories
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    # -- journal ------------------------------------------------------

    def _segments(self) -> list[Path]:
        return sorted(self.journal_dir.glob("wal-*.log"))

    def _open_active_segment(self) -> None:
        segments = self._segments()
        if segments:
            path = segments[-1]
        else:
            path = self.journal_dir / "wal-000001.log"
        self._active_fh = open(path, "ab")

    def _append(self, record: dict[str, Any]) -> None:
        payload = json.dumps(record, sort_keys=True).encode("utf8")
        framed = frame_record(payload)
        with self._io_lock:
            fh = self._active_fh
            fh.write(framed)
            fh.flush()
            if self.fsync:
                os.fsync(fh.fileno())
            self._dcount("journal_appends")
            if fh.tell() >= self.segment_max_bytes:
                self._rotate()

    def _rotate(self) -> None:
        """Seal the active segment and start the next one.  Runs under
        ``_io_lock``, so it must not compact inline (compaction sweeps
        the in-memory table, and ``_lock`` is forbidden under
        ``_io_lock``); it flags the backlog instead and the journaling
        caller compacts once the handle is released."""
        self._active_fh.close()
        segments = self._segments()
        last = int(segments[-1].stem.split("-")[1]) if segments else 0
        self._active_fh = open(self.journal_dir / f"wal-{last + 1:06d}.log", "ab")
        self._dcount("rotations")
        sealed = sum(p.stat().st_size for p in segments)
        if sealed >= self.compact_total_bytes:
            self._compact_pending = True

    def compact(self) -> int:
        """Snapshot every journal-derived tree, then drop the sealed journal.

        Returns the number of segment files deleted.  Safe at any
        point: a snapshot is written (and fsync'd) for every in-memory
        entry that lacks one *before* any segment is removed, so the
        snapshot set alone reproduces the store.

        Phased to respect the lock order (never ``_lock`` under
        ``_io_lock``): (1) seal the active segment under ``_io_lock`` —
        records appended from here on land in the fresh segment and are
        never deleted; (2) with both locks free, wait out in-flight
        apply publications (every record already in a sealed segment
        then has its entry in the table) and snapshot every entry;
        (3) delete only the segments sealed at phase one.
        """
        with self._compact_lock:
            self._compact_pending = False
            with self._io_lock:
                if self._active_fh is not None:
                    self._active_fh.close()
                sealed = self._segments()
                last = int(sealed[-1].stem.split("-")[1]) if sealed else 0
                self._active_fh = open(
                    self.journal_dir / f"wal-{last + 1:06d}.log", "ab"
                )
            with self._publish_cv:
                if not self._publish_cv.wait_for(
                    lambda: self._publishing == 0, timeout=30.0
                ):
                    # an apply has sat between journal-append and publish
                    # for 30s; keep the sealed segments rather than risk
                    # deleting its record out from under it
                    self._dcount("compaction_stalls")
                    return 0
            with self._lock:
                entries = list(self._trees.values())
            for entry in entries:
                self._write_snapshot(entry)
            removed = 0
            with self._io_lock:
                for seg in sealed:
                    try:
                        seg.unlink()
                        removed += 1
                    except OSError:
                        pass
                # nothing appended since the seal: drop the empty active
                # segment too so numbering restarts from wal-000001
                if self._active_fh.tell() == 0:
                    path = Path(self._active_fh.name)
                    self._active_fh.close()
                    try:
                        path.unlink()
                    except OSError:
                        pass
                    self._active_fh = open(self.journal_dir / "wal-000001.log", "ab")
                self._fsync_dir(self.journal_dir)
        self._dcount("compactions")
        return removed

    # -- store overrides ----------------------------------------------

    def _insert(
        self, tree: TNode, source: Optional[str], filename: str
    ) -> tuple[StoredTree, bool]:
        with self._lock:
            if len(self._trees) >= self.max_trees:
                # pre-snapshot prospective LRU victims: eviction bounds
                # memory, never durability (journal-derived entries would
                # otherwise vanish when their segments compact away).
                # Active during recovery too — replay may insert more
                # than max_trees entries, and a later journal record
                # must still find its evicted base via the disk fallback.
                excess = len(self._trees) - self.max_trees + 1
                for victim in list(self._trees.values())[:excess]:
                    self._write_snapshot(victim)
            entry, cached = super()._insert(tree, source, filename)
            if (
                self._persist
                and not cached
                and not getattr(self._local, "in_apply", False)
            ):
                self._write_snapshot(entry)
            return entry, cached

    def get(self, fingerprint: str) -> StoredTree:
        try:
            return super().get(fingerprint)
        except UnknownFingerprint:
            path = self._snapshot_path(fingerprint)
            if not path.exists():
                raise
            entry = self._load_snapshot(path, fingerprint)
            if entry is None:
                raise
            self._dcount("disk_hits")
            return entry

    def apply(
        self, fingerprint: str, script, commit: bool = True
    ) -> tuple[StoredTree, bool, str]:
        if not commit or not self._persist:
            return super().apply(fingerprint, script, commit)
        # stage the patch (full transactional machinery, store untouched),
        # journal it write-ahead, then publish the result; the publish
        # gate keeps compact() from deleting a sealed segment while one
        # of its records is still between append and publish
        staged, _, source = super().apply(fingerprint, script, commit=False)
        with self._publish_cv:
            self._publishing += 1
        try:
            if staged.fingerprint not in self._snapshots:
                self._append(
                    {
                        "v": 1,
                        "op": "apply",
                        "base": fingerprint,
                        "expect": staged.fingerprint,
                        "filename": staged.filename,
                        "script": script_to_json(script),
                    }
                )
            self._local.in_apply = True
            try:
                entry, cached = self._insert(staged.tree, source, staged.filename)
            finally:
                self._local.in_apply = False
        finally:
            with self._publish_cv:
                self._publishing -= 1
                self._publish_cv.notify_all()
        # rotation flagged a large sealed backlog: fold it now, with the
        # journal handle free and this apply's publish slot released
        if self._compact_pending:
            self.compact()
        return entry, cached, source

    # -- recovery -----------------------------------------------------

    def _load_snapshot(
        self, path: Path, expect_fp: Optional[str] = None
    ) -> Optional[StoredTree]:
        """Parse one snapshot file and insert it — iff the parsed tree's
        fingerprint matches both the filed document and the filename."""
        from repro.adapters.pyast import parse_python

        try:
            doc = json.loads(path.read_text("utf8"))
            source = doc["source"]
            filename = doc.get("filename") or "<recovered>"
            tree = parse_python(source, filename).with_canonical_uris()
        except Exception as exc:  # noqa: BLE001 - any damage is skip-and-count
            self.recovery_problem(f"{path.name}: unreadable snapshot: {exc}")
            return None
        fp = fingerprint_tree(tree)
        if fp != doc.get("fingerprint") or fp != path.stem or (
            expect_fp is not None and fp != expect_fp
        ):
            self._dcount("fingerprint_mismatches")
            self.recovery_problem(
                f"{path.name}: snapshot fingerprint mismatch (parsed {fp[:20]}...)"
            )
            return None
        # no _persist dance needed: the fingerprint is in self._snapshots,
        # so the insert-side snapshot write is a no-op
        entry, _ = self._insert(tree, source, filename)
        return entry

    def recovery_problem(self, message: str) -> None:
        """Record a damaged-artifact note — into :class:`RecoveryStats`
        during startup recovery, as a counter afterwards (a
        repeatedly-requested corrupt snapshot on the ``get`` disk
        fallback must not grow the in-memory list for the daemon's
        whole lifetime)."""
        stats = getattr(self, "recovery", None)
        if stats is not None and not self._persist:
            stats.problems.append(message)
        else:
            self._dcount("snapshot_errors")

    def _recover(self) -> RecoveryStats:
        stats = RecoveryStats()
        self.recovery = stats
        t0 = time.perf_counter()
        with _span("repro.server.durable.recovery"):
            # 1. snapshots: the durable upload set
            for path in sorted(self.trees_dir.glob("*.json")):
                if self._load_snapshot(path) is not None:
                    stats.snapshots_loaded += 1
                else:
                    stats.snapshots_skipped += 1
            # 2. journal: verified replay of every applied script
            segments = self._segments()
            for i, seg in enumerate(segments):
                try:
                    data = seg.read_bytes()
                except OSError as exc:
                    stats.torn_records += 1
                    stats.problems.append(f"{seg.name}: unreadable segment: {exc}")
                    continue
                records, problems, consumed = read_segment(data)
                stats.torn_records += len(problems)
                stats.problems.extend(f"{seg.name}: {p}" for p in problems)
                for record in records:
                    self._replay(record, stats)
                if i == len(segments) - 1 and consumed < len(data):
                    # truncate the active segment back to its last whole
                    # record so post-recovery appends stay reachable
                    stats.truncated_bytes = len(data) - consumed
                    with open(seg, "ab") as fh:
                        fh.truncate(consumed)
                    self._fsync_dir(self.journal_dir)
        stats.elapsed_s = time.perf_counter() - t0
        self._dcount("recovered_trees", stats.snapshots_loaded)
        self._dcount("recovered_applies", stats.applies_replayed)
        self._dcount("skipped_records", stats.records_skipped + stats.snapshots_skipped)
        if stats.torn_records:
            self._dcount("torn_records", stats.torn_records)
        return stats

    def _replay(self, record: dict[str, Any], stats: RecoveryStats) -> None:
        if record.get("op") != "apply" or record.get("v") != 1:
            stats.records_skipped += 1
            stats.problems.append(f"unknown journal record {record.get('op')!r}")
            return
        expect = record.get("expect")
        try:
            script = script_from_json(record["script"])
            # the full transactional path: pre-flight typecheck, undo
            # journal, post-verify — replay is verified, not hopeful
            staged, _, source = TreeStore.apply(self, record["base"], script, commit=False)
        except (KeyError, TypeError, SerializationError) as exc:
            stats.records_skipped += 1
            stats.problems.append(f"malformed apply record: {exc}")
            return
        except UnknownFingerprint:
            stats.records_skipped += 1
            stats.problems.append(
                f"apply record targets unknown base {str(record.get('base'))[:20]}..."
            )
            return
        except (PatchError, StoreError) as exc:
            stats.records_skipped += 1
            stats.problems.append(f"journaled script no longer applies: {exc}")
            return
        if staged.fingerprint != expect:
            stats.fingerprint_mismatches += 1
            self._dcount("fingerprint_mismatches")
            stats.problems.append(
                f"replayed apply produced {staged.fingerprint[:20]}..., "
                f"journal expected {str(expect)[:20]}..."
            )
            return
        self._insert(staged.tree, source, staged.filename)
        stats.applies_replayed += 1

    def describe_recovery(self) -> dict[str, Any]:
        return self.recovery.as_dict()

    # -- lifecycle ----------------------------------------------------

    def close(self) -> None:
        """Release the journal handle and the data-dir lock."""
        with self._io_lock:
            if self._active_fh is not None:
                try:
                    self._active_fh.close()
                except OSError:
                    pass
                self._active_fh = None
            if self._lockfile is not None:
                try:
                    self._lockfile.close()  # releases the flock
                except OSError:
                    pass
                self._lockfile = None


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except OSError:
        return False
    return True
