"""The ``smoke`` suite of :mod:`repro.campaign`: the end-to-end
differential gate for the diff daemon, plus the live-daemon plumbing the
``chaos`` suite shares.

Six gates run against a real ``python -m repro serve`` subprocess, first
on the in-memory store and then on a durable one (``--data-dir``, so
every gate also goes through the snapshot + write-ahead-journal path).
Each daemon runs with the lock-order sanitizer armed
(``REPRO_LOCKSAN=1``), so an acquisition that closes a cycle in the
lock-class graph fails the gate that provoked it:

1. **Byte identity** (``byte_identity``) — for every frozen-corpus
   pair, the server's raw diff response equals the stdout of one-shot
   ``repro diff --json`` byte for byte (unparseable sources must come
   back as structured 400s, mirroring the CLI's exit-2 diagnostics);
2. **Parse-once caching** (``parse_once``) — re-uploading a source is a
   store cache hit, a repeated fingerprint diff re-parses nothing
   (``repro_server_store_parses_total`` scraped from ``/metrics`` stays
   exactly one parse per distinct upload, before and after the repeat);
3. **Concurrency** (``concurrency``) — 32 concurrent fingerprint diffs
   all succeed, each byte-identical to gate 1's CLI answer for its
   pair (the gate that catches two trees sharing a store key);
4. **Observability surfaces** (``observability``) — ``/metrics`` is
   scrapeable Prometheus text carrying the request counters, ``/trace``
   yields a Chrome trace document with ``repro.server.request`` spans;
5. **Batch apply** (``apply_batch``) — ``/apply-batch`` schedules three
   independent scripts into one wave, applies them (in parallel when the
   daemon has workers) with the in-request differential oracle on, lands
   on the same fingerprint as uploading the combined source, and is
   deterministic across repeats;
6. **Graceful shutdown** (``shutdown``) — ``POST /shutdown`` drains and
   the daemon exits 0.

Run it from the repository root (the frozen corpus is
``tests/fixtures/batch``)::

    PYTHONPATH=src python -m repro.campaign smoke --out campaign-out
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Iterator, Optional

from .client import ClientError, ServerClient

LISTENING = re.compile(r"listening on (http://[^ ]+)")

#: the frozen corpus gate 1 diffs, relative to the repository root
CORPUS = Path("tests/fixtures/batch")
#: simultaneous fingerprint diffs in gate 3
CONCURRENCY = 32
#: daemon diff workers
WORKERS = 2
#: environment of every smoke daemon: the lock-order sanitizer armed
LOCKSAN = {"REPRO_LOCKSAN": "1"}


class Daemon:
    """One ``python -m repro serve`` subprocess with its stderr drained.

    A context manager: leaving the block stops the daemon and its pool
    workers on every exit path, so a check that fails half-way leaves
    nothing running.
    """

    def __init__(
        self,
        *extra: str,
        data_dir: Optional[Path] = None,
        env: Optional[dict[str, str]] = None,
        startup_timeout: float = 30.0,
    ) -> None:
        argv = [sys.executable, "-m", "repro", "serve", "--port", "0", *extra]
        if data_dir is not None:
            argv += ["--data-dir", str(data_dir)]
        # own session => killpg can take out pool workers too, exactly
        # like an operator's `kill -9 -<pgid>` (workers also self-exit
        # via the pool's parent-death watchdog, but a chaos scenario
        # should not have to wait out its poll interval)
        self.proc = subprocess.Popen(
            argv,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
            env={**os.environ, **env} if env else None,
        )
        self.stderr_lines: list[str] = []
        self.base_url: Optional[str] = None
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        if not self._ready.wait(startup_timeout) or self.base_url is None:
            self._killpg()
            self.proc.wait()
            raise RuntimeError(
                "daemon never reported a listening address; stderr: "
                + "".join(self.stderr_lines[-5:])
            )

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def _drain(self) -> None:
        assert self.proc.stderr is not None
        for line in self.proc.stderr:
            self.stderr_lines.append(line)
            if self.base_url is None:
                match = LISTENING.search(line)
                if match:
                    self.base_url = match.group(1)
                    self._ready.set()
        self._ready.set()

    def client(self, **kwargs: Any) -> ServerClient:
        assert self.base_url is not None
        return ServerClient(self.base_url, **kwargs)

    def sigkill(self) -> None:
        """SIGKILL the daemon *and* its pool workers: no drain, no
        atexit, no flush — and no orphan still holding the data-dir
        flock when the next daemon starts."""
        self._killpg()
        self.proc.wait()

    def _killpg(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (OSError, AttributeError):
            self.proc.kill()

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.client(retries=0, timeout_s=10).shutdown()
                self.proc.wait(timeout=30)
            except (ClientError, subprocess.TimeoutExpired, OSError):
                self._killpg()
                self.proc.wait()


def metric_value(metrics_text: str, name: str) -> float:
    """One un-labelled sample value from a Prometheus exposition."""
    for line in metrics_text.splitlines():
        if line.startswith(name + " "):
            return float(line.split()[1])
    return 0.0


def corpus_pairs(root: Path) -> list[tuple[Path, Path]]:
    from repro.batch import discover_pairs

    pairs, _, _ = discover_pairs(str(root / "before"), str(root / "after"))
    return [(Path(b), Path(a)) for b, a in pairs]


def cli_diff_json(before: Path, after: Path) -> "tuple[int, bytes]":
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "diff", str(before), str(after), "--json"],
        capture_output=True,
    )
    return proc.returncode, proc.stdout


def checks(seed: int, workdir: Path) -> Iterator[dict[str, Any]]:
    """The six gates on an in-memory daemon, then on a durable one.  The
    corpus is frozen, so ``seed`` is unused."""
    pairs = corpus_pairs(CORPUS)
    for store, data_dir in (("memory", None), ("durable", workdir / "data")):
        with Daemon(
            "--workers", str(WORKERS), data_dir=data_dir, env=LOCKSAN
        ) as daemon:
            for row in _gates(daemon, pairs):
                yield {"check": row["check"], "store": store, **row}


def _gates(daemon: Daemon, pairs: list[tuple[Path, Path]]) -> Iterator[dict[str, Any]]:
    client = daemon.client()

    # -- gate 1: byte identity across the corpus ----------------------
    problems: list[str] = []
    fingerprints: dict[Path, str] = {}
    # the CLI's answer for every pair the server matched byte for byte
    cli_bytes: dict[tuple[Path, Path], bytes] = {}
    for before, after in pairs:
        rc, cli_out = cli_diff_json(before, after)
        if rc == 2:
            # CLI rejects the pair (syntax/io): the server must
            # reject the upload with a structured bad_request
            for path in (before, after):
                try:
                    client.put_tree(path.read_text("utf8"), str(path))
                except ClientError as exc:
                    if exc.status != 400:
                        problems.append(f"{path}: expected 400, got {exc.status}")
                except OSError:
                    pass
            continue
        if rc != 0:
            problems.append(f"CLI diff failed on {before} -> {after} (exit {rc})")
            continue
        fps = []
        for path in (before, after):
            if path not in fingerprints:
                fingerprints[path] = client.put_tree(
                    path.read_text("utf8"), str(path)
                )["fingerprint"]
            fps.append(fingerprints[path])
        if client.diff_raw(fps[0], fps[1]) != cli_out:
            problems.append(f"{before} -> {after}: server diff is not byte-identical to CLI")
        else:
            cli_bytes[(before, after)] = cli_out
    diffable = list(cli_bytes)
    yield {
        "check": "byte_identity",
        "identical": len(diffable),
        "trees": len(set(fingerprints.values())),
        "problems": problems,
    }

    # -- gate 2: parse-once caching -----------------------------------
    problems = []
    parses_before = metric_value(client.metrics(), "repro_server_store_parses_total")
    before, after = diffable[0]
    first = client.diff_raw(fingerprints[before], fingerprints[after])
    repeat = client.diff_raw(fingerprints[before], fingerprints[after])
    if first != repeat:
        problems.append("repeated diff request returned different bytes")
    for path in (before, after):  # re-upload: content-addressed hit
        again = client.put_tree(path.read_text("utf8"), str(path))
        if not again["cached"]:
            problems.append(f"re-upload of {path} was not a store cache hit")
    metrics = client.metrics()
    parses_after = metric_value(metrics, "repro_server_store_parses_total")
    # re-uploads pay their discovery parse; fingerprint diffs must not
    if parses_after - parses_before != 2:
        problems.append(
            "fingerprint-addressed diffs re-parsed in the store: "
            f"parses went {parses_before} -> {parses_after} (expected +2 re-upload parses)"
        )
    if metric_value(metrics, "repro_server_store_dups_total") < 2:
        problems.append("re-uploads were not counted as store dups")
    yield {"check": "parse_once", "store_parses": parses_after, "problems": problems}

    # -- gate 3: concurrency ------------------------------------------
    results: list = [None] * CONCURRENCY

    def one(i: int) -> None:
        b, a = diffable[i % len(diffable)]
        try:
            results[i] = client.diff_raw(fingerprints[b], fingerprints[a])
        except Exception as exc:  # noqa: BLE001 - recorded and asserted
            results[i] = exc

    threads = [threading.Thread(target=one, args=(i,)) for i in range(CONCURRENCY)]
    t0 = time.time()
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
    errors = [r for r in results if not isinstance(r, bytes)]
    mismatched = [
        i
        for i, r in enumerate(results)
        if isinstance(r, bytes) and r != cli_bytes[diffable[i % len(diffable)]]
    ]
    problems = []
    if errors:
        problems.append(f"{len(errors)}/{CONCURRENCY} concurrent requests failed: {errors[:3]}")
    if mismatched:
        problems.append(
            f"{len(mismatched)}/{CONCURRENCY} concurrent responses differ from the "
            f"CLI bytes of their pair (requests {mismatched[:5]})"
        )
    yield {
        "check": "concurrency",
        "requests": CONCURRENCY,
        "identical": CONCURRENCY - len(errors) - len(mismatched),
        "elapsed_s": round(time.time() - t0, 2),
        "problems": problems,
    }

    # -- gate 4: observability surfaces -------------------------------
    problems = []
    if "repro_server_requests_total" not in metrics:
        problems.append("/metrics exposition lacks repro_server_requests_total")
    trace = client.trace()
    names = {e.get("name") for e in trace.get("traceEvents", []) if e.get("ph") == "X"}
    if "repro.server.request" not in names:
        problems.append(f"/trace has no repro.server.request spans (got {sorted(names)[:5]})")
    yield {"check": "observability", "span_names": len(names), "problems": problems}

    # -- gate 5: batch apply under the truerace schedule --------------
    problems = []
    batch_src = (
        "def f(x):\n    return x + 1\n\n"
        "def g(y):\n    return y * 2\n\n"
        "def h(z):\n    return z - 3\n"
    )
    edits = [("x + 1", "x + 100"), ("y * 2", "y * 200"), ("z - 3", "z - 300")]
    combined = batch_src
    for old, new in edits:
        combined = combined.replace(old, new)
    base_fp = client.put_tree(batch_src, "batch.py")["fingerprint"]
    scripts = [
        client.diff(base_fp, {"source": batch_src.replace(old, new)})["script"]
        for old, new in edits
    ]
    out = client.apply_batch(base_fp, scripts, oracle=True)
    if out["applied"] != 3 or out["rejected"] != 0:
        problems.append(
            f"apply-batch verdicts: {out['applied']} applied, {out['rejected']} rejected"
        )
    if out["schedule"]["waves"] != [[0, 1, 2]]:
        problems.append(
            f"independent scripts did not schedule into one wave: {out['schedule']['waves']}"
        )
    if not out.get("oracle", {}).get("ok"):
        problems.append(f"apply-batch differential oracle: {out.get('oracle')}")
    want = client.put_tree(combined, "batch.py")
    if not want["cached"] or want["fingerprint"] != out["fingerprint"]:
        problems.append("apply-batch result is not the combined-source tree")
    again = client.apply_batch(base_fp, scripts, commit=False, oracle=True)
    if again["fingerprint"] != out["fingerprint"]:
        problems.append("apply-batch is not deterministic across repeats")
    yield {"check": "apply_batch", "mode": out["mode"], "problems": problems}

    # -- gate 6: graceful shutdown ------------------------------------
    client.shutdown()
    rc = daemon.proc.wait(timeout=60)
    yield {
        "check": "shutdown",
        "exit": rc,
        "problems": [] if rc == 0 else [f"daemon exited {rc} after graceful shutdown"],
    }
