"""The ``chaos`` suite of :mod:`repro.campaign`: seeded process-level
chaos against the diff daemon.

The ``fault`` suite (:mod:`repro.robustness.harness`) attacks scripts
and trees inside one process; this suite attacks the *daemon* the way
production does — with signals, torn disks, dead workers, stalled
sockets, and too much traffic.  Each scenario is one check:

* ``restart_identity`` — populate a durable store (uploads + a journaled
  apply), SIGKILL the daemon, restart from the same ``--data-dir``:
  recovery must be clean, and the tree set, every ``verify``, and every
  frozen diff answer must be byte-identical to pre-crash (and to
  one-shot ``repro diff --json``);
* ``kill9_mid_apply`` — SIGKILL mid-apply-stream: every apply the
  daemon *acknowledged* must survive the restart (the fsync-before-ack
  contract), unacknowledged ones may simply not exist;
* ``torn_tail`` — :func:`~repro.robustness.truncate_tail` the active
  journal segment: recovery skips-and-counts the torn record, keeps
  everything before it, and the daemon serves;
* ``flip_byte`` — :func:`~repro.robustness.flip_byte` one journal byte:
  recovery reports the damage (CRC/fingerprint) and never goes down;
* ``worker_kill`` — SIGKILL a pool worker with ≥ 12 requests in flight:
  every request gets correct bytes or a structured ``unavailable``,
  never a hang, and the rebuilt pool serves the next request.  On Linux,
  where ``/proc`` shows the workers, a scenario that finds none fails
  rather than skips;
* ``slow_loris`` — stalled half-sent requests must time out (408) while
  concurrent well-behaved requests keep being served;
* ``overload_shed`` — with ``--max-inflight 1``, a 12-way burst yields
  at least one 503 + ``Retry-After`` and at least one success, and a
  backoff-retrying client gets through;
* ``overhead`` — the durable store's write path (same put/apply mix the
  smoke gate drives) is timed against the in-memory store and gated at
  :data:`MAX_OVERHEAD_PCT`.

Every daemon a scenario starts is stopped when the scenario ends, on
every exit path.  Everything derives from the seed::

    PYTHONPATH=src python -m repro.campaign chaos --seed 20260808
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import socket
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterator
from urllib.parse import urlsplit

from repro.corpus import seeded_cases
from repro.robustness import flip_byte, truncate_tail

from .client import ClientError, ServerClient
from .smoke import Daemon, cli_diff_json, metric_value

#: the durable store's write path may cost at most this much over the
#: in-memory store's
MAX_OVERHEAD_PCT = 25.0


# ---------------------------------------------------------------------------
# plumbing


def worker_pids(daemon_pid: int) -> list[int]:
    """The daemon's direct children (its ProcessPoolExecutor workers),
    via /proc; empty where /proc is unavailable."""
    pids: set[int] = set()
    try:
        # /proc/<pid>/task/*/children needs CONFIG_PROC_CHILDREN ...
        for children in Path(f"/proc/{daemon_pid}/task").glob("*/children"):
            pids.update(int(p) for p in children.read_text().split())
    except OSError:
        pass
    if pids:
        return sorted(pids)
    # ... so fall back to scanning every /proc/<pid>/stat for the ppid
    # (field 4, after the parenthesised comm which may contain spaces)
    try:
        for entry in Path("/proc").iterdir():
            if not entry.name.isdigit():
                continue
            try:
                stat = (entry / "stat").read_text()
                ppid = int(stat.rpartition(")")[2].split()[1])
            except (OSError, ValueError, IndexError):
                continue
            if ppid == daemon_pid:
                pids.add(int(entry.name))
    except OSError:
        return []
    return sorted(pids)


def local_script(before: str, after: str) -> str:
    """The truechange script transforming ``before`` into ``after``,
    computed entirely client-side (so applying it server-side produces a
    tree the daemon has never been *sent* — it exists only in the
    journal, which is exactly what recovery must replay)."""
    from repro.adapters.pyast import parse_python

    from .pool import diff_trees

    src = parse_python(before).with_canonical_uris()
    dst = parse_python(after).with_canonical_uris()
    return diff_trees(src, dst)["script_json"]


def journal_segments(data_dir: Path) -> list[Path]:
    return sorted((data_dir / "journal").glob("wal-*.log"))


# ---------------------------------------------------------------------------
# scenarios (each returns a list of problems; empty = recovered)


def scenario_restart_identity(seed: int, workdir: Path) -> tuple[list[str], dict]:
    data_dir = workdir / "restart-identity"
    docs = [(b, a) for b, (a,) in seeded_cases(seed, 4, "medium")]
    problems: list[str] = []

    with Daemon("--workers", "2", data_dir=data_dir) as daemon:
        client = daemon.client()
        fps = []
        for before, after in docs:
            fb = client.put_tree(before, "before.py")["fingerprint"]
            fa = client.put_tree(after, "after.py")["fingerprint"]
            fps.append((fb, fa))
        # one journaled apply: the target tree is never uploaded
        script = local_script(docs[0][0], docs[0][1] + "\nchaos_marker = 1\n")
        acked = client.apply(fps[0][0], json.loads(script))["fingerprint"]
        pre_diffs = [client.diff_raw(fb, fa) for fb, fa in fps]
        pre_trees = sorted(
            (t["fingerprint"], t["nodes"]) for t in client.list_trees()
        )
        daemon.sigkill()

    with Daemon("--workers", "2", data_dir=data_dir) as daemon:
        client = daemon.client()
        health = client.health()
        recovery = health.get("recovery") or {}
        if not recovery.get("clean"):
            problems.append(f"recovery of an intact layout was not clean: {recovery}")
        post_trees = sorted(
            (t["fingerprint"], t["nodes"]) for t in client.list_trees()
        )
        if post_trees != pre_trees:
            problems.append(
                f"/trees diverged across restart: {len(pre_trees)} pre, "
                f"{len(post_trees)} post"
            )
        for (fb, fa), pre in zip(fps, pre_diffs):
            if client.diff_raw(fb, fa) != pre:
                problems.append(f"diff {fb[:12]}->{fa[:12]} not byte-identical post-restart")
        for fp, _nodes in post_trees:
            v = client.verify(fp)
            if not v["ok"]:
                problems.append(f"recovered tree {fp[:12]} fails verify: {v['violations'][:2]}")
        if not client.verify(acked)["ok"]:
            problems.append("journal-recovered apply result fails verify")
        # the server answer must also match the one-shot CLI byte for byte
        b, a = docs[0]
        before_path, after_path = workdir / "ri-before.py", workdir / "ri-after.py"
        before_path.write_text(b, "utf8")
        after_path.write_text(a, "utf8")
        rc, cli_out = cli_diff_json(before_path, after_path)
        if rc != 0:
            problems.append(f"one-shot CLI diff failed (exit {rc})")
        elif client.diff_raw(fps[0][0], fps[0][1]) != cli_out:
            problems.append("post-restart server diff is not byte-identical to the CLI")
    return problems, {"trees": len(pre_trees), "recovery": recovery}


def scenario_kill9_mid_apply(seed: int, workdir: Path) -> tuple[list[str], dict]:
    data_dir = workdir / "kill9-mid-apply"
    base = seeded_cases(seed + 100, 1, "medium")[0][0]
    problems: list[str] = []
    acked: list[str] = []

    with Daemon(data_dir=data_dir) as daemon:
        client = daemon.client(retries=0)
        base_fp = client.put_tree(base, "base.py")["fingerprint"]
        variants = [base + f"\nchaos_apply_{i} = {i}\n" for i in range(12)]
        scripts = [local_script(base, v) for v in variants]
        stop = threading.Event()

        def apply_stream() -> None:
            for script in scripts:
                if stop.is_set():
                    return
                try:
                    acked.append(client.apply(base_fp, json.loads(script))["fingerprint"])
                except (ClientError, OSError):
                    return  # killed mid-request: that apply was never acked

        thread = threading.Thread(target=apply_stream)
        thread.start()
        deadline = time.time() + 30
        while len(acked) < 3 and thread.is_alive() and time.time() < deadline:
            time.sleep(0.002)
        daemon.sigkill()  # mid-stream, possibly mid-record
        stop.set()
        thread.join(30)
    if len(acked) < 1:
        problems.append("no apply was acknowledged before the kill (scenario vacuous)")

    with Daemon(data_dir=data_dir) as daemon:
        client = daemon.client()
        recovery = (client.health().get("recovery") or {})
        for fp in acked:
            try:
                v = client.verify(fp)
            except ClientError as exc:
                problems.append(
                    f"acked apply {fp[:12]} lost across SIGKILL (fsync-before-ack "
                    f"violated): {exc.status}"
                )
                continue
            if not v["ok"]:
                problems.append(f"acked apply {fp[:12]} recovered but fails verify")
        for t in client.list_trees():
            if not client.verify(t["fingerprint"])["ok"]:
                problems.append(f"recovered tree {t['fingerprint'][:12]} fails verify")
    return problems, {"acked": len(acked), "recovery": recovery}


def _damaged_journal_scenario(
    seed: int,
    workdir: Path,
    name: str,
    damage: Callable[[bytes, random.Random], tuple[bytes, Any]],
) -> tuple[list[str], dict]:
    """Common shape of ``torn_tail`` / ``flip_byte``: build a journal with
    two applies, damage the segment bytes, restart, assert the daemon
    comes up on a verified store and *reports* the damage."""
    data_dir = workdir / name
    [(base, (other,))] = seeded_cases(seed + 200, 1, "medium")
    problems: list[str] = []

    with Daemon(data_dir=data_dir) as daemon:
        client = daemon.client()
        base_fp = client.put_tree(base, "base.py")["fingerprint"]
        other_fp = client.put_tree(other, "other.py")["fingerprint"]
        acked = [
            client.apply(base_fp, json.loads(local_script(base, base + f"\nx{i} = {i}\n")))[
                "fingerprint"
            ]
            for i in range(2)
        ]
        expected_diff = client.diff_raw(base_fp, other_fp)
        daemon.sigkill()

    segments = journal_segments(data_dir)
    if not segments:
        return ["no journal segment was written"], {}
    target = segments[-1]
    data = target.read_bytes()
    rng = random.Random(seed * 7919 + len(data))
    damaged, detail = damage(data, rng)
    target.write_bytes(damaged)

    with Daemon(data_dir=data_dir) as daemon:
        client = daemon.client()
        recovery = (client.health().get("recovery") or {})
        reported = (
            recovery.get("torn_records", 0)
            + recovery.get("records_skipped", 0)
            + recovery.get("fingerprint_mismatches", 0)
            + len(recovery.get("problems") or [])
        )
        survivors = sum(
            1
            for fp in acked
            if _tree_present(client, fp)
        )
        if reported == 0 and survivors == len(acked):
            problems.append(
                f"journal damage ({detail}) was neither reported nor lossy: {recovery}"
            )
        for t in client.list_trees():
            if not client.verify(t["fingerprint"])["ok"]:
                problems.append(f"tree {t['fingerprint'][:12]} fails verify after {name}")
        if client.diff_raw(base_fp, other_fp) != expected_diff:
            problems.append(f"diff answer changed after {name} recovery")
    return problems, {
        "detail": str(detail),
        "recovered_applies": recovery.get("applies_replayed"),
        "recovery": recovery,
    }


def _tree_present(client: ServerClient, fp: str) -> bool:
    try:
        return client.verify(fp)["ok"]
    except ClientError:
        return False


def scenario_torn_tail(seed: int, workdir: Path) -> tuple[list[str], dict]:
    # cut less than one whole record so the tail is torn, not merely gone
    return _damaged_journal_scenario(
        seed,
        workdir,
        "torn-tail",
        lambda data, rng: (
            lambda t: (t[0], f"cut {t[1]} tail byte(s)")
        )(truncate_tail(data, rng, max_cut=min(120, max(1, len(data) - 1)))),
    )


def scenario_flip_byte(seed: int, workdir: Path) -> tuple[list[str], dict]:
    return _damaged_journal_scenario(
        seed,
        workdir,
        "flip-byte",
        lambda data, rng: (
            lambda t: (t[0], f"flipped byte at offset {t[1]}")
        )(flip_byte(data, rng)),
    )


def scenario_worker_kill(seed: int, workdir: Path) -> tuple[list[str], dict]:
    problems: list[str] = []
    docs = [(b, a) for b, (a,) in seeded_cases(seed + 300, 2, "big")]

    with Daemon("--workers", "2") as daemon:
        client = daemon.client(retries=0)
        fps = []
        for before, after in docs:
            fb = client.put_tree(before, "b.py")["fingerprint"]
            fa = client.put_tree(after, "a.py")["fingerprint"]
            fps.append((fb, fa))
        # the warm-up diffs above forced the lazily-spawned pool workers
        # into existence; now they are visible as daemon children
        expected = {pair: client.diff_raw(*pair) for pair in fps}
        pids: list[int] = []
        deadline = time.time() + 10
        while not pids and time.time() < deadline:
            pids = worker_pids(daemon.proc.pid)
            time.sleep(0.05)
        if not pids:
            if sys.platform.startswith("linux"):
                return ["no pool worker visible under /proc to kill"], {}
            return [], {"skipped": "no /proc children visibility on this platform"}

        n = 12
        results: list[Any] = [None] * n

        def one(i: int) -> None:
            pair = fps[i % len(fps)]
            local = daemon.client(retries=0, timeout_s=60)
            try:
                results[i] = (pair, local.diff_raw(*pair))
            except ClientError as exc:
                results[i] = exc

        threads = [threading.Thread(target=one, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        time.sleep(0.05)
        os.kill(pids[0], signal.SIGKILL)
        for t in threads:
            t.join(90)
        hung = sum(1 for t in threads if t.is_alive())
        if hung:
            problems.append(f"{hung}/{n} requests hung after the worker kill")
        outcomes = {"correct": 0, "unavailable": 0}
        for r in results:
            if isinstance(r, tuple):
                pair, body = r
                if body == expected[pair]:
                    outcomes["correct"] += 1
                else:
                    problems.append(f"mixed-up response for {pair[0][:12]}")
            elif isinstance(r, ClientError):
                if r.status == 503 and r.code == "unavailable":
                    outcomes["unavailable"] += 1
                else:
                    problems.append(
                        f"non-structured failure after worker kill: "
                        f"status={r.status} code={r.code}"
                    )
            elif r is not None:
                problems.append(f"unexpected result {type(r).__name__}")
        # the rebuilt pool must serve again (retries smooth the rebuild window)
        retry_client = daemon.client(retries=5, rng=random.Random(seed))
        if retry_client.diff_raw(*fps[0]) != expected[fps[0]]:
            problems.append("post-rebuild diff is not byte-identical")
    return problems, {"workers_seen": len(pids), "outcomes": outcomes}


def scenario_slow_loris(seed: int, workdir: Path) -> tuple[list[str], dict]:
    problems: list[str] = []
    [(before, (after,))] = seeded_cases(seed + 400, 1, "medium")

    with Daemon("--header-timeout", "1.0") as daemon:
        parts = urlsplit(daemon.base_url)
        stalled = []
        for _ in range(6):
            sock = socket.create_connection((parts.hostname, parts.port), timeout=10)
            sock.sendall(b"POST /diff HTTP/1.1\r\nContent-")  # ...and stall
            stalled.append(sock)

        # well-behaved requests must be served while the loris squats
        client = daemon.client(retries=0, timeout_s=30)
        fb = client.put_tree(before, "b.py")["fingerprint"]
        fa = client.put_tree(after, "a.py")["fingerprint"]
        if not client.diff_raw(fb, fa):
            problems.append("diff failed while slow clients were connected")
        if client.health()["status"] != "ok":
            problems.append("health check failed while slow clients were connected")

        timed_out = 0
        for sock in stalled:
            sock.settimeout(10)
            try:
                head = sock.recv(64)
                if b"408" in head:
                    timed_out += 1
            except OSError:
                pass
            finally:
                sock.close()
        if timed_out == 0:
            problems.append("no stalled connection was answered with 408")
        slow = metric_value(client.metrics(), "repro_server_http_slow_clients_total")
        if slow < 1:
            problems.append(f"slow_clients counter not incremented (got {slow})")
    return problems, {"stalled": 6, "timed_out": timed_out, "counter": slow}


def scenario_overload_shed(seed: int, workdir: Path) -> tuple[list[str], dict]:
    problems: list[str] = []
    [(before, (after,))] = seeded_cases(seed + 500, 1, "big")

    with Daemon("--max-inflight", "1") as daemon:
        client = daemon.client(retries=0, timeout_s=120)
        fb = client.put_tree(before, "b.py")["fingerprint"]
        fa = client.put_tree(after, "a.py")["fingerprint"]
        expected = client.diff_raw(fb, fa)

        n = 12
        results: list[Any] = [None] * n

        def one(i: int) -> None:
            local = daemon.client(retries=0, timeout_s=120)
            try:
                results[i] = local.diff_raw(fb, fa)
            except ClientError as exc:
                results[i] = exc

        threads = [threading.Thread(target=one, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)

        shed = succeeded = 0
        for r in results:
            if isinstance(r, bytes):
                if r != expected:
                    problems.append("burst diff returned wrong bytes")
                succeeded += 1
            elif isinstance(r, ClientError) and r.status == 503:
                shed += 1
                if r.retry_after is None:
                    problems.append("shed 503 carried no Retry-After header")
            else:
                problems.append(f"unexpected burst outcome: {r}")
        if succeeded == 0:
            problems.append("overload burst: nothing succeeded")
        if shed == 0:
            problems.append(
                "overload burst: nothing was shed (max-inflight bound not enforced)"
            )
        # a retrying client rides the backoff through the burst
        retry_client = daemon.client(
            retries=6, backoff_base_s=0.05, rng=random.Random(seed)
        )
        if retry_client.diff_raw(fb, fa) != expected:
            problems.append("retrying client did not converge to the right bytes")
        shed_metric = metric_value(
            retry_client.metrics(), "repro_server_http_shed_total"
        )
        if shed and shed_metric < 1:
            problems.append("shed counter not incremented")
    return problems, {"shed": shed, "succeeded": succeeded}


def scenario_overhead(seed: int, workdir: Path) -> tuple[list[str], dict]:
    """The durable store's write path vs the in-memory store on the same
    put/apply mix the server smoke gate drives (parse-heavy uploads plus
    journaled applies), best-of-3 to shave scheduler noise."""
    from .store import TreeStore

    docs = [(b, a) for b, (a,) in seeded_cases(seed + 600, 6, "medium")]
    scripts = [local_script(b, a) for b, a in docs]
    from repro.core.serialize import script_from_json

    parsed_scripts = [script_from_json(s) for s in scripts]

    def drive(store) -> None:
        for (before, _after), script in zip(docs, parsed_scripts):
            entry, _ = store.put_source(before, "b.py")
            store.apply(entry.fingerprint, script)

    def best_of(make_store, rounds: int = 3) -> float:
        best = float("inf")
        for i in range(rounds):
            store = make_store(i)
            t0 = time.perf_counter()
            drive(store)
            best = min(best, time.perf_counter() - t0)
            if hasattr(store, "close"):
                store.close()
        return best

    t_memory = best_of(lambda i: TreeStore(max_trees=256))

    from .durable import DurableTreeStore

    def durable(i: int) -> DurableTreeStore:
        path = workdir / f"overhead-{i}"
        shutil.rmtree(path, ignore_errors=True)
        return DurableTreeStore(path, max_trees=256)

    t_durable = best_of(durable)
    overhead_pct = (t_durable - t_memory) / t_memory * 100 if t_memory else 0.0
    problems = []
    if overhead_pct > MAX_OVERHEAD_PCT:
        problems.append(
            f"durable write overhead {overhead_pct:.1f}% exceeds the "
            f"{MAX_OVERHEAD_PCT:.0f}% gate (memory {t_memory * 1000:.1f} ms, "
            f"durable {t_durable * 1000:.1f} ms)"
        )
    return problems, {
        "memory_ms": round(t_memory * 1000, 2),
        "durable_ms": round(t_durable * 1000, 2),
        "overhead_pct": round(overhead_pct, 1),
    }


SCENARIOS: dict[str, Callable[[int, Path], tuple[list[str], dict]]] = {
    "restart_identity": scenario_restart_identity,
    "kill9_mid_apply": scenario_kill9_mid_apply,
    "torn_tail": scenario_torn_tail,
    "flip_byte": scenario_flip_byte,
    "worker_kill": scenario_worker_kill,
    "slow_loris": scenario_slow_loris,
    "overload_shed": scenario_overload_shed,
    "overhead": scenario_overhead,
}


def checks(seed: int, workdir: Path) -> Iterator[dict[str, Any]]:
    """One row per scenario."""
    for name, scenario in SCENARIOS.items():
        problems, detail = scenario(seed, workdir)
        yield {"check": name, **detail, "problems": problems}
