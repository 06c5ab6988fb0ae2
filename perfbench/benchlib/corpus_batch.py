"""Workload ``corpus-batch``: :func:`repro.batch.run_batch` over a corpus.

The corpus is :data:`HISTORIES` short commit histories, each starting
from the seed's files: one long history would let a few files grow
through a dozen copied functions, and how far they grew would decide a
seed's slowest pairs.  The changed-file pairs are written to disk, then
``run_batch`` diffs them with ``min(2, nproc)`` workers, call after call
until ``--seconds`` have elapsed.  Batch workers read and parse every
pair afresh on every call (nothing is cached between calls), so
repeating the pair list is the same work as a longer corpus.  One op is
one pair; ``ops_per_s`` is pairs over the summed wall time of the
``run_batch`` calls, the time a ``repro batch`` user waits.  ``p50_ms``
and ``p90_ms`` are percentiles over pairs of each pair's median worker
time across the calls: two busy workers share the two CPUs with the
driver, so single pair times carry scheduling noise that the median of
a pair's repeats removes.

``setup_s`` is the CLI start-up a ``repro`` user pays per command: the
median wall time of ``python -m repro diff`` on a one-line pair, spawned
:data:`SPAWNS_PER_CALL` times before each ``run_batch`` call (and after
the last, up to ``Sizes.spawns``), so the samples spread through the
run instead of bunching at its start.

With ``--trace 1`` calls alternate between the plain worker function
and :func:`traced_pair`, which wraps the layer calls inside the worker
process and ships each pair's per-layer self times back in its row.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from . import common, inputs, layers, oracle
from .tracer import Tracer, layer_self_ms


@dataclass(frozen=True)
class Sizes:
    files: int = 24
    pairs: int = 192
    band: inputs.Band = inputs.SMALL
    spawns: int = 15


#: Independent histories the pairs are drawn from (equal shares).
HISTORIES = 8
#: ``run_batch`` calls a run makes however short ``--seconds`` is.
MIN_CALLS = 2
#: CLI start-ups timed before each ``run_batch`` call.
SPAWNS_PER_CALL = 4


#: Row key that carries a traced pair's per-layer self times.
LAYERS_KEY = "perfbench_layers"

_WORKER_TRACER: Tracer | None = None


def traced_pair(before: str, after: str) -> dict:
    """:func:`repro.batch.diff_pair` with the layer calls wrapped; runs
    in a pool worker (picklable top-level function)."""
    global _WORKER_TRACER
    from repro.batch import diff_pair

    if _WORKER_TRACER is None or _WORKER_TRACER._pid != os.getpid():
        _WORKER_TRACER = Tracer()
        layers.install_core(_WORKER_TRACER)
    tr = _WORKER_TRACER
    tr.reset()
    tr.op = 0
    idx = tr.begin("op")
    try:
        row = diff_pair(before, after)
    finally:
        tr.end(idx)
    span = tr.spans[idx]
    row[LAYERS_KEY] = {
        "self_ms": layer_self_ms(tr.spans, [0]),
        "wall_ms": (span[2] - span[1]) * 1000.0,
    }
    return row


def _cli_startup(a, b, spawns: int) -> list[float]:
    """Wall times of ``spawns`` runs of ``python -m repro diff A B``."""
    env = common.child_env()
    times = []
    for _ in range(spawns):
        t = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "diff", str(a), str(b)],
            env=env,
            stdout=subprocess.DEVNULL,
        )
        # wait(timeout=...) polls in steps of up to 50 ms, which would
        # quantize the measurement; block instead, with a kill timer
        watchdog = threading.Timer(60, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - t)
        if code != 0:
            raise RuntimeError(f"repro diff exited {code} during CLI start-up timing")
    return times


def run(seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes(), tamper: bool = False) -> dict:
    """One run; ``tamper`` alters one result row before the oracle sees
    it (the oracle self-test)."""
    from repro.adapters.pyast import parse_python
    from repro.batch import BatchConfig, run_batch
    from repro.core import URIGen, diff, tnode_to_mtree

    files = inputs.banded_files(seed, sizes.files, sizes.band)
    texts = []
    for h in range(HISTORIES):
        chains = inputs.history(seed * HISTORIES + h, files, -(-sizes.pairs // HISTORIES))
        texts += [(c[i], c[i + 1]) for c in chains.values() for i in range(len(c) - 1)]
    workers = max(1, min(2, os.cpu_count() or 1))

    with common.WorkDir("corpus-batch") as wd:
        before_dir, after_dir = wd.sub("before"), wd.sub("after")
        pairs = []
        for k, (b, a) in enumerate(texts):
            bp, ap = before_dir / f"p{k:03d}.py", after_dir / f"p{k:03d}.py"
            bp.write_text(b, encoding="utf8")
            ap.write_text(a, encoding="utf8")
            pairs.append((str(bp), str(ap)))
        index = {p: k for k, p in enumerate(pairs)}
        one_a, one_b = wd.path / "startup_a.py", wd.path / "startup_b.py"
        one_a.write_text("x = 1\n", encoding="utf8")
        one_b.write_text("x = 2\n", encoding="utf8")

        config = BatchConfig(workers=workers)
        startup: list[float] = []
        calls = []  # (traced, wall_s, rows, summary, rss_mb)
        while len(calls) < MIN_CALLS or sum(c[1] for c in calls) < seconds:
            startup += _cli_startup(one_a, one_b, min(SPAWNS_PER_CALL, sizes.spawns - len(startup)))
            traced = trace and len(calls) % 2 == 1
            rows: list[dict] = []
            watch = common.RssWatch(os.getpid())
            stop = threading.Event()

            def poll() -> None:
                while not stop.wait(0.05):
                    watch.poll()

            poller = threading.Thread(target=poll, daemon=True)
            poller.start()
            t = time.perf_counter()
            try:
                summary = run_batch(
                    pairs, config, emit=rows.append, pair_fn=traced_pair if traced else None
                )
            finally:
                wall = time.perf_counter() - t
                stop.set()
                poller.join(timeout=5)
            watch.poll()
            calls.append((traced, wall, rows, summary, watch.total_mb()))
        startup += _cli_startup(one_a, one_b, sizes.spawns - len(startup))

    # -- oracle (outside the timed phase) --------------------------------
    expected: list[int | None] = []
    for k, (b, a) in enumerate(texts):
        src = parse_python(b).with_canonical_uris()
        ref = tnode_to_mtree(src)  # before diffing: the diff may reuse src's nodes
        script, _ = diff(src, parse_python(a), urigen=URIGen(start=src.size + 1))
        expected.append(len(script) if oracle.script_reproduces(b, script, a, ref) else None)

    if tamper:
        calls[0][2][0]["edits"] += 1
    attempted = failed = 0
    edits: list[int] = []
    for _traced, _wall, rows, summary, _rss in calls:
        attempted += len(pairs)
        seen = set()
        for row in rows:
            k = index.get((row.get("before"), row.get("after")))
            seen.add(k)
            ok = (
                k is not None
                and row.get("status") == "ok"
                and (row.get("lint") or {}).get("clean") is True
                and expected[k] is not None
                and row.get("edits") == expected[k]
            )
            if ok:
                edits.append(row["edits"])
            else:
                failed += 1
        failed += len(pairs) - len(seen - {None})  # pairs without a row

    plain = [c for c in calls if not c[0]]
    nodes = sum(r.get("src_nodes", 0) + r.get("dst_nodes", 0) for r in plain[0][2]) / len(pairs)
    print(
        f"corpus-batch: seed {seed}: {len(pairs)} pairs, {nodes:.0f} nodes/pair, "
        f"{len(calls)} run_batch calls, {workers} workers",
        file=sys.stderr,
    )
    rate_plain = len(pairs) * len(plain) / sum(c[1] for c in plain)
    if not trace:
        # a pair's latency is the worker's own time for it, the median
        # over the calls: one call's scheduling hiccup does not move it
        by_pair: dict[int, list[float]] = {}
        for c in plain:
            for r in c[2]:
                k = index.get((r.get("before"), r.get("after")))
                if k is not None and "total_ms" in r:
                    by_pair.setdefault(k, []).append(r["total_ms"])
        pair_ms = [common.median(v) for v in by_pair.values()]
        metrics = {
            "setup_s": common.metric(common.median(startup), "s"),
            "p50_ms": common.metric(common.percentile(pair_ms, 50), "ms"),
            "p90_ms": common.metric(common.percentile(pair_ms, 90), "ms"),
            "ops_per_s": common.metric(rate_plain, "1/s"),
            "peak_rss_mb": common.metric(max(c[4] for c in calls), "MB"),
            "edits_per_op": common.metric(common.geometric_mean(edits), "edits"),
        }
    else:
        traced_calls = [c for c in calls if c[0]]
        self_ms: dict[str, float] = {}
        wall_ms = 0.0
        n = 0
        for _t, _w, rows, _s, _r in traced_calls:
            for row in rows:
                info = row.get(LAYERS_KEY)
                if not info:
                    continue
                n += 1
                wall_ms += info["wall_ms"]
                for name, ms in info["self_ms"].items():
                    self_ms[name] = self_ms.get(name, 0.0) + ms
        busy_ms = sum(r.get("total_ms", 0.0) for c in plain for r in c[2])
        rate_traced = len(pairs) * len(traced_calls) / sum(c[1] for c in traced_calls)
        metrics = layers.per_layer_metrics(
            self_ms,
            n,
            wall_ms,
            rate_plain,
            rate_traced,
            {
                "batch.busy_share": busy_ms / 1000.0 / (workers * sum(c[1] for c in plain)),
                "batch.retried": sum(c[3].retried for c in calls),
                "batch.failed": sum(c[3].failed for c in calls),
            },
        )
        print(
            "corpus-batch: layers run inside the pool workers via the traced pair "
            "function; unattributed = pair wall minus layer self time",
            file=sys.stderr,
        )
    return common.result_line(attempted, failed, metrics)
