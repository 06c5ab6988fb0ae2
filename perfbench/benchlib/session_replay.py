"""Workload ``session-replay``: in-process ``DiffSession`` replay.

One :class:`repro.core.DiffSession` per file (default options: flat
engine, static validation) replays that file's successive versions.
A run is a series of passes until set-up plus replay have taken
``--seconds``.  Each pass replays a short commit history of its own,
seeded by the run's seed and the pass number, from the seed's files: a
history that ran on from pass to pass would let files grow, and later
passes (which only fast runs reach) would diff larger trees.  Each
pass is a full set-up -- parse every changed file, build its session,
parse every target, so every target is a fresh tree and the
``arena_of`` cache hides nothing -- followed by the timed replay, one
op per ``DiffSession.diff``.  ``setup_s`` is the median pass set-up.
Every op of a run diffs a distinct pair of versions.  Sessions replay
keystroke-sized steps: a commit that changes more than a few lines
starts a new session (see :data:`benchlib.inputs.KEYSTROKE_LINES`).

The oracle rolls a reference ``MTree`` through each session's scripts
and compares it with CPython's ``ast`` of every version.
"""

from __future__ import annotations

import gc
import os
import sys
import time
from dataclasses import dataclass

from . import common, inputs, layers, oracle
from .tracer import Tracer, layer_self_ms


@dataclass(frozen=True)
class Sizes:
    files: int = 16
    changes: int = 36
    band: inputs.Band = inputs.MEDIUM


#: Passes a run makes however short ``--seconds`` is.
MIN_PASSES = 3


def run(seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes(), tamper: bool = False) -> dict:
    """One run; ``tamper`` corrupts the last script before the oracle
    sees it (the oracle self-test)."""
    from repro.adapters.pyast import parse_python, python_grammar
    from repro.core import DiffSession, URIGen

    files = inputs.banded_files(seed, sizes.files, sizes.band)
    python_grammar()  # built once per process; corpus-batch times it
    tracer = Tracer() if trace else None

    setup_s: list[float] = []
    lat = {False: [], True: []}  # traced? -> op latencies (s)
    edits: list[int] = []
    nodes: list[int] = []
    pass_chains: list[dict[str, list[str]]] = []
    scripts: list[tuple[int, str, int, object]] = []
    failed_ops: set[tuple[int, str, int]] = set()
    ops = 0
    passes = 0
    measured = 0.0
    while passes < MIN_PASSES or measured < seconds:
        traced = trace and passes % 2 == 1
        chains = inputs.history(seed * 1000 + passes, files, sizes.changes, keystrokes=True)
        pass_chains.append(chains)
        t0 = time.perf_counter()
        sessions = []
        for path, chain in chains.items():
            base = parse_python(chain[0]).with_canonical_uris()
            session = DiffSession(base, urigen=URIGen(start=base.size + 1))
            targets = [parse_python(v) for v in chain[1:]]
            sessions.append((path, session, targets))
        setup_s.append(time.perf_counter() - t0)
        gc.collect()
        if traced:
            layers.install_core(tracer)
        try:
            for path, session, targets in sessions:
                alive = True
                for i, target in enumerate(targets):
                    ops += 1
                    if not alive:
                        failed_ops.add((passes, path, i))
                        continue
                    if traced:
                        tracer.op = ops
                        idx = tracer.begin("op")
                    t = time.perf_counter()
                    try:
                        script, _ = session.diff(target)
                    except Exception as exc:  # one failing op must not end the run
                        print(f"session-replay: {path} v{i + 1}: {exc!r}", file=sys.stderr)
                        failed_ops.add((passes, path, i))
                        alive = False
                        continue
                    finally:
                        if traced:
                            tracer.end(idx)
                    lat[traced].append(time.perf_counter() - t)
                    edits.append(len(script))
                    nodes.append(target.size)
                    scripts.append((passes, path, i, script))
        finally:
            if traced:
                tracer.restore()
        measured += time.perf_counter() - t0
        passes += 1
        sessions = None

    # -- oracle (outside the timed phase) --------------------------------
    for n, (p, path, i, script) in enumerate(scripts):
        chain = pass_chains[p][path]
        if i == 0:
            ref = oracle.SessionOracle(chain[0])
        if tamper and n == len(scripts) - 1:
            script = drop_last_edit(script)
        if not ref.step(script, chain[i + 1]):
            failed_ops.add((p, path, i))

    all_lat = lat[False] + lat[True]
    attempted = ops
    failed = len(failed_ops)
    print(
        f"session-replay: seed {seed}: {passes} passes of {sizes.changes}+ changes, "
        f"{attempted} ops, mean {common.mean(nodes):.0f} target nodes/op, "
        f"mean {common.mean(edits):.1f} edits/op",
        file=sys.stderr,
    )
    if not trace:
        metrics = {
            "setup_s": common.metric(common.median(setup_s), "s"),
            "p50_ms": common.metric(common.to_ms(common.percentile(all_lat, 50)), "ms"),
            "p90_ms": common.metric(common.to_ms(common.percentile(all_lat, 90)), "ms"),
            "ops_per_s": common.metric(len(all_lat) / sum(all_lat), "1/s"),
            "peak_rss_mb": common.metric(common.peak_rss_kb(os.getpid()) / 1024.0, "MB"),
            "edits_per_op": common.metric(common.geometric_mean(edits), "edits"),
        }
    else:
        self_ms = layer_self_ms(tracer.spans, range(1, ops + 1))
        metrics = layers.per_layer_metrics(
            self_ms,
            len(lat[True]),
            common.to_ms(sum(lat[True])),
            len(lat[False]) / sum(lat[False]),
            len(lat[True]) / sum(lat[True]),
        )
    return common.result_line(attempted, failed, metrics)


def drop_last_edit(script):
    """A corrupted copy of ``script`` (oracle self-tests)."""
    from repro.core import EditScript

    edits = list(script)
    return EditScript(edits[:-1])
