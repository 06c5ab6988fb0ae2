"""Tracked performance baseline: ``BENCH_truediff.json``.

Every PR that touches the hot path regenerates this file so the repo
records its performance trajectory.  The corpus recipe below is FROZEN —
the numbers are only comparable across revisions if every revision
measures the exact same workload:

* 4 synthetic modules (:func:`~repro.corpus.generate_module` seeds
  100..103, ``GeneratorConfig(n_functions=(24, 32), n_classes=(6, 10))``,
  ~14k tree nodes each),
* 4 versions per module: v0 plus three rounds of
  :func:`~repro.corpus.mutate_source` with 3 edits each
  (``random.Random(10_000 + 100*i + k)``),
* three throughput metrics, all in tree nodes per second:

  - **construction** — building every corpus tree bottom-up
    (:class:`~repro.core.TNode` construction includes Step-1 hashing);
  - **first_diff** — one cold :func:`~repro.core.diff` per consecutive
    version pair, fresh trees, best of 3;
  - **warm_diff** — the incremental-driver workload: a
    :class:`~repro.core.DiffSession` per module diffs 5 rounds of
    cycling targets ``[v1, v2, v3, v0]``, carrying the patched tree
    forward (denominator: source size + target size per diff).  Reported
    for the default session (aliasing check on) and for
    ``check_aliasing=False`` (the caller guarantees fresh targets, e.g.
    a reparse loop).

Timed regions run with the cyclic collector paused (``timeit``-style;
see :class:`_gc_paused`): with a multi-million-object resident corpus a
single full collection costs ~0.3s, and whether it lands inside or
outside a timed window is phase-locked to the exact allocation count of
the revision under test — left running, that turns
allocation-count-neutral refactors into apparent 2-3x swings.
Refcounting still reclaims the diff's (acyclic) garbage, so allocator
cost remains in the numbers; only collector pauses are excluded.

Since PR 2 the document also records an **observability section**: the
warm-diff workload re-measured with the metrics/span layer enabled
(:mod:`repro.observability`), the resulting overhead percentage, and a
**per-pass breakdown** of truediff's passes taken from the span
histograms (``repro.diff.assign_shares.ms`` etc.) — the quantities that
explain *why* a headline number moved.  The regression gate keeps
comparing the disabled-metrics ``warm_diff_nodes_per_sec``.

Since PR 3 the document also records a **batch throughput section**
(schema v3): the frozen corpus written out as files and driven through
:func:`repro.batch.run_batch` — end-to-end pairs/sec and nodes/sec
including parse, for one worker process and (on multi-CPU machines)
more, with the resulting speedup.  On single-CPU
machines the parallel measurement is recorded as ``null`` rather than
measuring pool overhead as if it were the feature.  The regression gate
still compares the disabled-metrics ``warm_diff_nodes_per_sec`` only.

Since PR 4 the document also records a **robustness section** (schema
v4): copy+patch throughput on the frozen corpus for the plain and the
transactional (``atomic=True``) patch paths, the resulting atomic
overhead percentage (the pre-flight linear typecheck plus the undo
journal), and the integrity verifier's nodes/sec
(:func:`repro.robustness.check_tree`).  The regression gate still
compares the disabled-metrics ``warm_diff_nodes_per_sec`` only.

Since PR 6 (schema v5) the headline ``warm_diff_nodes_per_sec`` is the
**default session** with the static script pre-flight that ships as
``DiffOptions.typecheck="static"``.  A session diffs ``TNode`` objects
directly, with its aliasing check (the flat arena engine, once the
session default, is no longer a session option).  The same session with
validation off is tracked alongside as
``warm_diff_object_nodes_per_sec`` (matching what the pre-v5 headline
measured), and ``warm_diff_unchecked_nodes_per_sec`` keeps its meaning
(aliasing check and validation off).  The headline reuses each module's
target objects every round, so it leaves out the per-target costs a
caller with freshly parsed targets pays.  The batch section is now
**mandatory and always non-null**: it records the full worker scaling
curve (1/2/4/8 workers) plus the host's CPU count, so single-CPU
containers record an honest curve instead of ``null`` —
the speedup gate in :func:`check_regression` only applies where the
recorded CPU count makes the number meaningful.

Since PR 7 (schema v6) the document also records a **tracing section**:
the one-worker batch workload re-measured with causal tracing enabled at the
default batch sampling rate (``1/8`` head sampling of per-pair
subtrees), the resulting overhead percentage, and the span volume.  The
regression gate additionally requires that sampled tracing costs at most
:data:`MAX_TRACING_OVERHEAD_PCT` of batch throughput — always-on
tracing in production batch runs is the design goal, so the bench
document proves it stays cheap.

Since PR 10 (schema v7) the document also records an **apply-batch
section**: the daemon's ``/apply-batch`` operation — N independent edit
scripts over one large stored base, statically scheduled by the
truerace interference analysis into a single wave and fanned out across
the worker pool — measured at 1 and 2 workers with the host CPU count
recorded alongside.  The regression gate requires the 2-worker speedup
to reach :data:`MIN_SPEEDUP_AT_2` whenever the measuring host had a
second CPU; on single-CPU hosts the curve is recorded (it honestly
measures pool overhead) and the gate is skipped.

Run ``python -m repro.bench.baseline --out BENCH_truediff.json`` to
regenerate, or ``--check BENCH_truediff.json`` in CI to fail on a >30%
warm-diff regression against the checked-in numbers (same-machine
comparison; cross-machine numbers differ by a constant factor).
``--min-warm`` adds an absolute floor on the headline metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import sys
import time
from typing import Optional

from repro.adapters.pyast import parse_python
from repro.core import (
    DEFAULT_OPTIONS,
    DiffOptions,
    DiffSession,
    TNode,
    diff,
    hash_scheme,
)
from repro.corpus import generate_module, mutate_source
from repro.corpus.generator import GeneratorConfig

# -- the frozen corpus recipe (do not change; see module docstring) ----------

SCHEMA_VERSION = 7
N_MODULES = 4
N_VERSIONS = 4
N_EDITS = 3
GEN_SEED = 100
MUT_SEED = 10_000
WARM_ROUNDS = 5
BEST_OF = 3
GENERATOR_CONFIG = GeneratorConfig(n_functions=(24, 32), n_classes=(6, 10))

#: The seed implementation (SHA-256 hashing, recursive traversals,
#: per-call ``clear_diff_state`` sweep and aliasing precheck) measured
#: with this exact recipe on the same container as the checked-in
#: numbers — the before/after context for the hot-path overhaul.
SEED_REFERENCE = {
    "description": "seed implementation: sha256, recursive, O(n) per-diff sweeps",
    "construction_nodes_per_sec": 181044,
    "first_diff_nodes_per_sec": 1357617,
    "warm_diff_nodes_per_sec": 1261406,
    "corpus_nodes": 228583,
}

#: PR 1's checked-in numbers on this container (the hot-path overhaul,
#: before the observability layer existed) — the disabled-metrics warm
#: diff must stay within a hair of these.
PR1_REFERENCE = {
    "description": (
        "PR 1 hot-path overhaul, before the observability layer; measured "
        "with the GC-noisy protocol (collector running during timed "
        "regions).  Interleaved A/B runs of PR 1 vs PR 2 under identical "
        "protocols put the disabled-instrumentation warm path within ~1% "
        "of PR 1 (ratios 0.993/1.008/1.021)."
    ),
    "warm_diff_nodes_per_sec": 4193998,
    "warm_diff_unchecked_nodes_per_sec": 11329011,
}

#: Span histograms that make up the per-pass breakdown.
PASS_SPANS = (
    ("assign_shares", "repro.diff.assign_shares.ms"),
    ("assign_subtrees", "repro.diff.assign_subtrees.ms"),
    ("compute_edits", "repro.diff.compute_edits.ms"),
)


def corpus_sources() -> list[list[str]]:
    """The frozen corpus: per module, the source text of each version."""
    out = []
    for i in range(N_MODULES):
        versions = [generate_module(GEN_SEED + i, GENERATOR_CONFIG)]
        for k in range(N_VERSIONS - 1):
            rng = random.Random(MUT_SEED + 100 * i + k)
            versions.append(mutate_source(versions[-1], rng, n_edits=N_EDITS)[0])
        out.append(versions)
    return out


def build_corpus() -> list[list[TNode]]:
    return [
        [parse_python(text, f"mod{i}.py") for text in versions]
        for i, versions in enumerate(corpus_sources())
    ]


def _rebuild(tree: TNode) -> TNode:
    """A structurally fresh copy (new node objects, same URIs) — used to
    hand each measurement trees nobody else holds.  Iterative."""
    stack: list[tuple[TNode, bool]] = [(tree, False)]
    results: list[TNode] = []
    while stack:
        n, post = stack.pop()
        if not post:
            stack.append((n, True))
            for i in range(len(n.kids) - 1, -1, -1):
                stack.append((n.kids[i], False))
        else:
            cnt = len(n.kids)
            if cnt:
                kids = results[-cnt:]
                del results[-cnt:]
            else:
                kids = []
            results.append(TNode(n.sigs, n.sig, kids, n.lits, n.uri, validate=False))
    return results[0]


class _gc_paused:
    """Exclude cyclic-GC pauses from a timed region (``timeit``-style).

    The resident corpus is millions of tracked objects, so one full
    collection costs ~0.3s; whether it lands inside or outside a timed
    window is phase-locked to the allocation count of the code under
    test, and an allocation-count-neutral refactor can shift a pause
    into the timed loop and read as a 2-3x "regression".  Draining
    garbage first and pausing the collector makes the numbers measure
    the algorithm, deterministically.  Refcounting (the dominant
    reclamation path for the diff's acyclic garbage) stays active.
    """

    def __enter__(self) -> None:
        self._was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._was_enabled:
            gc.enable()


def _measure_construction(all_trees: list[TNode], total_nodes: int) -> float:
    best: Optional[float] = None
    with _gc_paused():
        for _ in range(BEST_OF):
            t0 = time.perf_counter()
            for t in all_trees:
                _rebuild(t)
            elapsed = time.perf_counter() - t0
            best = elapsed if best is None or elapsed < best else best
    return total_nodes / best


def _measure_first_diff(modules: list[list[TNode]]) -> float:
    nodes = 0
    total = 0.0
    with _gc_paused():
        for versions in modules:
            for src, dst in zip(versions, versions[1:]):
                best: Optional[float] = None
                for _ in range(BEST_OF):
                    a, b = _rebuild(src), _rebuild(dst)
                    t0 = time.perf_counter()
                    diff(a, b)
                    elapsed = time.perf_counter() - t0
                    best = elapsed if best is None or elapsed < best else best
                nodes += src.size + dst.size
                total += best
    return nodes / total


def _warm_phase(
    modules: list[list[TNode]],
    check_aliasing: bool,
    options: Optional["DiffOptions"] = None,
) -> float:
    nodes = 0
    total = 0.0
    with _gc_paused():
        for versions in modules:
            session = DiffSession(
                _rebuild(versions[0]),
                options=options if options is not None else DEFAULT_OPTIONS,
                check_aliasing=check_aliasing,
            )
            targets = [_rebuild(v) for v in versions[1:]] + [_rebuild(versions[0])]
            for _ in range(WARM_ROUNDS):
                for t in targets:
                    n = session.tree.size + t.size
                    t0 = time.perf_counter()
                    session.diff(t)
                    total += time.perf_counter() - t0
                    nodes += n
    return nodes / total


def _measure_warm(
    modules: list[list[TNode]],
    check_aliasing: bool,
    options: Optional["DiffOptions"] = None,
) -> float:
    # warm caches, allocator, branches
    _warm_phase(modules, check_aliasing, options)
    return max(
        _warm_phase(modules, check_aliasing, options) for _ in range(BEST_OF)
    )


def _measure_observability(
    modules: list[list[TNode]], headline_rate: float
) -> dict:
    """Re-run the warm-diff workload with the metrics layer enabled.

    Disabled and enabled phases are *interleaved* (D E D E ...) and the
    best of each is kept: the container's throughput drifts over
    minutes, so only back-to-back phases produce a trustworthy overhead
    ratio.  ``headline_rate`` (the gate metric measured earlier) is
    reported alongside for context.  Also returns the per-pass
    breakdown from the span histograms.
    """
    from repro import observability as obs

    obs.reset()
    disabled_rate = 0.0
    enabled_rate = 0.0
    _warm_phase(modules, True)  # warm caches, allocator, branches
    try:
        for _ in range(BEST_OF):
            disabled_rate = max(disabled_rate, _warm_phase(modules, True))
            obs.enable()
            enabled_rate = max(enabled_rate, _warm_phase(modules, True))
            obs.disable()
        obs.enable()  # one extra enabled phase fills the histograms evenly
        _warm_phase(modules, True)
        snap = obs.snapshot()
    finally:
        obs.disable()
        obs.reset()
    hists = snap["histograms"]
    pass_totals = {key: hists[name]["total"] for key, name in PASS_SPANS}
    measured_total = sum(pass_totals.values()) or 1.0
    per_pass = {}
    for key, name in PASS_SPANS:
        s = hists[name]
        per_pass[key] = {
            "count": s["count"],
            "p50_ms": round(s["p50"], 4),
            "p95_ms": round(s["p95"], 4),
            "max_ms": round(s["max"], 4),
            "total_ms": round(s["total"], 2),
            "share_of_diff": round(pass_totals[key] / measured_total, 4),
        }
    counters = snap["counters"]
    n_diffs = counters.get("repro.diff.count", 0) or 1
    return {
        "enabled_warm_diff_nodes_per_sec": round(enabled_rate),
        "disabled_warm_diff_nodes_per_sec": round(disabled_rate),
        "headline_warm_diff_nodes_per_sec": round(headline_rate),
        "overhead_pct": round((1.0 - enabled_rate / disabled_rate) * 100.0, 2),
        "per_pass": per_pass,
        "per_diff_counters": {
            "shares_created": round(counters["repro.diff.shares_created"] / n_diffs, 1),
            "preemptive_pairs": round(
                counters["repro.diff.preemptive_pairs"] / n_diffs, 1
            ),
            "exact_acquisitions": round(
                counters["repro.diff.exact_acquisitions"] / n_diffs, 1
            ),
            "structural_acquisitions": round(
                counters["repro.diff.structural_acquisitions"] / n_diffs, 1
            ),
            "heap_pushes": round(counters["repro.diff.heap_pushes"] / n_diffs, 1),
        },
    }


#: Worker counts of the frozen scaling curve.
BATCH_CURVE_WORKERS = (1, 2, 4, 8)


def _measure_batch(sources: list[list[str]]) -> dict:
    """End-to-end batch throughput on the frozen corpus written to disk.

    Unlike the in-memory metrics above, these rates include file IO and
    parsing — the quantity a user of ``python -m repro batch`` sees.
    The full worker curve (:data:`BATCH_CURVE_WORKERS`) is measured
    unconditionally, with the host CPU count recorded next to it: on a
    single-CPU machine the multi-worker points honestly measure pool
    overhead and oversubscription, and the gate in
    :func:`check_regression` knows (from ``cpus``) not to demand a
    speedup the hardware cannot produce.  The section is never ``null``.
    """
    import os
    import tempfile
    import time as _time

    from repro.batch import BatchConfig, run_batch

    def _run(workers: int, pairs: list[tuple[str, str]]) -> dict:
        best_elapsed: Optional[float] = None
        nodes = 0
        for _ in range(BEST_OF):
            t0 = _time.perf_counter()
            summary = run_batch(pairs, BatchConfig(workers=workers, timeout_s=None))
            elapsed = _time.perf_counter() - t0
            assert summary.failed == 0, "frozen corpus must diff cleanly"
            nodes = summary.nodes
            if best_elapsed is None or elapsed < best_elapsed:
                best_elapsed = elapsed
        return {
            "workers": workers if workers > 0 else (os.cpu_count() or 1),
            "pairs_per_sec": round(len(pairs) / best_elapsed, 2),
            "nodes_per_sec": round(nodes / best_elapsed),
        }

    with tempfile.TemporaryDirectory(prefix="repro-bench-batch-") as root:
        pairs = _write_batch_corpus(root, sources)
        curve = {str(w): _run(w, pairs) for w in BATCH_CURVE_WORKERS}
    serial = curve["1"]
    rate = lambda w: curve[str(w)]["pairs_per_sec"]  # noqa: E731
    best_workers = max(BATCH_CURVE_WORKERS, key=rate)
    parallel = {
        "curve": curve,
        "speedup_at_2": round(rate(2) / rate(1), 2),
        "speedup_best": round(rate(best_workers) / rate(1), 2),
        "best_workers": best_workers,
    }
    return {
        "pairs": len(pairs),
        "cpus": os.cpu_count() or 1,
        "serial": serial,
        "parallel": parallel,
        "speedup": parallel["speedup_best"],
    }


#: Scripts per measured ``/apply-batch`` request (one wave of this width).
APPLY_BATCH_SCRIPTS = 8

#: Worker counts of the frozen apply-batch scaling pair.
APPLY_BATCH_WORKERS = (1, 2)


def _measure_apply_batch(sources: list[list[str]]) -> dict:
    """Service-level ``/apply-batch`` throughput across the worker pool.

    The workload: the first frozen corpus module (≈14k nodes) extended
    with one marker function per batch script, stored in a
    :class:`~repro.server.service.ReproService`, and a batch of
    :data:`APPLY_BATCH_SCRIPTS` scripts each rewriting a distinct
    marker's constant.  The edits touch disjoint subtrees, so the
    truerace schedule puts the whole batch in a single wave and the
    service fans the per-script transactional validation (parse, linear
    pre-flight, atomic patch, post-verify) out across the pool.  The 1-
    vs 2-worker pair runs the *same* parallel code path, so the ratio
    isolates what a second worker buys (and on a single-CPU host,
    honestly records that it buys nothing — the gate in
    :func:`check_regression` reads ``cpus`` and skips).
    """
    import os

    from repro.server.service import ReproService

    markers = "\n\n".join(
        f"def bench_slot_{i}():\n    return {1000 + i}"
        for i in range(APPLY_BATCH_SCRIPTS)
    )
    base_source = sources[0][0] + "\n\n" + markers + "\n"
    variants = [
        base_source.replace(f"return {1000 + i}", f"return {2000 + i}")
        for i in range(APPLY_BATCH_SCRIPTS)
    ]
    base_nodes = 0

    def _run(workers: int) -> dict:
        nonlocal base_nodes
        service = ReproService(workers=workers)
        try:
            fp = service.handle("put_tree", {"source": base_source})[
                "fingerprint"
            ]
            scripts = [
                service.handle("diff", {"before": fp, "after": {"source": v}})[
                    "script"
                ]
                for v in variants
            ]
            params = {"tree": fp, "scripts": scripts, "commit": False}
            # warm pass: fork the pool, fill the worker tree caches, and
            # pin down the contract outside the timed region
            out = service.handle("apply_batch", dict(params))
            assert out["mode"] == "parallel", out["mode"]
            assert out["schedule"]["waves"] == [
                list(range(APPLY_BATCH_SCRIPTS))
            ], "bench scripts must schedule into one wave"
            assert out["applied"] == APPLY_BATCH_SCRIPTS
            base_nodes = out["nodes"]
            best: Optional[float] = None
            for _ in range(BEST_OF):
                t0 = time.perf_counter()
                out = service.handle("apply_batch", dict(params))
                elapsed = time.perf_counter() - t0
                assert out["applied"] == APPLY_BATCH_SCRIPTS
                if best is None or elapsed < best:
                    best = elapsed
            return {
                "workers": workers,
                "scripts_per_sec": round(APPLY_BATCH_SCRIPTS / best, 2),
                "ms_per_batch": round(best * 1000, 2),
            }
        finally:
            service.close()

    curve = {str(w): _run(w) for w in APPLY_BATCH_WORKERS}
    rate = lambda w: curve[str(w)]["scripts_per_sec"]  # noqa: E731
    return {
        "scripts": APPLY_BATCH_SCRIPTS,
        "base_nodes": base_nodes,
        "cpus": os.cpu_count() or 1,
        "curve": curve,
        "speedup_at_2": round(rate(2) / rate(1), 2),
    }


#: Head-sampling rate the tracing overhead is measured (and gated) at —
#: the rate a production batch run would use for always-on tracing.
TRACING_SAMPLE = "1/8"


def _write_batch_corpus(root: str, sources: list[list[str]]) -> list[tuple[str, str]]:
    import os

    pairs: list[tuple[str, str]] = []
    for i, versions in enumerate(sources):
        paths = []
        for v, text in enumerate(versions):
            path = os.path.join(root, f"mod{i}_v{v}.py")
            with open(path, "w", encoding="utf8") as fh:
                fh.write(text)
            paths.append(path)
        pairs.extend(zip(paths, paths[1:]))
    return pairs


def _measure_tracing(sources: list[list[str]]) -> dict:
    """One-worker batch throughput with sampled causal tracing on vs. off.

    The workload is the one-worker (``workers=1``) batch run over the
    frozen corpus — the configuration whose per-pair spans, head
    sampling, and telemetry plumbing all sit on the measured path.  Off and on phases
    are interleaved (like :func:`_measure_observability`) so container
    drift cancels out of the overhead ratio; tracing runs at the
    production sampling rate (:data:`TRACING_SAMPLE`).
    """
    import tempfile

    from repro import observability as obs
    from repro.batch import BatchConfig, run_batch

    config = BatchConfig(workers=1, timeout_s=None)
    span_count = 0

    with tempfile.TemporaryDirectory(prefix="repro-bench-trace-") as root:
        pairs = _write_batch_corpus(root, sources)

        def once(traced: bool) -> float:
            nonlocal span_count
            if traced:
                obs.reset_tracing()
                obs.enable_tracing(sample=TRACING_SAMPLE)
            t0 = time.perf_counter()
            summary = run_batch(pairs, config)
            elapsed = time.perf_counter() - t0
            if traced:
                obs.disable_tracing()
                obs.disable()
                span_count = max(span_count, len(obs.take_spans()))
                obs.reset_tracing()
                obs.reset()
            assert summary.failed == 0, "frozen corpus must diff cleanly"
            return len(pairs) / elapsed

        once(False)  # warm caches, allocator, branches
        off_rate = 0.0
        on_rate = 0.0
        for _ in range(BEST_OF):
            off_rate = max(off_rate, once(False))
            on_rate = max(on_rate, once(True))

    return {
        "sample": TRACING_SAMPLE,
        "pairs": len(pairs),
        "off_pairs_per_sec": round(off_rate, 2),
        "on_pairs_per_sec": round(on_rate, 2),
        "overhead_pct": round((1.0 - on_rate / off_rate) * 100.0, 2),
        "spans_per_run": span_count,
    }


def _measure_robustness(modules: list[list[TNode]]) -> dict:
    """Copy+patch throughput, plain vs transactional, plus verifier rate.

    Plain and atomic repetitions are interleaved so container drift
    cancels out of the overhead ratio.  Each timed region includes the
    ``MTree.copy()`` (the patch target must be fresh every repetition),
    matching how a caller that keeps its source tree applies a script.
    """
    from repro.core import tnode_to_mtree
    from repro.robustness import check_tree

    plain_total = 0.0
    atomic_total = 0.0
    patch_nodes = 0
    total_edits = 0
    n_scripts = 0
    verify_total = 0.0
    verify_nodes = 0
    with _gc_paused():
        for versions in modules:
            for src, dst in zip(versions, versions[1:]):
                a, b = _rebuild(src), _rebuild(dst)
                script, _ = diff(a, b)
                base = tnode_to_mtree(a)
                sigs = a.sigs
                best_plain: Optional[float] = None
                best_atomic: Optional[float] = None
                for _ in range(BEST_OF):
                    mt = base.copy()
                    t0 = time.perf_counter()
                    mt.copy().patch(script)
                    elapsed = time.perf_counter() - t0
                    if best_plain is None or elapsed < best_plain:
                        best_plain = elapsed
                    t0 = time.perf_counter()
                    mt.copy().patch(script, atomic=True, sigs=sigs)
                    elapsed = time.perf_counter() - t0
                    if best_atomic is None or elapsed < best_atomic:
                        best_atomic = elapsed
                plain_total += best_plain
                atomic_total += best_atomic
                patch_nodes += a.size
                total_edits += len(script)
                n_scripts += 1

                best_verify: Optional[float] = None
                for _ in range(BEST_OF):
                    t0 = time.perf_counter()
                    violations = check_tree(base, sigs)
                    elapsed = time.perf_counter() - t0
                    assert not violations, "frozen corpus trees must verify"
                    if best_verify is None or elapsed < best_verify:
                        best_verify = elapsed
                verify_total += best_verify
                verify_nodes += a.size
    return {
        "scripts": n_scripts,
        "edits": total_edits,
        "patch_plain_nodes_per_sec": round(patch_nodes / plain_total),
        "patch_atomic_nodes_per_sec": round(patch_nodes / atomic_total),
        "atomic_overhead_pct": round(
            (atomic_total - plain_total) / plain_total * 100.0, 2
        ),
        "verify_nodes_per_sec": round(verify_nodes / verify_total),
    }


def measure(scheme: str = "blake2b") -> dict:
    """Run all metrics under ``scheme`` and return the results document."""
    with hash_scheme(scheme):
        sources = corpus_sources()
        modules = [
            [parse_python(text, f"mod{i}.py") for text in versions]
            for i, versions in enumerate(sources)
        ]
        all_trees = [t for versions in modules for t in versions]
        total_nodes = sum(t.size for t in all_trees)
        metrics = {
            "construction_nodes_per_sec": round(
                _measure_construction(all_trees, total_nodes)
            ),
            "first_diff_nodes_per_sec": round(_measure_first_diff(modules)),
        }
        # headline: the default session — static pre-flight on
        warm_rate = _measure_warm(modules, True)
        metrics["warm_diff_nodes_per_sec"] = round(warm_rate)
        no_check = DiffOptions(typecheck="none")
        # the same session with validation off (what the pre-v5 headline
        # measured)
        metrics["warm_diff_object_nodes_per_sec"] = round(
            _measure_warm(modules, True, options=no_check)
        )
        metrics["warm_diff_unchecked_nodes_per_sec"] = round(
            _measure_warm(modules, False, options=no_check)
        )
        observability = _measure_observability(modules, warm_rate)
        batch = _measure_batch(sources)
        if not batch.get("parallel") or batch.get("speedup") is None:
            # since schema v5: a document without the scaling curve is invalid
            raise RuntimeError(
                "batch.parallel must be measured and non-null (schema v5+)"
            )
        tracing = _measure_tracing(sources)
        apply_batch = _measure_apply_batch(sources)
        robustness = _measure_robustness(modules)
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": "truediff",
        "hash_scheme": scheme,
        "corpus": {
            "modules": N_MODULES,
            "versions_per_module": N_VERSIONS,
            "edits_per_version": N_EDITS,
            "warm_rounds": WARM_ROUNDS,
            "best_of": BEST_OF,
            "total_nodes": total_nodes,
        },
        "metrics": metrics,
        "observability": observability,
        "batch": batch,
        "tracing": tracing,
        "apply_batch": apply_batch,
        "robustness": robustness,
        "seed_reference": SEED_REFERENCE,
        "pr1_reference": PR1_REFERENCE,
    }


#: The 2-worker speedup the scaling curve must reach on multi-CPU hosts.
MIN_SPEEDUP_AT_2 = 1.5

#: The most sampled tracing may cost the one-worker batch workload (schema v6).
MAX_TRACING_OVERHEAD_PCT = 5.0


def check_regression(
    results: dict,
    baseline_path: str,
    tolerance: float = 0.30,
    min_warm: Optional[float] = None,
) -> tuple[bool, str]:
    """Compare measured throughput against a checked-in baseline.

    Gates (all must hold):

    * headline warm-diff within ``tolerance`` of the baseline, and — with
      ``min_warm`` — above that absolute floor;
    * construction throughput no worse than the seed implementation
      (within the same tolerance);
    * a non-null batch scaling curve, whose 2-worker speedup reaches
      :data:`MIN_SPEEDUP_AT_2` whenever the host that *measured* it had
      a second CPU to use;
    * a tracing section (schema v6) whose sampled-tracing batch overhead
      stays within :data:`MAX_TRACING_OVERHEAD_PCT`;
    * an apply-batch section (schema v7) whose 2-worker speedup reaches
      :data:`MIN_SPEEDUP_AT_2` whenever the measuring host had a second
      CPU (single-CPU hosts record the curve, gate skipped).
    """
    with open(baseline_path, "r", encoding="utf8") as f:
        baseline = json.load(f)
    lines: list[str] = []
    ok = True

    def gate(passed: bool, message: str) -> None:
        nonlocal ok
        ok = ok and passed
        lines.append(f"{message}: {'ok' if passed else 'REGRESSION'}")

    reference = baseline["metrics"]["warm_diff_nodes_per_sec"]
    measured = results["metrics"]["warm_diff_nodes_per_sec"]
    floor = reference * (1.0 - tolerance)
    gate(
        measured >= floor,
        f"warm-diff {measured} nodes/sec vs baseline {reference} "
        f"(floor {floor:.0f}, tolerance {tolerance:.0%})",
    )
    if min_warm is not None:
        gate(
            measured >= min_warm,
            f"warm-diff {measured} nodes/sec vs absolute floor {min_warm:.0f}",
        )

    seed = results.get("seed_reference", SEED_REFERENCE)
    con_ref = seed["construction_nodes_per_sec"]
    con = results["metrics"]["construction_nodes_per_sec"]
    con_floor = con_ref * (1.0 - tolerance)
    gate(
        con >= con_floor,
        f"construction {con} nodes/sec vs seed {con_ref} (floor {con_floor:.0f})",
    )

    batch = results.get("batch") or {}
    parallel = batch.get("parallel")
    if not parallel or batch.get("speedup") is None:
        gate(False, "batch.parallel scaling curve present")
    else:
        cpus = batch.get("cpus", 1)
        at2 = parallel.get("speedup_at_2")
        if cpus >= 2:
            gate(
                at2 is not None and at2 >= MIN_SPEEDUP_AT_2,
                f"batch 2-worker speedup {at2} (>= {MIN_SPEEDUP_AT_2}, {cpus} cpus)",
            )
        else:
            lines.append(
                f"batch 2-worker speedup {at2} recorded on {cpus} cpu "
                "(gate skipped: no second CPU)"
            )

    tracing = results.get("tracing")
    if not tracing or tracing.get("overhead_pct") is None:
        gate(False, "tracing section present (schema v6)")
    else:
        overhead = tracing["overhead_pct"]
        gate(
            overhead <= MAX_TRACING_OVERHEAD_PCT,
            f"sampled tracing overhead {overhead}% "
            f"(<= {MAX_TRACING_OVERHEAD_PCT}%, sample {tracing.get('sample')})",
        )

    apply_batch = results.get("apply_batch")
    if not apply_batch or apply_batch.get("speedup_at_2") is None:
        gate(False, "apply_batch scaling section present (schema v7)")
    else:
        cpus = apply_batch.get("cpus", 1)
        at2 = apply_batch.get("speedup_at_2")
        if cpus >= 2:
            gate(
                at2 >= MIN_SPEEDUP_AT_2,
                f"apply-batch 2-worker speedup {at2} "
                f"(>= {MIN_SPEEDUP_AT_2}, {cpus} cpus)",
            )
        else:
            lines.append(
                f"apply-batch 2-worker speedup {at2} recorded on {cpus} cpu "
                "(gate skipped: no second CPU)"
            )
    return ok, "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.baseline",
        description="Measure truediff throughput on the frozen corpus "
        "and emit BENCH_truediff.json.",
    )
    parser.add_argument(
        "--out", default=None, help="write results JSON to this path"
    )
    parser.add_argument(
        "--scheme",
        default="blake2b",
        choices=["blake2b", "sha256"],
        help="hash scheme to measure (default: blake2b)",
    )
    parser.add_argument(
        "--check",
        default=None,
        metavar="BASELINE",
        help="compare against a checked-in baseline JSON; exit 1 on regression",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fractional warm-diff regression for --check (default 0.30)",
    )
    parser.add_argument(
        "--min-warm",
        type=float,
        default=None,
        metavar="NODES_PER_SEC",
        help="absolute floor on the headline warm-diff throughput "
        "(checked with --check)",
    )
    args = parser.parse_args(argv)

    results = measure(args.scheme)
    text = json.dumps(results, indent=2, sort_keys=False) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf8") as f:
            f.write(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text, end="")

    if args.check:
        ok, message = check_regression(
            results, args.check, args.tolerance, args.min_warm
        )
        print(message, file=sys.stderr)
        if not ok:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
