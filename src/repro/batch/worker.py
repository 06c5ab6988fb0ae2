"""The subprocess side of the batch driver: diff one file pair, safely.

Everything here must be picklable and self-contained: pool workers
receive *paths* (not trees), parse and diff locally, and send back small
result dicts, so the per-pair IPC cost is independent of tree size.

Fault isolation is layered:

* :func:`diff_pair` catches the *expected* per-pair failures (unreadable
  files, syntax errors) and classifies them;
* :func:`pair_task` runs one pair as a :class:`~repro.pool.DiffPool`
  task under a catch-all, so an unexpected exception in a pair becomes
  a structured failure row instead of a failed task;
* a pair that outlives its deadline or kills its worker (segfault,
  ``os._exit``) cannot be handled here at all — the driver's pool kills
  the workers, rebuilds itself, and the driver writes the ``timeout`` or
  ``crash`` row.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Optional

#: Failure kinds the driver will re-submit (bounded by ``retries``):
#: transient by nature, unlike a syntax error that is deterministic.
RETRYABLE_KINDS = frozenset({"timeout", "crash"})


def _classify(exc: BaseException) -> str:
    if isinstance(exc, SyntaxError):
        return "syntax"
    if isinstance(exc, (OSError, UnicodeDecodeError)):
        return "io"
    if isinstance(exc, (MemoryError, RecursionError)):
        return "resource"
    return "internal"


def _one_line(exc: BaseException) -> str:
    if isinstance(exc, SyntaxError):
        where = f" (line {exc.lineno})" if exc.lineno else ""
        return f"{exc.msg or 'invalid syntax'}{where}"
    text = str(exc) or type(exc).__name__
    return " ".join(text.split())


def _failure_row(
    before: str, after: str, exc: BaseException, started: float
) -> dict[str, Any]:
    return {
        "before": before,
        "after": after,
        "status": "error",
        "error_kind": _classify(exc),
        "error": _one_line(exc),
        "total_ms": round((time.perf_counter() - started) * 1000, 3),
    }


def _edit_mix(script) -> dict[str, int]:
    mix: dict[str, int] = {}
    for edit in script.primitives():
        kind = type(edit).__name__.lower()
        mix[kind] = mix.get(kind, 0) + 1
    return mix


def _lint_summary(script, sigs) -> dict[str, Any]:
    """Compact truelint verdict for a result row: the static analyzer run
    over the emitted script with no tree in hand.  Any finding on a
    differ-emitted script is a real bug (type error or conciseness
    regression), so rows carry the evidence rather than a bare flag."""
    try:
        from repro.analysis import lint_script

        report = lint_script(script, sigs)
        return {
            "clean": report.clean,
            "findings": len(report.diagnostics),
            "codes": report.counts_by_code(),
        }
    except Exception as exc:  # pragma: no cover - the linter must not throw
        return {"clean": False, "error": _one_line(exc)}


def _integrity_note(src, dst) -> str:
    """Verifier verdict on both parsed trees of a failed pair — did the
    differ fail on sound input, or was the tree itself broken?"""
    from repro.core import tnode_to_mtree
    from repro.robustness import check_tree

    notes = []
    for name, tree in (("src", src), ("dst", dst)):
        try:
            violations = check_tree(tnode_to_mtree(tree), tree.sigs)
        except Exception as exc:  # pragma: no cover - verifier must not throw
            notes.append(f"{name}: verifier error ({exc})")
            continue
        if violations:
            notes.append(f"{name}: {len(violations)} violation(s): {violations[0]}")
        else:
            notes.append(f"{name}: ok")
    return "; ".join(notes)


def _degraded_row(
    before: str, after: str, src, dst, exc: BaseException,
    parse_ms: float, started: float,
) -> Optional[dict[str, Any]]:
    """A replace-root fallback row, or None if even that fails.

    The fallback script is not trusted: it is applied atomically to a
    fresh tree and verified before the row is emitted.
    """
    from repro.core import tnode_to_mtree
    from repro.robustness import replace_root_script

    try:
        script = replace_root_script(src, dst)
        mt = tnode_to_mtree(src)
        mt.patch(script, atomic=True, sigs=src.sigs, verify=True)
        if not mt.structure_equals(tnode_to_mtree(dst)):
            return None
    except Exception:
        return None
    return {
        "before": before,
        "after": after,
        "status": "degraded",
        "fallback": "replace_root",
        "error_kind": _classify(exc),
        "error": _one_line(exc),
        "edits": len(script),
        "edit_mix": _edit_mix(script),
        "src_nodes": src.size,
        "dst_nodes": dst.size,
        "parse_ms": round(parse_ms, 3),
        "total_ms": round((time.perf_counter() - started) * 1000, 3),
    }


def diff_pair(
    before: str, after: str, fallback_replace: bool = False
) -> dict[str, Any]:
    """Diff one file pair; always returns a result row, never raises.

    The row records script size, the edit mix (primitive edit kinds),
    the truelint verdict on the emitted script (``lint``), node counts,
    and parse/diff timings — the per-pair quantities of the paper's
    corpus evaluation (Section 6), plus the static quality gate.

    ``fallback_replace=True`` degrades gracefully when the *differ* fails
    on parseable input (``internal`` errors only — syntax/io/timeout
    failures keep their failure rows): the pair gets a trivial,
    verified replace-root script and a ``status="degraded"`` row carrying
    the original error.  Internal failures additionally record the
    integrity verdict of both parsed trees in ``row["integrity"]``.
    """
    started = time.perf_counter()
    try:
        from repro.adapters.pyast import parse_python

        with open(before, encoding="utf8") as fh:
            before_text = fh.read()
        with open(after, encoding="utf8") as fh:
            after_text = fh.read()

        t0 = time.perf_counter()
        src = parse_python(before_text, before)
        dst = parse_python(after_text, after)
        parse_ms = (time.perf_counter() - t0) * 1000
    except Exception as exc:
        return _failure_row(before, after, exc, started)

    try:
        from repro.core import diff

        t0 = time.perf_counter()
        script, patched = diff(src, dst)
        diff_ms = (time.perf_counter() - t0) * 1000

        if not patched.tree_equal(dst):  # pragma: no cover - soundness net
            raise AssertionError("patched tree does not equal the target")

        return {
            "before": before,
            "after": after,
            "status": "ok",
            "edits": len(script),
            "edit_mix": _edit_mix(script),
            "lint": _lint_summary(script, src.sigs),
            "src_nodes": src.size,
            "dst_nodes": dst.size,
            "parse_ms": round(parse_ms, 3),
            "diff_ms": round(diff_ms, 3),
            "total_ms": round((time.perf_counter() - started) * 1000, 3),
        }
    except Exception as exc:
        kind = _classify(exc)
        if kind == "internal":
            if fallback_replace:
                row = _degraded_row(
                    before, after, src, dst, exc, parse_ms, started
                )
                if row is not None:
                    return row
            failure = _failure_row(before, after, exc, started)
            failure["integrity"] = _integrity_note(src, dst)
            return failure
        return _failure_row(before, after, exc, started)


def diff_pair_degrading(before: str, after: str) -> dict[str, Any]:
    """:func:`diff_pair` with the replace-root fallback enabled — a
    picklable top-level ``pair_fn`` for the pool driver."""
    return diff_pair(before, after, fallback_replace=True)


def pair_task(
    payload: dict[str, Any], obs_env: Optional[dict[str, Any]]
) -> dict[str, Any]:
    """Top-level (picklable) :class:`~repro.pool.DiffPool` task: one file
    pair in a worker.

    ``payload`` is ``{"before", "after", "pair_fn"}``, where ``pair_fn``
    is the picklable per-pair function given to
    :func:`~repro.batch.run_batch` (``None`` for :func:`diff_pair`).
    The worker resets fork-inherited observability state, adopts the
    driver's trace context as a resample point, and wraps the pair in a
    ``repro.batch.pair`` span carrying its paths and outcome.  Returns
    ``{"result": row, "telemetry": ...}``, where ``telemetry`` is this
    task's span/metric delta (``None`` when instrumentation is off) —
    the only way worker telemetry reaches the driver.
    """
    from repro.observability import OBS, REGISTRY, remote_context, span as _span
    from repro.observability.aggregate import worker_setup, worker_telemetry

    before, after = payload["before"], payload["after"]
    fn: Callable[[str, str], dict] = payload.get("pair_fn") or diff_pair
    worker_setup(obs_env)
    ctx = obs_env.get("trace_ctx") if obs_env else None
    with remote_context(ctx, resample=True):
        with _span("repro.batch.pair") as sp:
            started = time.perf_counter()
            try:
                row = fn(before, after)
            except Exception as exc:
                row = _failure_row(before, after, exc, started)
            sp.set_attrs(before=before, after=after, status=row.get("status", "error"))
            if row.get("status") == "error":
                sp.set_status("error", row.get("error_kind"))
    if OBS.enabled:
        REGISTRY.counter("repro.batch.worker.rows").inc()
    return {"result": row, "telemetry": worker_telemetry(obs_env)}
