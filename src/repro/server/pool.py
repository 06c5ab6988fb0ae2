"""Pool tasks for the daemon's heavy diff and apply requests.

The daemon's request handlers are I/O-bound glue; the diff itself is the
CPU-heavy part.  The daemon shards it across :class:`repro.pool.DiffPool`
(re-exported here), the same pool ``repro batch`` runs its pairs on:
every task carries the obs **envelope** built by a
:class:`~repro.observability.aggregate.TelemetryCollector`, workers
reset fork-inherited state through
:func:`~repro.observability.aggregate.worker_setup`, adopt the request's
trace context as a resample point (so a request stays ONE causal trace
even when its diff ran in another process), and ship their span/metric
deltas back via :func:`~repro.observability.aggregate.worker_telemetry`
for the daemon-side merge — which is what makes the daemon's
``/metrics`` endpoint cover the whole pool.  With ``--workers 1`` the
pool is one worker process.

Workers keep a process-local cache of parsed trees keyed by the store
fingerprint (``repro.server.worker.tree_hits`` / ``.parses``), so a hot
tree is parsed at most once per worker process, not once per request.

:func:`diff_trees` is the single definition of "what a diff request
computes", shared by the pool worker and the daemon's inline path, and
written to be call-for-call identical to ``repro diff`` — the
differential gate in CI holds the two byte-identical.
"""

from __future__ import annotations

import time
from typing import Any, Optional

from repro.core import TNode
from repro.observability import OBS, metrics as _metrics, span as _span
from repro.pool import DiffPool  # noqa: F401 - the daemon's name for the pool


def diff_trees(src: TNode, dst: TNode) -> dict[str, Any]:
    """Diff two canonical trees exactly as ``repro diff`` does.

    Same option set, same fresh-URI numbering (``start = src.size + 1``
    over pre-order canonical URIs), same static validation — so
    ``result["script_json"]`` is byte-identical to the stdout of
    ``repro diff --json`` on the corresponding sources.
    """
    from repro.core import DiffOptions, URIGen, diff, validate_script
    from repro.core.serialize import script_to_json

    t0 = time.perf_counter()
    script, _ = diff(
        src, dst, DiffOptions(typecheck="none"), urigen=URIGen(start=src.size + 1)
    )
    diff_ms = (time.perf_counter() - t0) * 1000
    validate_script(script, src.sigs, "static")
    mix: dict[str, int] = {}
    for edit in script.primitives():
        kind = type(edit).__name__.lower()
        mix[kind] = mix.get(kind, 0) + 1
    return {
        "edits": len(script),
        "edit_mix": mix,
        "src_nodes": src.size,
        "dst_nodes": dst.size,
        "diff_ms": round(diff_ms, 3),
        "script_json": script_to_json(script, indent=2),
    }


#: Worker-process tree cache: fingerprint -> canonical TNode (FIFO-bounded).
_WORKER_TREES: dict[str, TNode] = {}
_WORKER_TREES_MAX = 256


def _worker_tree(spec: dict[str, Any]) -> TNode:
    """Resolve one tree spec ``{"fingerprint", "source", "filename"}`` in
    the worker, via the process-local cache."""
    fp = spec["fingerprint"]
    tree = _WORKER_TREES.get(fp)
    if tree is not None:
        if OBS.enabled:
            _metrics().counter("repro.server.worker.tree_hits").inc()
        return tree
    from repro.adapters.pyast import parse_python

    tree = parse_python(spec["source"], spec.get("filename") or "<stored>")
    tree = tree.with_canonical_uris()
    if len(_WORKER_TREES) >= _WORKER_TREES_MAX:
        _WORKER_TREES.pop(next(iter(_WORKER_TREES)))
    _WORKER_TREES[fp] = tree
    if OBS.enabled:
        _metrics().counter("repro.server.worker.parses").inc()
    return tree


def pool_diff_task(
    payload: dict[str, Any], obs_env: Optional[dict[str, Any]]
) -> dict[str, Any]:
    """Top-level (picklable) pool task: one diff request in a worker.

    Returns ``{"result": ..., "telemetry": ...}``, the two-part shape
    every :class:`~repro.pool.DiffPool` task returns, absorbed by the
    daemon's collector.  Never raises: a failing diff
    becomes ``result={"ok": False, ...}`` so one bad request cannot
    poison the worker or the pool.
    """
    from repro.observability import remote_context
    from repro.observability.aggregate import worker_setup, worker_telemetry

    worker_setup(obs_env)
    ctx = obs_env.get("trace_ctx") if obs_env else None
    with remote_context(ctx, resample=True):
        with _span("repro.server.pool.diff") as sp:
            try:
                src = _worker_tree(payload["before"])
                dst = _worker_tree(payload["after"])
                result = diff_trees(src, dst)
                result["ok"] = True
                sp.set_attrs(
                    before=payload["before"]["fingerprint"],
                    after=payload["after"]["fingerprint"],
                    edits=result["edits"],
                )
            except Exception as exc:
                result = {
                    "ok": False,
                    "error": " ".join((str(exc) or type(exc).__name__).split()),
                    "error_type": type(exc).__name__,
                }
                sp.set_status("error", type(exc).__name__)
    return {"result": result, "telemetry": worker_telemetry(obs_env)}


def pool_apply_task(
    payload: dict[str, Any], obs_env: Optional[dict[str, Any]]
) -> dict[str, Any]:
    """Top-level (picklable) pool task: validate one edit script of an
    ``/apply-batch`` request against its base tree, in a worker.

    The worker runs the script's **full transactional validation** —
    parse, pre-flight linear typecheck, atomic patch, post-patch
    integrity verify — against a scratch ``MTree`` of the base (resolved
    through the same fingerprint-keyed worker cache the diff task uses,
    so a hot base parses once per worker).  This is the per-script O(n)
    work ``/apply-batch`` fans out; the daemon only *composes* scripts
    the workers have already validated.

    ``result["ok"]`` reports whether the task ran; the script's verdict
    is ``result["applied"]`` — a rejected patch (``PatchError``) is an
    expected outcome, not a worker failure, so it can never poison the
    pool.
    """
    from repro.core import PatchError, tnode_to_mtree
    from repro.core.serialize import script_from_json
    from repro.observability import remote_context
    from repro.observability.aggregate import worker_setup, worker_telemetry

    worker_setup(obs_env)
    ctx = obs_env.get("trace_ctx") if obs_env else None
    with remote_context(ctx, resample=True):
        with _span("repro.server.pool.apply") as sp:
            index = payload.get("index")
            try:
                base = _worker_tree(payload["base"])
                script = script_from_json(payload["script_json"])
                t0 = time.perf_counter()
                mtree = tnode_to_mtree(base)
                try:
                    mtree.patch(
                        script, atomic=True, sigs=base.sigs, verify=True
                    )
                except PatchError as exc:
                    result = {
                        "ok": True,
                        "applied": False,
                        "index": index,
                        "error": " ".join(str(exc).split()),
                        "error_type": type(exc).__name__,
                    }
                    sp.set_status("error", type(exc).__name__)
                else:
                    result = {
                        "ok": True,
                        "applied": True,
                        "index": index,
                        "edits": len(script),
                        "apply_ms": round((time.perf_counter() - t0) * 1000, 3),
                    }
                sp.set_attrs(
                    base=payload["base"]["fingerprint"], index=index
                )
            except Exception as exc:
                result = {
                    "ok": False,
                    "index": index,
                    "error": " ".join((str(exc) or type(exc).__name__).split()),
                    "error_type": type(exc).__name__,
                }
                sp.set_status("error", type(exc).__name__)
    return {"result": result, "telemetry": worker_telemetry(obs_env)}
