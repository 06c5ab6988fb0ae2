"""Transport-independent request handling for the diff daemon.

:class:`ReproService` is the single implementation both front ends
(HTTP in :mod:`repro.server.httpd`, JSONL-over-stdio in
:mod:`repro.server.stdio`) delegate to: a table of named operations over
the content-addressed :class:`~repro.server.store.TreeStore`, each
taking and returning plain JSON-ready dicts.

Handlers are synchronous and thread-safe; the asyncio front ends run
them on executor threads.  Every request executes under a
``repro.server.request`` span opened with *no* inherited trace context,
so when tracing is enabled each request is the root of its own causal
trace (its pool-side diff spans join that trace through the obs
envelope's resample point — exactly the batch pool's propagation
protocol).  Heavy diff work goes to the worker pool when one is
configured; otherwise it runs inline under the compute lock (tree
state is shared immutable structure, but per-diff node state means at
most one in-process diff at a time).

Errors are :class:`ServiceError` values with a stable ``code`` that the
front ends map to a status (HTTP 400/404/409/503, stdio ``ok=false``):
unknown fingerprints are ``not_found``, malformed requests are
``bad_request``, rejected patches and merge conflicts are ``conflict``.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Callable, Optional

from repro.core import PatchError, tnode_to_mtree
from repro.core.serialize import SerializationError, script_from_json
from repro.observability import (
    OBS,
    TelemetryCollector,
    metrics as _metrics,
    span as _span,
    take_spans,
)

from .pool import DiffPool, diff_trees, pool_diff_task
from .store import StoredTree, StoreError, TreeStore, UnknownFingerprint

#: Upper bound on scripts per ``/apply-batch`` request.
MAX_BATCH_SCRIPTS = 64

#: ServiceError codes -> HTTP status (the stdio front end ships the code).
ERROR_STATUS = {
    "bad_request": 400,
    "not_found": 404,
    "conflict": 409,
    "unavailable": 503,
    "internal": 500,
}


class ServiceError(Exception):
    """A structured request failure: stable code + one-line message."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code if code in ERROR_STATUS else "internal"
        self.message = message

    @property
    def status(self) -> int:
        return ERROR_STATUS[self.code]

    def as_dict(self) -> dict[str, Any]:
        return {"code": self.code, "message": self.message}


def _python_sigs():
    from repro.adapters.pyast import python_grammar

    return python_grammar().grammar.sigs


def _parse_script(value: Any, what: str = "script"):
    """A truechange script from a request value: raw JSON text or the
    parsed JSON value (both wire forms round-trip through the strict
    serializer)."""
    if value is None:
        raise ServiceError("bad_request", f"missing {what!r}")
    text = value if isinstance(value, str) else json.dumps(value)
    try:
        return script_from_json(text)
    except SerializationError as exc:
        raise ServiceError("bad_request", f"{what}: {exc}") from None


class ReproService:
    """The daemon's operation table; one instance per daemon."""

    def __init__(
        self,
        store: Optional[TreeStore] = None,
        workers: int = 0,
        collector: Optional[TelemetryCollector] = None,
        op_timeout_s: Optional[float] = None,
    ) -> None:
        self.store = store if store is not None else TreeStore()
        #: per-operation deadline for pooled diffs (None = no deadline)
        self.op_timeout_s = op_timeout_s if op_timeout_s and op_timeout_s > 0 else None
        self.collector = (
            collector if collector is not None else TelemetryCollector()
        )
        self.pool = DiffPool(workers, self.collector) if workers > 0 else None
        self._compute_lock = threading.Lock()
        self._started = time.time()
        self._requests = 0
        self._errors = 0
        self._sigs = None
        self._ops: dict[str, Callable[[dict[str, Any]], dict[str, Any]]] = {
            "put_tree": self._op_put_tree,
            "list_trees": self._op_list_trees,
            "diff": self._op_diff,
            "apply": self._op_apply,
            "apply_batch": self._op_apply_batch,
            "lint": self._op_lint,
            "verify": self._op_verify,
            "merge": self._op_merge,
            "health": self._op_health,
        }

    # ------------------------------------------------------------------
    # dispatch

    def handle(self, op: str, params: dict[str, Any]) -> dict[str, Any]:
        """Execute one operation; raises :class:`ServiceError` on failure.

        Runs under a fresh-rooted ``repro.server.request`` span (one
        trace per request) and keeps the request counters.
        """
        handler = self._ops.get(op)
        if handler is None:
            raise ServiceError("bad_request", f"unknown operation {op!r}")
        if not isinstance(params, dict):
            raise ServiceError("bad_request", "request parameters must be an object")
        self._requests += 1
        if OBS.enabled:
            _metrics().counter("repro.server.requests").inc()
            _metrics().counter(f"repro.server.requests.{op}").inc()
        with _span("repro.server.request", {"op": op}) as sp:
            try:
                return handler(params)
            except ServiceError as exc:
                sp.set_status("error", exc.code)
                self._errors += 1
                if OBS.enabled:
                    _metrics().counter("repro.server.request_errors").inc()
                raise
            except Exception as exc:
                sp.set_status("error", type(exc).__name__)
                self._errors += 1
                if OBS.enabled:
                    _metrics().counter("repro.server.request_errors").inc()
                raise ServiceError(
                    "internal",
                    f"{type(exc).__name__}: "
                    + " ".join((str(exc) or "").split()),
                ) from exc

    # ------------------------------------------------------------------
    # tree resolution

    def _resolve_tree(self, params: dict[str, Any], key: str) -> tuple[StoredTree, bool]:
        """A request tree reference: a fingerprint string (store lookup)
        or an inline ``{"source": ..., "filename": ...}`` object (parsed
        and stored on the way through).  Returns ``(entry, was_cached)``."""
        value = params.get(key)
        if isinstance(value, str):
            try:
                return self.store.get(value), True
            except UnknownFingerprint as exc:
                raise ServiceError("not_found", str(exc)) from None
        if isinstance(value, dict) and isinstance(value.get("source"), str):
            try:
                return self.store.put_source(
                    value["source"], value.get("filename") or f"<{key}>"
                )
            except StoreError as exc:
                raise ServiceError("bad_request", str(exc)) from None
        raise ServiceError(
            "bad_request",
            f"{key!r} must be a fingerprint string or {{\"source\": ...}}",
        )

    # ------------------------------------------------------------------
    # operations

    def _op_put_tree(self, params: dict[str, Any]) -> dict[str, Any]:
        source = params.get("source")
        if not isinstance(source, str):
            raise ServiceError("bad_request", "'source' must be a string")
        try:
            entry, cached = self.store.put_source(
                source, params.get("filename") or "<uploaded>"
            )
        except StoreError as exc:
            raise ServiceError("bad_request", str(exc)) from None
        return {
            "fingerprint": entry.fingerprint,
            "nodes": entry.nodes,
            "cached": cached,
        }

    def _op_list_trees(self, params: dict[str, Any]) -> dict[str, Any]:
        return {"trees": self.store.list()}

    def _op_diff(self, params: dict[str, Any]) -> dict[str, Any]:
        before, b_cached = self._resolve_tree(params, "before")
        after, a_cached = self._resolve_tree(params, "after")
        if (
            self.pool is not None
            and before.source is not None
            and after.source is not None
        ):
            result = self._pool_diff(before, after)
        else:
            with self._compute_lock:
                result = diff_trees(before.tree, after.tree)
        script_json = result.pop("script_json")
        result.pop("ok", None)
        out = {
            "before": before.fingerprint,
            "after": after.fingerprint,
            "cached": {"before": b_cached, "after": a_cached},
            "script": json.loads(script_json),
            "script_json": script_json,
        }
        out.update(result)
        return out

    def _pool_diff(self, before: StoredTree, after: StoredTree) -> dict[str, Any]:
        payload = {
            "before": {
                "fingerprint": before.fingerprint,
                "source": before.source,
                "filename": before.filename,
            },
            "after": {
                "fingerprint": after.fingerprint,
                "source": after.source,
                "filename": after.filename,
            },
        }
        result = self.pool.finish(
            self.pool.submit(payload, pool_diff_task), self.op_timeout_s
        )
        if not result.get("ok"):
            code = (
                "unavailable"
                if result.get("error_type") in ("BrokenProcessPool", "Timeout")
                else "internal"
            )
            raise ServiceError(code, result.get("error") or "diff failed")
        return result

    def _op_apply(self, params: dict[str, Any]) -> dict[str, Any]:
        fingerprint = params.get("tree")
        if not isinstance(fingerprint, str):
            raise ServiceError("bad_request", "'tree' must be a fingerprint string")
        script = _parse_script(params.get("script"))
        commit = bool(params.get("commit", True))
        with self._compute_lock:
            try:
                entry, cached, source = self.store.apply(fingerprint, script, commit)
            except UnknownFingerprint as exc:
                raise ServiceError("not_found", str(exc)) from None
            except PatchError as exc:
                # atomic semantics: the patch rolled back, the store is
                # untouched; the client gets the structured rejection
                raise ServiceError("conflict", f"patch rejected: {exc}") from None
        return {
            "tree": fingerprint,
            "fingerprint": entry.fingerprint,
            "nodes": entry.nodes,
            "cached": cached,
            "committed": commit,
            "source": source,
        }

    # ------------------------------------------------------------------
    # batch apply: truerace-scheduled concurrent application

    def _op_apply_batch(self, params: dict[str, Any]) -> dict[str, Any]:
        """Apply N scripts to one stored tree under the truerace schedule.

        The pipeline: canonically rename colliding fresh URIs
        (:func:`~repro.analysis.race.rename_fresh` — after which the
        fresh-URI interference rules are discharged), build the wave
        schedule with ``assume_renamed=True``, then execute it.  Wave 0
        (scripts independent of everything before them) fans its
        per-script transactional validation out across the worker pool;
        the daemon composes the accepted scripts — provably conflict-free
        — onto one scratch tree without re-verifying each.  Later waves
        interfere with something earlier, so they are applied
        sequentially in input order with full verification, which is
        exactly what the sequential fold would do with them.

        The result is defined to be the **sequential fold in input
        order** (each script applied transactionally; rejected scripts
        skipped).  The parallel path is an implementation of that spec:
        any pool failure or composition surprise falls back to the
        literal fold, and ``oracle=true`` re-runs the fold and asserts
        the fingerprints and per-script verdicts are identical —
        the zero-false-independence gate, servable on demand.
        """
        from repro.analysis.race import rename_fresh, schedule, script_effects

        fingerprint = params.get("tree")
        if not isinstance(fingerprint, str):
            raise ServiceError("bad_request", "'tree' must be a fingerprint string")
        raw = params.get("scripts")
        if not isinstance(raw, list) or not raw:
            raise ServiceError("bad_request", "'scripts' must be a non-empty array")
        if len(raw) > MAX_BATCH_SCRIPTS:
            raise ServiceError(
                "bad_request",
                f"at most {MAX_BATCH_SCRIPTS} scripts per batch, got {len(raw)}",
            )
        scripts = [_parse_script(v, f"scripts[{i}]") for i, v in enumerate(raw)]
        commit = bool(params.get("commit", True))
        oracle = bool(params.get("oracle", False))
        want_parallel = bool(params.get("parallel", True))
        try:
            base = self.store.get(fingerprint)
        except UnknownFingerprint as exc:
            raise ServiceError("not_found", str(exc)) from None

        renamed, renames = rename_fresh(
            scripts, set(range(1, base.nodes + 1)), start=base.nodes + 1
        )
        effects = [script_effects(s) for s in renamed]
        sch = schedule(renamed, assume_renamed=True, effects=effects)
        self._batch_count("requests")
        self._batch_count("scripts", len(scripts))
        self._batch_count("conflicts", len(sch.conflicts))
        self._batch_count("waves", len(sch.waves))
        self._batch_count("renamed_loads", renames)

        use_parallel = (
            want_parallel
            and self.pool is not None
            and base.source is not None
            and len(sch.waves[0]) > 1
        )
        with self._compute_lock:
            mode = "sequential"
            statuses: Optional[list[dict[str, Any]]] = None
            mtree = None
            if use_parallel:
                parallel_run = self._batch_parallel(base, renamed, sch)
                if parallel_run is None:
                    self._batch_count("fallbacks")
                else:
                    mode = "parallel"
                    mtree, statuses = parallel_run
            if statuses is None:
                mtree, statuses = self._batch_sequential(base, renamed)
            rebuilt, source, out_fp = self._batch_finish(mtree)

            oracle_out: Optional[dict[str, Any]] = None
            if oracle:
                self._batch_count("oracle_checks")
                if mode == "parallel":
                    seq_mtree, seq_statuses = self._batch_sequential(base, renamed)
                    _, _, seq_fp = self._batch_finish(seq_mtree)
                else:
                    seq_statuses, seq_fp = statuses, out_fp
                verdicts = [(s["index"], s["status"]) for s in statuses]
                seq_verdicts = [(s["index"], s["status"]) for s in seq_statuses]
                if out_fp != seq_fp or verdicts != seq_verdicts:
                    self._batch_count("oracle_failures")
                    raise ServiceError(
                        "internal",
                        "apply-batch differential oracle failed: parallel "
                        f"result {out_fp[:12]} (verdicts {verdicts}) != "
                        f"sequential {seq_fp[:12]} (verdicts {seq_verdicts})",
                    )
                oracle_out = {"ok": True, "fingerprint": seq_fp, "compared": mode}

            cached = False
            if commit:
                entry, cached = self.store.put_tree(
                    rebuilt, source, base.filename, fingerprint=out_fp
                )
                out_fp = entry.fingerprint

        applied = sum(1 for s in statuses if s["status"] == "applied")
        self._batch_count("applied", applied)
        self._batch_count("rejected", len(statuses) - applied)
        if mode == "parallel":
            self._batch_count("parallel_scripts", len(sch.waves[0]))
            self._batch_count(
                "serialized_scripts", len(statuses) - len(sch.waves[0])
            )
        out = {
            "tree": fingerprint,
            "fingerprint": out_fp,
            "nodes": rebuilt.size,
            "cached": cached,
            "committed": commit,
            "source": source,
            "mode": mode,
            "applied": applied,
            "rejected": len(statuses) - applied,
            "renamed_loads": renames,
            "scripts": statuses,
            "schedule": sch.as_dict(),
        }
        if oracle_out is not None:
            out["oracle"] = oracle_out
        return out

    def _batch_count(self, name: str, n: int = 1) -> None:
        if OBS.enabled and n:
            _metrics().counter(f"repro.server.batch_apply.{name}").inc(n)

    @staticmethod
    def _status_applied(index: int, script) -> dict[str, Any]:
        return {"index": index, "status": "applied", "edits": len(script)}

    @staticmethod
    def _status_rejected(index: int, error_type: str, error: str) -> dict[str, Any]:
        return {
            "index": index,
            "status": "rejected",
            "error": f"{error_type}: {error}",
        }

    def _batch_sequential(self, base: StoredTree, renamed) -> tuple[Any, list[dict[str, Any]]]:
        """The spec: fold the scripts over the base in input order, each
        with the full transactional machinery; rejections skip."""
        mtree = tnode_to_mtree(base.tree)
        sigs = base.tree.sigs
        statuses: list[dict[str, Any]] = []
        for i, script in enumerate(renamed):
            try:
                mtree.patch(script, atomic=True, sigs=sigs, verify=True)
            except PatchError as exc:
                statuses.append(
                    self._status_rejected(
                        i, type(exc).__name__, " ".join(str(exc).split())
                    )
                )
            else:
                statuses.append(self._status_applied(i, script))
        return mtree, statuses

    def _batch_parallel(
        self, base: StoredTree, renamed, sch
    ) -> Optional[tuple[Any, list[dict[str, Any]]]]:
        """Wave-0 fan-out plus driver composition; later waves inline.

        Returns ``None`` when the pool failed mid-batch or the
        composition contradicted the analysis — the caller re-runs the
        sequential fold, so clients always get the spec's answer.
        """
        from repro.core.serialize import script_to_json

        from .pool import pool_apply_task

        wave0 = sch.waves[0]
        base_spec = {
            "fingerprint": base.fingerprint,
            "source": base.source,
            "filename": base.filename,
        }
        futures = [
            (
                i,
                self.pool.submit(
                    {
                        "base": base_spec,
                        "script_json": script_to_json(renamed[i]),
                        "index": i,
                    },
                    task=pool_apply_task,
                ),
            )
            for i in wave0
        ]
        verdicts: dict[int, dict[str, Any]] = {}
        pool_ok = True
        for i, fut in futures:
            res = self.pool.finish(fut, self.op_timeout_s)
            if not res.get("ok"):
                pool_ok = False  # keep draining; finish() already rebuilt
            else:
                verdicts[i] = res
        if not pool_ok:
            return None

        # every index sits in exactly one wave, so every slot is filled
        statuses: list[dict[str, Any]] = [{} for _ in renamed]
        mtree = tnode_to_mtree(base.tree)
        sigs = base.tree.sigs
        for i in wave0:
            res = verdicts[i]
            if not res.get("applied"):
                statuses[i] = self._status_rejected(
                    i, res.get("error_type", "PatchError"), res.get("error", "")
                )
                continue
            try:
                # the worker verified this script against the base, and
                # wave-0 scripts are pairwise independent: composing the
                # accepted ones cannot interfere, so the driver skips the
                # per-script O(n) verify — that's the parallelism win
                mtree.patch(renamed[i], atomic=True, sigs=sigs, verify=False)
            except PatchError:
                # the analysis called these independent and the composition
                # still failed — a conservatism bug must degrade to the
                # sequential fold, never to a wrong answer
                return None
            statuses[i] = self._status_applied(i, renamed[i])
        for wave in sch.waves[1:]:
            for i in wave:
                try:
                    mtree.patch(renamed[i], atomic=True, sigs=sigs, verify=True)
                except PatchError as exc:
                    statuses[i] = self._status_rejected(
                        i, type(exc).__name__, " ".join(str(exc).split())
                    )
                else:
                    statuses[i] = self._status_applied(i, renamed[i])
        return mtree, statuses

    @staticmethod
    def _batch_finish(mtree) -> tuple[Any, str, str]:
        """Rebuild the canonical tree from the patched scratch ``MTree``
        exactly as :meth:`TreeStore.apply` does; returns
        ``(tree, source, fingerprint)``."""
        from repro.adapters.pyast import python_grammar, unparse_python

        from .store import fingerprint_tree

        g = python_grammar()
        rebuilt = g.grammar.parse_tuple(mtree.to_tuple()).with_canonical_uris()
        source = unparse_python(rebuilt)
        return rebuilt, source, fingerprint_tree(rebuilt)

    def _op_lint(self, params: dict[str, Any]) -> dict[str, Any]:
        from repro.analysis import lint_script, render_json

        script = _parse_script(params.get("script"))
        if self._sigs is None:
            self._sigs = _python_sigs()
        report = lint_script(script, self._sigs)
        return json.loads(render_json(report))

    def _op_verify(self, params: dict[str, Any]) -> dict[str, Any]:
        from repro.robustness import check_tree

        entry, _ = self._resolve_tree(params, "tree")
        with self._compute_lock:
            violations = check_tree(tnode_to_mtree(entry.tree), entry.tree.sigs)
        return {
            "fingerprint": entry.fingerprint,
            "nodes": entry.nodes,
            "ok": not violations,
            "violations": [str(v) for v in violations],
        }

    def _op_merge(self, params: dict[str, Any]) -> dict[str, Any]:
        from repro.core import merge_scripts
        from repro.core.serialize import script_to_json

        left = _parse_script(params.get("left"), "left")
        right = _parse_script(params.get("right"), "right")
        result = merge_scripts(left, right)
        if not result.ok:
            return {
                "ok": False,
                "conflicts": [str(c) for c in result.conflicts],
            }
        merged = script_to_json(result.script, indent=2)
        return {
            "ok": True,
            "conflicts": [],
            "edits": len(result.script),
            "script": json.loads(merged),
            "script_json": merged,
        }

    def _op_health(self, params: dict[str, Any]) -> dict[str, Any]:
        out = {
            "status": "ok",
            "uptime_s": round(time.time() - self._started, 3),
            "trees": len(self.store),
            "requests": self._requests,
            "errors": self._errors,
            "workers": self.pool.workers if self.pool is not None else 0,
        }
        describe = getattr(self.store, "describe_recovery", None)
        if describe is not None:  # durable store: surface what the open found
            out["recovery"] = describe()
        return out

    # ------------------------------------------------------------------
    # observability surfaces

    def metrics_text(self) -> str:
        """The Prometheus exposition the ``/metrics`` endpoint serves —
        the daemon registry with all absorbed worker deltas merged in."""
        from repro.observability import prometheus_text, snapshot

        if OBS.enabled:
            # gauges merge last-write-wins across worker deltas; re-assert
            # the authoritative store size at scrape time
            _metrics().gauge("repro.server.store.trees").set(len(self.store))
        return prometheus_text(snapshot())

    def drain_spans(self) -> list[dict[str, Any]]:
        """All span records collected since the last drain: the daemon's
        own trace buffer plus everything workers shipped back."""
        spans = list(self.collector.spans)
        self.collector.spans = []
        spans.extend(take_spans())
        return spans

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown(wait=True)
        close_store = getattr(self.store, "close", None)
        if close_store is not None:  # durable store: journal fh + dir lock
            close_store()
