"""The per-layer metrics and the public calls whose spans feed them.

Layer names follow the program's packages: ``adapters``, ``core``,
``robustness``, ``analysis``, ``batch`` and ``server``.  Each timed
layer is a span name; its metric is the per-op mean self time in ms.

Wrappers go around module attributes, so they see every caller that
looks the function up at call time (``from repro.x import f`` inside a
function body, or a module-global call).  ``repro.core`` re-exports
``diff`` and ``validate_script``; both the package attribute and the
``repro.core.diff`` module global are wrapped.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any

from . import common
from .tracer import Tracer

#: Span names that belong to a layer (anything else is unattributed).
TIMED_LAYERS = (
    "adapters.parse",
    "adapters.construct",
    "adapters.rebuild",
    "adapters.unparse",
    "core.canonicalize",
    "core.mtree_copy",
    "core.flatten",
    "core.arena_roll",
    "core.alias_check",
    "core.diff",
    "core.validate",
    "core.serialize",
    "robustness.fingerprint",
    "robustness.patch",
    "analysis.lint",
    "analysis.race",
    "server.http",
    "server.pool",
    "server.durable",
)

#: Every per-layer metric a ``--trace 1`` run prints, with its unit.
PER_LAYER = {
    **{f"{name}_ms": "ms" for name in TIMED_LAYERS},
    "batch.busy_share": "ratio",
    "batch.retried": "count",
    "batch.failed": "count",
    "server.worker_parse_ratio": "ratio",
    "server.store_parses_per_op": "count/op",
    "trace.unattributed_share": "ratio",
    "trace.overhead_pct": "%",
}


def _mod(name: str):
    __import__(name)
    return sys.modules[name]


def install_core(tr: Tracer) -> None:
    """Parse, construct, flatten, diff, validate and lint: the calls an
    in-process diff (a session, a batch worker) makes."""
    import repro.core
    from repro.core.arena import TreeArena

    pyast = _mod("repro.adapters.pyast")
    cdiff = _mod("repro.core.diff")
    tr.wrap(pyast, "parse_python", "adapters.parse")
    tr.wrap(pyast, "to_tnode", "adapters.construct")
    tr.wrap(_mod("repro.core.arena"), "arena_of", "core.flatten")
    tr.wrap(TreeArena, "apply_patch", "core.arena_roll")
    tr.wrap(_mod("repro.core.flatdiff"), "diff_flat_prepared", "core.diff")
    tr.wrap(repro.core, "diff", "core.diff")
    tr.wrap(cdiff, "subtree_ids", "core.alias_check")
    tr.wrap(cdiff, "_dealias", "core.alias_check")
    tr.wrap(cdiff, "validate_script", "core.validate")
    tr.wrap(repro.core, "validate_script", "core.validate")
    tr.wrap(_mod("repro.analysis"), "lint_script", "analysis.lint")


class _JsonProxy:
    """Stands in for the ``json`` module inside one server module so its
    ``dumps``/``loads`` calls can be timed without touching other users
    of ``json``."""

    def __init__(self) -> None:
        self.dumps = json.dumps
        self.loads = json.loads

    def __getattr__(self, name: str) -> Any:
        return getattr(json, name)


def _worker_split(tr: Tracer, idx: int, result: Any) -> None:
    """Pool workers run in child processes the wrappers cannot reach:
    carve the worker-reported compute time out of the pool span as a
    derived child (``diff_ms`` of a diff task -> ``core.diff``,
    ``apply_ms`` of an apply task -> ``robustness.patch``)."""
    if not isinstance(result, dict):
        return
    end = time.perf_counter()
    for key, layer in (("diff_ms", "core.diff"), ("apply_ms", "robustness.patch")):
        ms = result.get(key)
        if isinstance(ms, (int, float)) and ms > 0:
            tr.add(layer, end - ms / 1000.0, end, idx)


def install_server(tr: Tracer) -> None:
    """Every layer a daemon request passes through in the daemon process."""
    import repro.core
    from repro.core.adt import Grammar
    from repro.core.mtree import MTree
    from repro.core.tree import TNode
    from repro.server.durable import DurableTreeStore
    from repro.server.pool import DiffPool
    from repro.server.service import ReproService

    pyast = _mod("repro.adapters.pyast")
    store = _mod("repro.server.store")
    service = _mod("repro.server.service")
    httpd = _mod("repro.server.httpd")
    race = _mod("repro.analysis.race")
    analysis = _mod("repro.analysis")

    tr.wrap(ReproService, "handle", "server.handle", root=True)
    tr.wrap(pyast, "parse_python", "adapters.parse")
    tr.wrap(pyast, "to_tnode", "adapters.construct")
    tr.wrap(Grammar, "parse_tuple", "adapters.rebuild")
    tr.wrap(pyast, "unparse_python", "adapters.unparse")
    tr.wrap(TNode, "with_canonical_uris", "core.canonicalize")
    tr.wrap(store, "fingerprint_tree", "robustness.fingerprint")
    # the copy fingerprinting makes is part of robustness.fingerprint
    tr.wrap(store, "tnode_to_mtree", "core.mtree_copy", skip_under="robustness.fingerprint")
    tr.wrap(service, "tnode_to_mtree", "core.mtree_copy")
    tr.wrap(MTree, "patch", "robustness.patch", when=lambda *a, **kw: kw.get("atomic", False))
    tr.wrap(repro.core, "diff", "core.diff")
    tr.wrap(_mod("repro.core.diff"), "subtree_ids", "core.alias_check")
    tr.wrap(repro.core, "validate_script", "core.validate")
    tr.wrap(_mod("repro.core.serialize"), "script_to_json", "core.serialize")
    tr.wrap(service, "script_from_json", "core.serialize")
    for mod, attr in ((httpd, "dumps"), (service, "loads")):
        proxy = _JsonProxy()
        tr.wrap(proxy, attr, "core.serialize")
        mod.json = proxy
    tr.wrap(analysis, "lint_script", "analysis.lint")
    tr.wrap(analysis, "render_json", "analysis.lint")
    for fn in ("rename_fresh", "script_effects", "schedule"):
        tr.wrap(race, fn, "analysis.race")
    tr.wrap(DiffPool, "submit", "server.pool")
    tr.wrap(DiffPool, "finish", "server.pool", after=_worker_split)
    for fn in ("_write_snapshot", "_append", "compact"):
        tr.wrap(DurableTreeStore, fn, "server.durable")


#: Per-layer counts and ratios a workload reports where they apply (0 elsewhere).
COUNTS = (
    "batch.busy_share",
    "batch.retried",
    "batch.failed",
    "server.worker_parse_ratio",
    "server.store_parses_per_op",
)


def per_layer_metrics(
    self_ms: dict[str, float],
    ops: int,
    op_wall_ms: float,
    untraced_ops_per_s: float,
    traced_ops_per_s: float,
    counts: dict[str, float] | None = None,
) -> dict:
    """Every per-layer metric record of a ``--trace 1`` run.

    Timed layers are per-op means of self time, 0 where the workload
    never enters the layer; ``trace.unattributed_share`` is the share of
    op wall time no layer accounts for and ``trace.overhead_pct`` how
    much slower the traced ops ran than the untraced ones.
    """
    values: dict[str, float] = {
        f"{name}_ms": self_ms.get(name, 0.0) / max(1, ops) for name in TIMED_LAYERS
    }
    values.update({name: 0 for name in COUNTS})
    values.update(counts or {})
    layered = sum(self_ms.get(name, 0.0) for name in TIMED_LAYERS)
    values["trace.unattributed_share"] = (
        min(1.0, max(0.0, 1.0 - layered / op_wall_ms)) if op_wall_ms > 0 else 0.0
    )
    values["trace.overhead_pct"] = (
        (untraced_ops_per_s - traced_ops_per_s) / untraced_ops_per_s * 100.0
        if untraced_ops_per_s > 0
        else 0.0
    )
    return {k: common.metric(v, PER_LAYER[k]) for k, v in values.items()}
