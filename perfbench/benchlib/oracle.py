"""Correctness oracles, run outside every timed phase.

The reference for "this script is right" is CPython's own ``ast``: a
script applied with truechange's standard semantics
(:meth:`repro.core.MTree.patch`) to the parsed source must yield a tree
whose ``ast.dump`` equals ``ast.dump(ast.parse(target))``.  None of the
timed paths (flat-engine sessions, batch workers, the daemon) is used
to decide what is right.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
from typing import Optional

from repro.adapters.pyast import from_tnode, parse_python
from repro.core import PatchError, tnode_to_mtree
from repro.core.patch import mtree_to_tnode
from repro.core.serialize import SerializationError, script_from_json


def python_sigs():
    from repro.adapters.pyast import python_grammar

    return python_grammar().grammar.sigs


def source_dump(source: str) -> str:
    """The reference shape of a source text."""
    return ast.dump(ast.parse(source))


def canonical_mtree(source: str):
    """A fresh ``MTree`` of ``source`` with canonical URIs (1..n), the
    URI numbering every script here is computed against."""
    tree = parse_python(source).with_canonical_uris()
    return tnode_to_mtree(tree), tree.sigs, tree.size


def mtree_dump(mtree, sigs) -> str:
    return ast.dump(from_tnode(mtree_to_tnode(mtree, sigs)))


def mtree_source(mtree, sigs) -> str:
    return ast.unparse(ast.fix_missing_locations(from_tnode(mtree_to_tnode(mtree, sigs))))


def script_reproduces(source: str, script, target: str, mtree=None) -> bool:
    """Does ``script`` turn the parsed ``source`` into ``target``?

    ``mtree`` may carry a fresh canonical ``MTree`` of ``source`` the
    caller already built; it is patched in place."""
    try:
        if mtree is None:
            mtree = canonical_mtree(source)[0]
        sigs = python_sigs()
        mtree.patch(script)
        return mtree_dump(mtree, sigs) == source_dump(target)
    except (PatchError, ValueError, KeyError, TypeError, AttributeError):
        return False


def json_script_reproduces(source: str, script_json: Optional[str], target: str) -> bool:
    """:func:`script_reproduces` for a serialized script."""
    if not isinstance(script_json, str):
        return False
    try:
        script = script_from_json(script_json)
    except (SerializationError, ValueError, KeyError, TypeError):
        return False
    return script_reproduces(source, script, target)


def drop_last_edit_json(script_json: str) -> str:
    """A serialized script without its last edit (oracle self-tests)."""
    doc = json.loads(script_json)
    doc["edits"] = doc["edits"][:-1]
    return json.dumps(doc)


class SessionOracle:
    """Rolls one reference ``MTree`` forward through a session's scripts.

    :meth:`step` applies the next script and compares the result with
    the next version; after the first mismatch every later step fails
    too (the session's state is no longer known).
    """

    def __init__(self, source: str) -> None:
        self.mtree, self.sigs, _ = canonical_mtree(source)
        self.broken = False

    def step(self, script, target: str) -> bool:
        if self.broken:
            return False
        try:
            self.mtree.patch(script)
            ok = mtree_dump(self.mtree, self.sigs) == source_dump(target)
        except (PatchError, ValueError, KeyError, TypeError, AttributeError):
            ok = False
        self.broken = not ok
        return ok


def cli_diff_json(before_path: str, after_path: str) -> str:
    """Stdout of ``repro diff BEFORE AFTER --json``, run in-process."""
    from repro.__main__ import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["diff", before_path, after_path, "--json"])
    if code != 0:
        raise RuntimeError(f"repro diff exited {code}")
    return out.getvalue()


def shift_fresh(script_json: str, nodes: int, offset: int) -> str:
    """Rename the fresh URIs (> ``nodes``) of a serialized script by
    ``offset``, so scripts made independently against one base stop
    colliding; literals are left alone."""
    doc = json.loads(script_json)
    for edit in doc["edits"]:
        for key in ("node", "parent"):
            ref = edit.get(key)
            if ref is not None and ref[1] > nodes:
                ref[1] += offset
        for kid in edit.get("kids", ()):
            if kid[1] > nodes:
                kid[1] += offset
    return json.dumps(doc)


def sequential_fold(base: str, scripts_json: list[str]) -> tuple[str, list[bool]]:
    """The ``/apply-batch`` spec, computed independently: apply each
    script in input order with atomic patching, skipping rejects.
    Returns the resulting source and the per-script verdicts."""
    mtree, sigs, nodes = canonical_mtree(base)
    verdicts: list[bool] = []
    for i, text in enumerate(scripts_json):
        try:
            script = script_from_json(shift_fresh(text, nodes, (i + 1) * 10_000_000))
            mtree.patch(script, atomic=True, sigs=sigs, verify=True)
        except (PatchError, SerializationError):
            verdicts.append(False)
        else:
            verdicts.append(True)
    return mtree_source(mtree, sigs), verdicts


def same_tree(source: Optional[str], expected: str) -> bool:
    """Does ``source`` re-parse to the same ``ast`` as ``expected``?"""
    if not isinstance(source, str):
        return False
    try:
        return source_dump(source) == source_dump(expected)
    except SyntaxError:
        return False
