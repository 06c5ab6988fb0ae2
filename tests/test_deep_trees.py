"""Deep-tree stress tests: every traversal on the diff/patch path is
iterative, so a 50k-deep linear tree (a long ``Neg`` chain) must diff,
patch, deduplicate, and renumber without ``RecursionError``.

The chain is the worst case for spine-shaped work: a literal change at
the leaf invalidates the ``literal_hash`` of every ancestor (Update
path), and a structural change at the leaf invalidates every ancestor's
``structure_hash`` (full simultaneous descent in Steps 2-4).
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.core import (
    DiffSession,
    apply_script,
    diff,
    hash_scheme,
    mtree_to_tnode,
    tnode_to_mtree,
)

from .util import EXP

DEPTH = 50_000

pytestmark = pytest.mark.parametrize("scheme", ["blake2b", "sha256"])


def neg_chain(leaf):
    tree = leaf
    for _ in range(DEPTH):
        tree = EXP.Neg(tree)
    return tree


def test_deep_literal_change_diffs_and_patches(scheme):
    # same shape, different leaf literal: the whole spine goes through
    # the iterative update_lits rebuild, emitting exactly one Update
    with hash_scheme(scheme):
        this = neg_chain(EXP.Num(1))
        that = neg_chain(EXP.Num(2))
        script, patched = diff(this, that)
        assert len(script) == 1
        assert patched.tree_equal(that)
        assert apply_script(this, script).tree_equal(that)


def test_deep_structural_change_diffs_and_patches(scheme):
    # different leaf constructor: every level's structure hash differs,
    # so Steps 2-4 all descend the full 50k-deep spine
    with hash_scheme(scheme):
        this = neg_chain(EXP.Num(1))
        that = neg_chain(EXP.Var("x"))
        script, patched = diff(this, that)
        assert patched.tree_equal(that)
        assert apply_script(this, script).tree_equal(that)


def test_deep_session_rounds(scheme):
    with hash_scheme(scheme):
        session = DiffSession(neg_chain(EXP.Num(1)))
        for leaf in (EXP.Num(2), EXP.Var("y"), EXP.Num(3)):
            that = neg_chain(leaf)
            script, patched = session.diff(that)
            assert patched.tree_equal(that)
            assert session.tree is patched


def test_deep_unshared(scheme):
    with hash_scheme(scheme):
        shared = EXP.Num(7)
        tree = EXP.Add(neg_chain(shared), shared)
        fixed = tree.unshared(tree.sigs.urigen)
        assert fixed.tree_equal(tree)
        uris = [n.uri for n in fixed.iter_subtree()]
        assert len(uris) == len(set(uris))


def test_deep_canonical_uris(scheme):
    with hash_scheme(scheme):
        tree = neg_chain(EXP.Num(1))
        canon = tree.with_canonical_uris()
        assert canon.tree_equal(tree)
        # pre-order numbering from the root down the chain
        assert canon.uri == 1
        leaf = canon
        while leaf.kids:
            leaf = leaf.kids[0]
        assert leaf.uri == DEPTH + 1


def test_deep_mtree_roundtrip(scheme):
    with hash_scheme(scheme):
        tree = neg_chain(EXP.Num(4))
        mt = tnode_to_mtree(tree)
        back = mtree_to_tnode(mt, tree.sigs)
        assert back.tree_equal(tree)


#: ``to_tuple`` -> ``parse_tuple`` on the chain, for both tree kinds
TUPLE_ROUNDTRIP = """
import sys
from repro.core import hash_scheme, tnode_to_mtree
from tests.util import EXP
with hash_scheme(sys.argv[1]):
    tree = EXP.Num(4)
    for _ in range(int(sys.argv[2])):
        tree = EXP.Neg(tree)
    for snapshot in (tree.to_tuple(), tnode_to_mtree(tree).to_tuple()):
        assert EXP.g.parse_tuple(snapshot).tree_equal(tree)
print("ok")
"""


def test_deep_tuple_roundtrip(scheme):
    # in a subprocess: a recursive to_tuple overflows the C stack, and
    # that must fail this test, not kill the test run
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([os.path.join(root, "src"), root]),
    }
    proc = subprocess.run(
        [sys.executable, "-c", TUPLE_ROUNDTRIP, scheme, str(DEPTH)],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, (proc.returncode, proc.stderr[-2000:])
    assert proc.stdout.strip() == "ok"


#: a ``1 + 1 + ...`` module built as an ast (so no parser limit applies),
#: through the Python adapter both ways and out through ast.unparse
DEEP_PYTHON = """
import ast, sys
from repro.adapters.pyast import from_tnode, to_tnode, unparse_python
from repro.core import hash_scheme
depth = int(sys.argv[2])
with hash_scheme(sys.argv[1]):
    expr = ast.Constant(1)
    for _ in range(depth):
        expr = ast.BinOp(expr, ast.Add(), ast.Constant(1))
    module = ast.Module([ast.Assign([ast.Name("x", ast.Store())], expr)], [])
    tree = to_tnode(module)
    assert tree.height > depth
    assert to_tnode(from_tnode(tree)).tree_equal(tree)
    try:
        source = unparse_python(tree)
    except RecursionError:
        # CPython < 3.11: refused up front instead of overflowing the C stack
        assert sys.version_info < (3, 11)
        print("refused")
    else:
        assert source == "x = " + " + ".join(["1"] * (depth + 1))
        print("unparsed")
"""


def test_deep_python_source(scheme):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    proc = subprocess.run(
        [sys.executable, "-c", DEEP_PYTHON, scheme, "20000"],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, (proc.returncode, proc.stderr[-2000:])
    assert proc.stdout.strip() == (
        "refused" if sys.version_info < (3, 11) else "unparsed"
    )
