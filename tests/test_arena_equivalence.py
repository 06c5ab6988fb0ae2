"""The flat engine's contract: byte-identical behavior.

Two families of properties:

* **Script equivalence** — Steps 2–4 over :class:`TreeArena` columns
  (:func:`repro.core.diff_flat_prepared`) emit the *same edit script,
  edit for edit*, as the object-tree reference implementation, and the
  patched trees they return are identical (same structure, same URIs).
  Checked on hypothesis-generated Exp trees, on mutation chains, and on
  corpus-flavored Python modules (full variadic alignment paths).

* **Incremental consistency** — an arena kept in sync by
  :meth:`MTree.patch` is indistinguishable (``tree_fingerprint``) from
  one rebuilt from scratch after every change.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import (
    DiffOptions,
    DiffSession,
    TreeArena,
    diff,
    diff_flat_prepared,
    tnode_to_mtree,
)
from repro.core.diff import _check_source, _dealias_if_needed, _diff_prepared
from repro.core.uris import URIGen

from .util import EXP, exp_trees, mutate_exp, random_exp

_NO_CHECK = DiffOptions(typecheck="none")
# both paths must draw identical fresh URIs to be byte-comparable; high
# starts keep them clear of the shared grammar generator
_FRESH = 10**7


def _object_script(src, dst, urigen):
    """The object-path reference: same preconditioning DiffSession does."""
    dealiased = _dealias_if_needed(dst, _check_source(src))
    return _diff_prepared(src, dealiased, _NO_CHECK, urigen)


def _assert_equivalent(src, dst):
    o_script, o_patched, _ = _object_script(src, dst, URIGen(_FRESH))
    S = TreeArena.from_tree(src, strict=True)
    D = TreeArena.from_tree(dst)
    f_script, f_patched, _ = diff_flat_prepared(S, D, _NO_CHECK, URIGen(_FRESH))
    assert list(f_script) == list(o_script)  # edit-for-edit identical
    # identical patched trees: same structure, same literals, same URIs
    assert (
        TreeArena.from_tree(f_patched, strict=True).tree_fingerprint()
        == TreeArena.from_tree(o_patched, strict=True).tree_fingerprint()
    )
    return f_script


class TestScriptEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(exp_trees(), exp_trees())
    def test_independent_trees(self, src, dst):
        _assert_equivalent(src, dst)

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(exp_trees(max_leaves=16))
    def test_mutation_chains(self, src):
        # mutate_exp duplicates subtrees: the target aliases both itself
        # and the source, exercising the dealias-free flat path
        rng = random.Random(src.structure_hash[0])
        cur = src
        for _ in range(3):
            nxt = mutate_exp(rng, cur, n_edits=2)
            _assert_equivalent(cur, nxt)
            _, cur = diff(cur, nxt, _NO_CHECK)

    @pytest.mark.parametrize("seed", range(4))
    def test_long_chains_deterministic(self, seed):
        rng = random.Random(seed)
        cur = random_exp(rng, depth=5)
        ug_o, ug_f = URIGen(_FRESH), URIGen(_FRESH)
        for _ in range(25):
            nxt = mutate_exp(rng, cur, n_edits=rng.randint(1, 3))
            o_script, o_patched, _ = _object_script(cur, nxt, ug_o)
            S = TreeArena.from_tree(cur, strict=True)
            f_script, _, _ = diff_flat_prepared(
                S, TreeArena.from_tree(nxt), _NO_CHECK, ug_f
            )
            assert f_script == o_script
            cur = o_patched

    @pytest.mark.parametrize("seed", range(3))
    def test_corpus_modules(self, seed):
        # real variadic trees: Python modules through the pyast adapter
        from repro.adapters.pyast import parse_python
        from repro.corpus import generate_module, mutate_source

        rng = random.Random(seed)
        before = generate_module(seed)
        after, _ = mutate_source(before, rng, n_edits=3)
        src = parse_python(before).with_canonical_uris()
        dst = parse_python(after)
        _assert_equivalent(src, dst)

    def test_fifo_and_no_preference_options(self):
        rng = random.Random(11)
        src = random_exp(rng, depth=5)
        dst = mutate_exp(rng, src, n_edits=3)
        for opts in (
            DiffOptions(typecheck="none", height_first=False),
            DiffOptions(typecheck="none", prefer_literal_matches=False),
            DiffOptions(typecheck="none", coalesce=False),
        ):
            o_script, _, _ = _diff_prepared(
                src,
                _dealias_if_needed(dst, _check_source(src)),
                opts,
                URIGen(_FRESH),
            )
            f_script, _, _ = diff_flat_prepared(
                TreeArena.from_tree(src, strict=True),
                TreeArena.from_tree(dst),
                opts,
                URIGen(_FRESH),
            )
            assert f_script == o_script


class TestIncrementalConsistency:
    @pytest.mark.parametrize("seed", range(4))
    def test_mtree_patch_keeps_arena_fresh(self, seed):
        rng = random.Random(seed)
        cur = random_exp(rng, depth=5)
        mt = tnode_to_mtree(cur)
        mt.attach_arena(cur.sigs)
        for _ in range(12):
            nxt = mutate_exp(rng, cur, n_edits=rng.randint(1, 3))
            script, patched = diff(cur, nxt)
            mt.patch(script)
            assert (
                mt.arena.tree_fingerprint()
                == TreeArena.from_mtree(mt, cur.sigs).tree_fingerprint()
            )
            cur = patched
        assert mt.arena.verify_consistent() == []

    def test_default_session_validates_statically(self):
        # the default session's pipeline: static pre-flight passes, and
        # each round's script equals a flat diff over fresh arenas
        rng = random.Random(3)
        base = random_exp(rng, depth=5)
        session = DiffSession(base, urigen=URIGen(_FRESH))
        flat_urigen = URIGen(_FRESH)
        cur = base
        for _ in range(8):
            cur = mutate_exp(rng, cur, n_edits=2)
            f_script, _, _ = diff_flat_prepared(
                TreeArena.from_tree(session.tree, strict=True),
                TreeArena.from_tree(cur),
                _NO_CHECK,
                flat_urigen,
            )
            s_script, s_patched = session.diff(cur)
            assert s_script == f_script
            cur = s_patched
