"""Unit tests for the struct-of-arrays tree core
(:mod:`repro.core.arena`): flattening, incremental maintenance through
the edit interface, script roll-forward (``apply_patch``), and the dense
export."""

from __future__ import annotations

import random

import pytest

from repro.core import (
    DiffOptions,
    TreeArena,
    arena_of,
    diff_flat_prepared,
    tnode_to_mtree,
)
from repro.core.arena import NIL, ArenaError, tag_id, tag_name
from repro.core.uris import URIGen

from .util import EXP, mutate_exp, random_exp


def _small():
    e = EXP
    return e.Add(e.Num(1), e.Mul(e.Var("x"), e.Num(2)))


class TestFromTree:
    def test_columns_match_object_tree(self):
        t = _small()
        a = TreeArena.from_tree(t, strict=True)
        r = a.root_slot()
        assert a.parent[r] == 0 and a.parent[0] == NIL
        assert a.size[r] == t.size and a.height[r] == t.height
        assert a.sfp[r] == t.structure_hash
        assert a.lfp[r] == t.literal_hash
        assert a.uris[r] == t.uri
        # pre-order slot walk visits the same nodes as the object walk
        slots = list(a.preorder_slots(r))
        nodes = list(t.iter_subtree())
        assert len(slots) == len(nodes) == t.size
        for i, n in zip(slots, nodes):
            assert a.uris[i] == n.uri
            assert tag_name(a.tags[i]) == n.tag
            assert a.tags[i] == tag_id(n.tag)
            assert a.sfp[i] == n.structure_hash
            assert a.lfp[i] == n.literal_hash
        assert a.verify_consistent() == []

    def test_kid_chain_is_left_to_right(self):
        t = _small()
        a = TreeArena.from_tree(t)
        r = a.root_slot()
        kids = a.kid_slots(r)
        assert [a.uris[k] for k in kids] == [k.uri for k in t.kids]

    def test_strict_rejects_shared_structure(self):
        e = EXP
        shared = e.Num(7)
        t = e.Add(shared, shared)
        with pytest.raises(ValueError, match="same node object twice"):
            TreeArena.from_tree(t, strict=True)

    def test_non_strict_gives_duplicates_their_own_slots(self):
        e = EXP
        shared = e.Num(7)
        t = e.Add(shared, shared)
        a = TreeArena.from_tree(t)
        assert a.has_duplicates
        r = a.root_slot()
        assert a.size[r] == 3
        assert len(list(a.preorder_slots(r))) == 3

    def test_arena_of_caches_on_the_root(self):
        t = _small()
        assert arena_of(t) is arena_of(t)

    def test_fingerprint_distinguishes_trees(self):
        e = EXP
        a = TreeArena.from_tree(e.Add(e.Num(1), e.Num(2)))
        b = TreeArena.from_tree(e.Add(e.Num(1), e.Num(3)))
        c = TreeArena.from_tree(e.Add(e.Num(1), e.Num(2)))
        assert a.tree_fingerprint() != b.tree_fingerprint()
        # equal content but distinct URIs -> distinct fingerprints
        assert a.tree_fingerprint() != c.tree_fingerprint()


class TestMTreeMaintenance:
    def _patched_pair(self, seed):
        rng = random.Random(seed)
        src = random_exp(rng, depth=4)
        dst = mutate_exp(rng, src, n_edits=2)
        from repro.core import diff

        script, _ = diff(src, dst)
        return src, script

    @pytest.mark.parametrize("seed", range(6))
    def test_process_edit_tracks_patches(self, seed):
        src, script = self._patched_pair(seed)
        mt = tnode_to_mtree(src)
        mt.attach_arena(src.sigs)
        before = mt.arena.tree_fingerprint()
        assert before == TreeArena.from_mtree(mt, src.sigs).tree_fingerprint()
        mt.patch(script)
        after = mt.arena.tree_fingerprint()
        assert after != before
        assert after == TreeArena.from_mtree(mt, src.sigs).tree_fingerprint()
        assert mt.arena.verify_consistent() == []

    def test_invalidate_reloads_from_mtree(self):
        src = _small()
        mt = tnode_to_mtree(src)
        a = mt.attach_arena(src.sigs)
        fp = a.tree_fingerprint()
        a.invalidate()
        assert a.tree_fingerprint() == fp
        assert a.verify_consistent() == []

    def test_detached_arena_rejects_out_of_sync_edit(self):
        from repro.core import Detach
        from repro.core.node import Node

        src = _small()
        a = TreeArena.from_tree(src)
        kid = src.kids[0]
        ghost = Node("Num", URIGen(10**7).fresh())
        with pytest.raises(ArenaError):
            a.process_edit(Detach(ghost, "e1", Node(src.tag, src.uri)))


class TestSessionRollForward:
    def test_apply_patch_matches_rebuild(self):
        rng = random.Random(5)
        src = random_exp(rng, depth=4)
        arena = TreeArena.from_tree(src, strict=True)
        dst = mutate_exp(rng, src, n_edits=2)
        script, patched, buf = diff_flat_prepared(
            arena,
            TreeArena.from_tree(dst),
            DiffOptions(typecheck="none"),
            URIGen(10**6),
        )
        arena.apply_patch(script, buf.fresh)
        assert arena.verify_consistent() == []
        fresh = TreeArena.from_tree(patched, strict=True)
        assert arena.tree_fingerprint() == fresh.tree_fingerprint()


class TestPackedExport:
    def test_packed_is_dense_and_consistent(self):
        t = _small()
        a = TreeArena.from_tree(t)
        p = a.packed()
        n = t.size
        assert len(p["tags"]) == n
        assert len(p["uris"]) == n
        assert p["parent"][0] == NIL  # the root's parent is not exported
        assert len(p["fingerprints"]) == n * p["fingerprint_stride"]
        # record 0 is the root: sfp then lfp
        stride = p["fingerprint_stride"]
        assert p["fingerprints"][: stride // 2] == t.structure_hash
        assert p["fingerprints"][stride // 2 : stride] == t.literal_hash
        names = p["tag_names"]
        assert [names[i] for i in p["tags"]] == [
            x.tag for x in t.iter_subtree()
        ]

    def test_packed_parent_kid_agreement(self):
        rng = random.Random(9)
        t = random_exp(rng, depth=4)
        p = TreeArena.from_tree(t).packed()
        n = len(p["tags"])
        for i in range(n):
            fk = p["first_kid"][i]
            if fk != NIL:
                assert p["parent"][fk] == i
            ns = p["next_sib"][i]
            if ns != NIL:
                assert p["parent"][ns] == p["parent"][i]
                assert p["pos"][ns] > p["pos"][i]


class TestVerifyConsistent:
    def test_detects_corruption(self):
        t = _small()
        a = TreeArena.from_tree(t)
        r = a.root_slot()
        a.height[r] += 1
        assert any("height" in p for p in a.verify_consistent())
