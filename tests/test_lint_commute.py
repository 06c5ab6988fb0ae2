"""Tests for the script-pair commutation analysis and its use as the
merge precheck."""

from __future__ import annotations

from repro.core import (
    Attach,
    Detach,
    EditScript,
    Load,
    Node,
    Unload,
    Update,
    diff,
    merge_scripts,
    tnode_to_mtree,
)
from repro.analysis import commute_conflicts, commutes, script_effects

from .util import EXP


def make_base():
    base = EXP.Add(EXP.Num(1), EXP.Num(2))
    return base, base.kids[0], base.kids[1]


class TestFootprint:
    def test_classifies_resource_use(self):
        base, kid1, kid2 = make_base()
        fresh = Node("Num", EXP.sigs.urigen.fresh())
        script = EditScript(
            [
                Detach(kid1.node, "e1", base.node),
                Load(fresh, (), (("n", 9),)),
                Attach(fresh, "e1", base.node),
                Update(kid2.node, (("n", 2),), (("n", 8),)),
                Unload(kid1.node, (), (("n", 1),)),
            ]
        )
        fx = script_effects(script)
        assert fx.slot_writes == {(base.uri, "e1")}
        assert fx.moves == {kid1.uri}  # fresh is the script's own load
        assert fx.lit_writes == {kid2.uri}
        assert fx.destroys == {kid1.uri}
        assert fx.fresh == {fresh.uri}
        # the Update's old value and the Unload's literal check are reads
        assert fx.lit_reads == {kid1.uri, kid2.uri}
        assert fx.touched == {base.uri, kid1.uri, kid2.uri}

    def test_canonicalization_discounts_self_cancelling_noise(self):
        base, kid1, _ = make_base()
        noise = EditScript(
            [
                Detach(kid1.node, "e1", base.node),
                Attach(kid1.node, "e1", base.node),
            ]
        )
        raw = script_effects(noise, canonicalize=False)
        assert raw.slot_writes and raw.moves
        fx = script_effects(noise)
        assert not fx.touched and not fx.slot_writes

    def test_load_kid_bindings_consume_positions(self):
        _, kid1, _ = make_base()
        fresh = Node("Neg", EXP.sigs.urigen.fresh())
        script = EditScript([Load(fresh, (("e", kid1.uri),), ())])
        fx = script_effects(script)
        assert kid1.uri in fx.moves


class TestCommutation:
    def test_disjoint_subtree_edits_commute(self):
        base, kid1, kid2 = make_base()
        a = EditScript([Update(kid1.node, (("n", 1),), (("n", 5),))])
        b = EditScript([Update(kid2.node, (("n", 2),), (("n", 6),))])
        assert commutes(a, b) and commutes(b, a)

    def test_move_commutes_with_content_edit_of_same_node(self):
        """The payoff over the URI-overlap check: moving a node and
        updating its literals touch the same URI but different resources."""
        base, kid1, kid2 = make_base()
        move = EditScript(
            [
                Detach(kid1.node, "e1", base.node),
                Detach(kid2.node, "e2", base.node),
                Attach(kid2.node, "e1", base.node),
                Attach(kid1.node, "e2", base.node),
            ]
        )
        edit = EditScript([Update(kid1.node, (("n", 1),), (("n", 99),))])
        assert commutes(move, edit)

    def test_same_slot_rewired_conflicts(self):
        base, kid1, kid2 = make_base()
        a = EditScript(
            [
                Detach(kid1.node, "e1", base.node),
                Attach(kid1.node, "e2", base.node),
                Detach(kid2.node, "e2", base.node),
                Attach(kid2.node, "e1", base.node),
            ]
        )
        conflicts = commute_conflicts(a, a)
        kinds = {c.kind for c in conflicts}
        assert "slot" in kinds and "position" in kinds

    def test_destroy_versus_use_conflicts_symmetrically(self):
        base, kid1, _ = make_base()
        destroy = EditScript(
            [
                Detach(kid1.node, "e1", base.node),
                Unload(kid1.node, (), (("n", 1),)),
                Attach(Node("Num", 9001), "e1", base.node),
            ]
        )
        use = EditScript([Update(kid1.node, (("n", 1),), (("n", 4),))])
        for x, y in ((destroy, use), (use, destroy)):
            conflicts = commute_conflicts(x, y)
            assert any(
                c.kind == "node" and c.resource == (kid1.uri,)
                for c in conflicts
            )

    def test_conflict_strings_name_the_race(self):
        from repro.core import MergeConflict

        assert "rewire slot" in str(MergeConflict("slot", (3, "e1")))
        assert "move node" in str(MergeConflict("position", (3,)))
        assert "literals" in str(MergeConflict("content", (3,)))
        assert "deletes node" in str(MergeConflict("node", (3,)))


class TestMergePrecheck:
    def test_swap_versus_literal_edit_merges_cleanly(self):
        """Regression: the historical URI-overlap precheck called this pair
        a conflict (both scripts mention Num(1)'s URI).  The commutation
        analysis sees a move racing with nothing and a content edit racing
        with nothing, so the merge must succeed — and produce the tree
        with both changes.  The kids are structurally distinct (Var vs
        Num) so the swap really is a pair of moves, not literal updates."""
        base = EXP.Add(EXP.Var("a"), EXP.Num(2))
        kid1, kid2 = base.kids
        swapped = base.with_kids([kid2, kid1])
        relit = base.with_kids([kid1.with_lits(("z",)), kid2])

        left, _ = diff(base, swapped)
        right, _ = diff(base, relit)
        assert commutes(left, right)

        result = merge_scripts(left, right)
        assert result.ok, [str(c) for c in result.conflicts]

        merged_tree = tnode_to_mtree(base)
        merged_tree.patch(result.script)
        want = base.with_kids([kid2, kid1.with_lits(("z",))])
        assert merged_tree.structure_equals(tnode_to_mtree(want))

    def test_true_conflict_still_reported(self):
        base, kid1, kid2 = make_base()
        swapped = base.with_kids([kid2, kid1])
        left, _ = diff(base, swapped)
        result = merge_scripts(left, left)
        assert not result.ok and result.conflicts


class TestCommuteEdgeCases:
    """Edge cases at the seam between the merge contract (fresh URIs are
    renamed) and the race contract (they are not) — the split that
    re-pointing ``commute_conflicts`` at the effect system must preserve."""

    def test_fresh_uri_collisions_commute_under_merge_semantics(self):
        """Two independently-generated scripts both draw their loads from
        ``URIGen(start=size+1)``, so their fresh ranges collide byte for
        byte.  The merge precheck must NOT call that a conflict — the
        merger renames one side — and the merge must in fact succeed."""
        from repro.core import DiffOptions, URIGen

        base = EXP.Add(EXP.Num(1), EXP.Num(2))
        kid1, kid2 = base.kids
        v1 = base.with_kids([EXP.Neg(kid1), kid2])
        v2 = base.with_kids([kid1, EXP.Neg(kid2)])
        size = base.size
        left, _ = diff(base, v1, DiffOptions(typecheck="none"), urigen=URIGen(start=size + 1))
        right, _ = diff(base, v2, DiffOptions(typecheck="none"), urigen=URIGen(start=size + 1))
        # colliding allocations, by construction
        from repro.analysis.race.effects import loaded_uris

        assert set(loaded_uris(left)) & set(loaded_uris(right))
        assert commutes(left, right), [
            str(c) for c in commute_conflicts(left, right)
        ]
        result = merge_scripts(left, right)
        assert result.ok, [str(c) for c in result.conflicts]
        # ...while the race analysis, which models raw application,
        # correctly refuses the same pair
        from repro.analysis.race import interference, script_effects

        races = interference(script_effects(left), script_effects(right))
        assert any(c.code == "TR005" for c in races)

    def test_single_script_self_interference(self):
        """A script conflicts with itself whenever it writes anything —
        the degenerate pair the schedule uses to serialize duplicates."""
        _, kid1, _ = make_base()
        s = EditScript([Update(kid1.node, (("n", 1),), (("n", 5),))])
        conflicts = commute_conflicts(s, s)
        assert conflicts and all(c.kind == "content" for c in conflicts)

    def test_empty_script_commutes_with_everything(self):
        base, kid1, kid2 = make_base()
        empty = EditScript([])
        busy = EditScript(
            [
                Detach(kid1.node, "e1", base.node),
                Unload(kid1.node, (), (("n", 1),)),
                Attach(Node("Num", kid2.uri), "e1", base.node),
                Detach(kid2.node, "e2", base.node),
                Update(kid2.node, (("n", 2),), (("n", 9),)),
            ]
        )
        assert commutes(empty, empty)
        assert commutes(empty, busy) and commutes(busy, empty)
        assert commute_conflicts(empty, busy) == []

    def test_noop_script_commutes_like_empty(self):
        """Self-cancelling noise minimizes away: a detach/attach pair has
        no effects and commutes even with a script using those very nodes."""
        base, kid1, _ = make_base()
        noise = EditScript(
            [
                Detach(kid1.node, "e1", base.node),
                Attach(kid1.node, "e1", base.node),
            ]
        )
        touch = EditScript([Update(kid1.node, (("n", 1),), (("n", 3),))])
        assert commutes(noise, touch) and commutes(touch, noise)
