"""Unit tests for TNode (hashing, equivalences) and the Grammar/@diffable
front-end (Section 5)."""

from __future__ import annotations

import pytest

from repro.core import (
    Grammar,
    LIT_INT,
    LIT_STR,
    SignatureError,
    TNode,
    tnode_to_mtree,
)

from .util import EXP


class TestHashingAndEquivalence:
    def test_structural_equivalence_ignores_literals(self):
        e = EXP
        a = e.Add(e.Num(1), e.Num(2))
        b = e.Add(e.Num(3), e.Num(4))
        assert a.structurally_equivalent(b)
        assert not a.literally_equivalent(b)
        assert not a.tree_equal(b)

    def test_structural_equivalence_distinguishes_tags(self):
        e = EXP
        a = e.Add(e.Num(1), e.Num(2))
        b = e.Sub(e.Num(1), e.Num(2))
        assert not a.structurally_equivalent(b)
        # same literals in the same positions, different tags
        assert a.literally_equivalent(b)

    def test_identity_equals_structural_plus_literal(self):
        e = EXP
        a = e.Add(e.Num(1), e.Num(2))
        b = e.Add(e.Num(1), e.Num(2))
        assert a.structurally_equivalent(b)
        assert a.literally_equivalent(b)
        assert a.tree_equal(b)
        assert a.uri != b.uri  # URIs are fresh per construction

    def test_literal_value_type_matters_in_hash(self):
        g = Grammar()
        S = g.sort("S")
        L = g.constructor("L", S, lits=[("v", __import__("repro.core", fromlist=["LIT_ANY"]).LIT_ANY)])
        assert not L(1).tree_equal(L("1"))

    def test_height_and_size(self):
        e = EXP
        t = e.Add(e.Num(1), e.Mul(e.Num(2), e.Num(3)))
        assert t.height == 3
        assert t.size == 5
        assert t.kid("e1").height == 1

    def test_iter_subtree_preorder(self):
        e = EXP
        t = e.Add(e.Num(1), e.Num(2))
        tags = [n.tag for n in t.iter_subtree()]
        assert tags == ["Add", "Num", "Num"]
        assert len(list(t.iter_proper_subtrees())) == 2

    def test_kid_and_lit_accessors(self):
        e = EXP
        t = e.Call(e.Num(1), "f")
        assert t.lit("f") == "f"
        assert t.kid("a").tag == "Num"
        with pytest.raises(KeyError):
            t.kid("nope")
        with pytest.raises(KeyError):
            t.lit("nope")

    def test_with_lits_keeps_uri(self):
        t = EXP.Num(1)
        t2 = t.with_lits([2])
        assert t2.uri == t.uri and t2.lit("n") == 2

    def test_unshared_splits_duplicate_objects(self):
        e = EXP
        shared = e.Num(7)
        t = e.Add(shared, shared)
        ids = [id(n) for n in t.iter_subtree()]
        assert len(ids) != len(set(ids))
        u = t.unshared()
        ids2 = [id(n) for n in u.iter_subtree()]
        uris = [n.uri for n in u.iter_subtree()]
        assert len(ids2) == len(set(ids2))
        assert len(uris) == len(set(uris))
        assert u.tree_equal(t)

    def test_diff_rejects_aliased_source(self):
        from repro.core import diff

        e = EXP
        shared = e.Num(7)
        src = e.Add(shared, shared)
        with pytest.raises(ValueError, match="unshared"):
            diff(src, e.Num(1))

    def test_tnode_to_mtree_round_trip(self):
        e = EXP
        t = e.Add(e.Call(e.Num(1), "f"), e.Var("x"))
        mt = tnode_to_mtree(t)
        assert mt.to_tuple() == t.to_tuple()
        assert mt.node_count() == t.size


def ref_tnode_tuple(t, with_uris=False):
    """The recursive definition of :meth:`TNode.to_tuple` (reference)."""
    kids = tuple((l, ref_tnode_tuple(k, with_uris)) for l, k in t.kid_items)
    lits = tuple(sorted(t.lit_items, key=lambda kv: kv[0]))
    head = (t.tag, t.uri) if with_uris else t.tag
    return (head, tuple(sorted(kids, key=lambda kv: kv[0])), lits)


def ref_mnode_tuple(m, with_uris=False):
    """The recursive definition of :meth:`MNode.to_tuple` (reference)."""
    kids = tuple(
        (l, ref_mnode_tuple(k, with_uris) if k is not None else None)
        for l, k in sorted(m.kids.items())
    )
    lits = tuple(sorted(m.lits.items(), key=lambda kv: kv[0]))
    head = (m.tag, m.uri) if with_uris else m.tag
    return (head, kids, lits)


def ref_parse_tuple(g, data):
    """The recursive definition of :meth:`Grammar.parse_tuple` (reference)."""
    if isinstance(data, str):
        return g.build(data)
    tag, kids, lits = data
    if isinstance(tag, tuple):
        tag = tag[0]
    sig = g.sigs[tag]
    kid_map = {l: ref_parse_tuple(g, k) for l, k in kids}
    lit_map = dict(lits)
    return g.build(
        tag,
        [kid_map[l] for l in sig.kid_links_for(len(kid_map))],
        [lit_map[l] for l in sig.lit_links],
    )


class TestTupleSnapshots:
    """The iterative ``to_tuple``/``parse_tuple`` give exactly what their
    recursive definitions give (deep trees: ``test_deep_trees.py``)."""

    def trees(self):
        import random

        from repro.adapters.pyast import parse_python

        from .util import random_exp

        rng = random.Random(17)
        yield from (random_exp(rng, depth=6) for _ in range(20))
        # a variadic body of 12 statements: links "10" and "11" sort before "2"
        yield parse_python("".join(f"x{i} = {i}\n" for i in range(12)) + "def f(a, *b): return (a, b)\n")

    def test_to_tuple_matches_the_recursive_definition(self):
        for t in self.trees():
            m = tnode_to_mtree(t)
            for with_uris in (False, True):
                assert t.to_tuple(with_uris) == ref_tnode_tuple(t, with_uris)
                assert m.to_tuple(with_uris) == ref_mnode_tuple(m.main, with_uris)

    def test_mnode_to_tuple_keeps_empty_slots(self):
        e = EXP
        m = tnode_to_mtree(e.Add(e.Num(1), e.Neg(e.Var("x"))))
        m.main.kids["e1"] = None
        assert m.to_tuple() == ref_mnode_tuple(m.main)
        assert m.to_tuple()[1][0] == ("e1", None)

    def test_parse_tuple_matches_the_recursive_definition(self):
        from .util import ExpLang

        for t in self.trees():
            if t.tag not in EXP.sigs:
                continue
            # two fresh grammars number their nodes from the same start,
            # so equal URIs mean the same fresh-URI order
            iterative, recursive = ExpLang().g, ExpLang().g
            for data in (t.to_tuple(), tnode_to_mtree(t).to_tuple()):
                got = iterative.parse_tuple(data)
                want = ref_parse_tuple(recursive, data)
                assert got.to_tuple(True) == want.to_tuple(True)
                assert got.tree_equal(t)


class TestGrammarDSL:
    def test_constructor_positional_and_keyword(self):
        e = EXP
        t1 = e.Add(e.Num(1), e.Num(2))
        t2 = e.Add(e1=e.Num(1), e2=e.Num(2))
        t3 = e.Add(e.Num(1), e2=e.Num(2))
        assert t1.tree_equal(t2) and t2.tree_equal(t3)

    def test_constructor_arity_errors(self):
        e = EXP
        with pytest.raises(SignatureError, match="missing"):
            e.Add(e.Num(1))
        with pytest.raises(SignatureError, match="at most"):
            e.Add(e.Num(1), e.Num(2), e.Num(3))
        with pytest.raises(SignatureError, match="duplicate"):
            e.Add(e.Num(1), e1=e.Num(2))
        with pytest.raises(SignatureError, match="unknown"):
            e.Add(e.Num(1), e.Num(2), bogus=1)

    def test_kid_sort_checking(self):
        g = Grammar()
        A = g.sort("A")
        B = g.sort("B")
        mk_a = g.constructor("MkA", A)
        need_b = g.constructor("NeedB", A, kids=[("x", B)])
        with pytest.raises(SignatureError, match="not <:"):
            need_b(mk_a())

    def test_literal_type_checking(self):
        with pytest.raises(SignatureError, match="not a Int"):
            EXP.Num("five")

    def test_subtyping_through_sort_hierarchy(self):
        g = Grammar()
        Exp = g.sort("Exp")
        Lit = g.sort("Lit", supers=[Exp])
        n = g.constructor("N", Lit, lits=[("n", LIT_INT)])
        plus = g.constructor("Plus", Exp, kids=[("l", Exp), ("r", Exp)])
        t = plus(n(1), n(2))  # Lit <: Exp accepted
        assert t.tag == "Plus"

    def test_conflicting_redeclaration(self):
        g = Grammar()
        S = g.sort("S")
        g.constructor("C", S, lits=[("v", LIT_INT)])
        with pytest.raises(SignatureError, match="conflicting"):
            g.constructor("C", S, lits=[("v", LIT_STR)])

    def test_list_encoding(self):
        g = Grammar()
        Exp = g.sort("Exp")
        num = g.constructor("Num", Exp, lits=[("n", LIT_INT)])
        lst = g.list_of(Exp)
        t = lst.build([num(1), num(2), num(3)])
        assert t.tag == "List[Exp]"
        assert t.kid_links == ("0", "1", "2")
        assert t.kid("1").lit("n") == 2
        elems = lst.elements(t)
        assert [x.lit("n") for x in elems] == [1, 2, 3]
        assert lst.elements(lst.build([])) == []
        # list sorts are interned
        assert g.list_of(Exp) is lst

    def test_cons_list_encoding(self):
        g = Grammar()
        Exp = g.sort("Exp")
        num = g.constructor("Num", Exp, lits=[("n", LIT_INT)])
        lst = g.cons_list_of(Exp)
        t = lst.build([num(1), num(2), num(3)])
        assert t.tag == "Cons[Exp]"
        elems = lst.elements(t)
        assert [x.lit("n") for x in elems] == [1, 2, 3]
        assert lst.elements(lst.build([])) == []
        assert g.cons_list_of(Exp) is lst

    def test_variadic_kid_sort_checking(self):
        from repro.core import SignatureError

        g = Grammar()
        A = g.sort("A")
        B = g.sort("B")
        mk_b = g.constructor("MkB", B)
        lst = g.list_of(A)
        with pytest.raises(SignatureError, match="not <:"):
            lst.build([mk_b()])

    def test_option_encoding(self):
        g = Grammar()
        Exp = g.sort("Exp")
        num = g.constructor("Num", Exp, lits=[("n", LIT_INT)])
        opt = g.option_of(Exp)
        some = opt.build(num(5))
        none = opt.build(None)
        assert opt.get(some).lit("n") == 5
        assert opt.get(none) is None
        assert g.option_of(Exp) is opt

    def test_diffable_decorator(self):
        g = Grammar()

        @g.diffable(sort="Exp")
        class Var:
            name: str

        @g.diffable(sort="Exp")
        class Plus:
            l: "Exp"
            r: "Exp"

        t = Plus(Var("x"), Var("y"))
        assert t.tag == "Plus"
        assert t.kid("l").lit("name") == "x"

    def test_parse_tuple_round_trip(self):
        e = EXP
        t = e.Add(e.Call(e.Num(1), "f"), e.Var("x"))
        rebuilt = e.g.parse_tuple(t.to_tuple())
        assert rebuilt.tree_equal(t)

    def test_build_by_tag(self):
        t = EXP.g.build("Num", [], [5])
        assert t.lit("n") == 5
