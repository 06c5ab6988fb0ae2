"""Tests for the truerace interference analysis: the effect system's
soundness (transitive loads/destroys from composites), the TR0xx
interference rules, canonical fresh-URI renaming, the wave schedule,
and the report renderers."""

from __future__ import annotations

import json

import pytest

from repro.analysis.race import (
    RACE_CODES,
    RaceReport,
    independent,
    interference,
    rename_fresh,
    render_race_json,
    render_race_sarif,
    render_race_text,
    schedule,
    script_effects,
)
from repro.analysis.race.effects import loaded_uris
from repro.core import (
    Attach,
    Detach,
    DiffOptions,
    EditScript,
    Insert,
    Load,
    Node,
    Remove,
    URIGen,
    Unload,
    Update,
    diff,
    tnode_to_mtree,
)

from .util import EXP


def make_base():
    base = EXP.Add(EXP.Num(1), EXP.Num(2))
    return base, base.kids[0], base.kids[1]


def effects(script):
    return script_effects(script)


class TestEffectSet:
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
        eff = effects(script)
        assert eff.slot_writes == {(base.uri, "e1")}
        assert eff.moves == {kid1.uri}
        assert eff.lit_writes == {kid2.uri}
        assert kid2.uri in eff.lit_reads  # updates observe old literals
        assert kid1.uri in eff.lit_reads  # unloads check the literals
        assert eff.destroys == {kid1.uri}
        assert eff.fresh == {fresh.uri}
        assert eff.touched == {base.uri, kid1.uri, kid2.uri}
        assert eff.mentions == {base.uri, kid1.uri, kid2.uri}

    def test_minimization_discounts_self_cancelling_noise(self):
        base, kid1, _ = make_base()
        noise = EditScript(
            [
                Detach(kid1.node, "e1", base.node),
                Attach(kid1.node, "e1", base.node),
            ]
        )
        raw = script_effects(noise, canonicalize=False)
        assert raw.slot_writes and raw.moves
        eff = effects(noise)
        assert eff.is_empty

    def test_composite_insert_contributes_every_nested_load(self):
        """Satellite regression: a composite ``Insert`` of a deep subtree
        must put EVERY transitively loaded node into ``fresh``, not just
        the top one — missing nested loads under-reports the allocation
        footprint and lets colliding batches through."""
        base, kid1, _ = make_base()
        # insert Neg(Num(5)): the differ emits loads bottom-up, so the
        # composite carries the Num's load nested before the Neg's
        gen = URIGen(start=500)
        num = Node("Num", gen.fresh())
        neg = Node("Neg", gen.fresh())
        script = EditScript(
            [
                Detach(kid1.node, "e1", base.node),
                Unload(kid1.node, (), (("n", 1),)),
                Load(num, (), (("n", 5),)),
                Insert(neg, (("e", num.uri),), (), "e1", base.node),
            ]
        )
        eff = script_effects(script, canonicalize=False)
        assert eff.fresh == {num.uri, neg.uri}

    def test_composite_remove_contributes_every_destroyed_node(self):
        """Satellite regression: removing a subtree destroys every node
        in it, transitively — not only the composite's top node."""
        outer = EXP.Add(EXP.Neg(EXP.Num(3)), EXP.Num(4))
        neg = outer.kids[0]
        num = neg.kids[0]
        script = EditScript(
            [
                Remove(neg.node, "e1", outer.node, (("e", num.uri),), ()),
                Unload(num.node, (), (("n", 3),)),
                Attach(Node("Num", outer.kids[1].uri), "e1", outer.node),
            ]
        )
        eff = script_effects(script, canonicalize=False)
        assert {neg.uri, num.uri} <= eff.destroys

    def test_loaded_uris_in_allocation_order(self):
        gen = URIGen(start=900)
        a, b = Node("Num", gen.fresh()), Node("Num", gen.fresh())
        script = EditScript(
            [Load(a, (), (("n", 1),)), Load(b, (), (("n", 2),))]
        )
        assert loaded_uris(script) == [a.uri, b.uri]


class TestInterference:
    def test_disjoint_updates_are_independent(self):
        _, kid1, kid2 = make_base()
        a = effects(EditScript([Update(kid1.node, (("n", 1),), (("n", 5),))]))
        b = effects(EditScript([Update(kid2.node, (("n", 2),), (("n", 6),))]))
        assert independent(a, b)
        assert interference(a, b) == []

    def test_slot_race(self):
        base, kid1, kid2 = make_base()
        a = EditScript(
            [
                Detach(kid1.node, "e1", base.node),
                Unload(kid1.node, (), (("n", 1),)),
                Attach(Node("Num", kid2.uri), "e1", base.node),
                Detach(kid2.node, "e2", base.node),
            ]
        )
        conflicts = interference(effects(a), effects(a))
        assert any(c.code == "TR001" for c in conflicts)

    def test_content_race(self):
        _, kid1, _ = make_base()
        a = effects(EditScript([Update(kid1.node, (("n", 1),), (("n", 5),))]))
        b = effects(EditScript([Update(kid1.node, (("n", 1),), (("n", 6),))]))
        conflicts = interference(a, b)
        assert [c.code for c in conflicts] == ["TR003"]
        assert conflicts[0].resource == (kid1.uri,)

    def test_destroy_use_race_is_symmetric(self):
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
            conflicts = interference(effects(x), effects(y))
            assert any(
                c.code == "TR004" and c.resource == (kid1.uri,)
                for c in conflicts
            )

    def test_fresh_collision_raw_vs_renamed(self):
        """TR005 fires on colliding allocations, and is discharged by the
        renaming contract (``assume_renamed=True``)."""
        base, kid1, kid2 = make_base()
        shared = Node("Num", 7777)
        a = EditScript(
            [
                Detach(kid1.node, "e1", base.node),
                Unload(kid1.node, (), (("n", 1),)),
                Insert(shared, (), (("n", 5),), "e1", base.node),
            ]
        )
        b = EditScript(
            [
                Detach(kid2.node, "e2", base.node),
                Unload(kid2.node, (), (("n", 2),)),
                Insert(shared, (), (("n", 6),), "e2", base.node),
            ]
        )
        ea, eb = effects(a), effects(b)
        conflicts = interference(ea, eb)
        assert any(c.code == "TR005" for c in conflicts)
        assert independent(ea, eb, assume_renamed=True)

    def test_fresh_alias_may_alias_conservatism(self):
        """TR006: one script allocates a URI the other treats as an
        ancestor node — independence cannot be proven."""
        base, kid1, kid2 = make_base()
        a = EditScript(
            [
                Detach(kid1.node, "e1", base.node),
                Unload(kid1.node, (), (("n", 1),)),
                Insert(Node("Num", kid2.uri + 100), (), (("n", 5),), "e1", base.node),
            ]
        )
        b = EditScript(
            [Update(Node("Num", kid2.uri + 100), (("n", 0),), (("n", 1),))]
        )
        conflicts = interference(effects(a), effects(b))
        assert any(c.code == "TR006" for c in conflicts)

    def test_nested_insert_overlap_despite_disjoint_slots(self):
        """Satellite regression: two scripts touching DISJOINT top-level
        slots whose nested inserts overlap in fresh-URI space must be
        flagged — before the transitivity fix the nested loads were
        invisible and the pair passed as independent."""
        base, kid1, kid2 = make_base()
        # both scripts insert Neg(Num(...)) trees whose nested loads draw
        # from the same URIGen(start=...) range — the real collision shape
        # of independently-generated scripts
        def inserting(kid, link, start):
            gen = URIGen(start=start)
            num = Node("Num", gen.fresh())
            neg = Node("Neg", gen.fresh())
            return EditScript(
                [
                    Detach(kid.node, link, base.node),
                    Unload(kid.node, (), (("n", int(kid.lits[0])),)),
                    Load(num, (), (("n", 5),)),
                    Insert(neg, (("e", num.uri),), (), link, base.node),
                ]
            )

        a = inserting(kid1, "e1", start=6000)
        b = inserting(kid2, "e2", start=6000)
        ea, eb = effects(a), effects(b)
        # disjoint ancestor slots...
        assert not (ea.slot_writes & eb.slot_writes)
        # ...but the nested allocations collide
        conflicts = interference(ea, eb)
        assert {c.code for c in conflicts} == {"TR005"}
        assert len(conflicts) == 2  # both the nested and the top load
        assert independent(ea, eb, assume_renamed=True)

    def test_codes_table_covers_all_emitted_codes(self):
        assert set(RACE_CODES) == {
            "TR001", "TR002", "TR003", "TR004", "TR005", "TR006"
        }


class TestRenameFresh:
    def _colliding_pair(self):
        """Two scripts diffed independently over the same base: their
        fresh ranges collide byte for byte (both start at size+1)."""
        base = EXP.Add(EXP.Num(1), EXP.Num(2))
        v1 = base.with_kids([EXP.Neg(base.kids[0]), base.kids[1]])
        v2 = base.with_kids([base.kids[0], EXP.Neg(base.kids[1])])
        size = base.size
        a, _ = diff(base, v1, DiffOptions(typecheck="none"), urigen=URIGen(start=size + 1))
        b, _ = diff(base, v2, DiffOptions(typecheck="none"), urigen=URIGen(start=size + 1))
        return base, a, b

    def test_collision_then_rename(self):
        base, a, b = self._colliding_pair()
        assert set(loaded_uris(a)) & set(loaded_uris(b))
        taken = set(range(1, base.size + 1))
        renamed, n = rename_fresh([a, b], taken, start=base.size + 1)
        assert n >= 1
        fresh_a = set(loaded_uris(renamed[0]))
        fresh_b = set(loaded_uris(renamed[1]))
        assert not (fresh_a & fresh_b)
        assert not (fresh_a | fresh_b) & set(range(1, base.size + 1))

    def test_renaming_is_deterministic(self):
        base, a, b = self._colliding_pair()
        r1, n1 = rename_fresh([a, b], set(range(1, base.size + 1)), start=base.size + 1)
        r2, n2 = rename_fresh([a, b], set(range(1, base.size + 1)), start=base.size + 1)
        assert n1 == n2
        for s1, s2 in zip(r1, r2):
            assert [str(e) for e in s1] == [str(e) for e in s2]

    def test_first_script_keeps_its_uris(self):
        base, a, b = self._colliding_pair()
        renamed, _ = rename_fresh([a, b], set(range(1, base.size + 1)), start=base.size + 1)
        assert [str(e) for e in renamed[0]] == [str(e) for e in a]

    def test_renamed_scripts_compose_on_one_tree(self):
        """The payoff: raw concatenation URI-conflicts, the renamed set
        folds cleanly and both inserts land."""
        base, a, b = self._colliding_pair()
        renamed, _ = rename_fresh([a, b], set(range(1, base.size + 1)), start=base.size + 1)
        mt = tnode_to_mtree(base)
        for script in renamed:
            mt.patch(script, atomic=True, sigs=EXP.sigs, verify=True)


class TestSchedule:
    def test_all_independent_is_one_wave(self):
        _, kid1, kid2 = make_base()
        scripts = [
            EditScript([Update(kid1.node, (("n", 1),), (("n", 5),))]),
            EditScript([Update(kid2.node, (("n", 2),), (("n", 6),))]),
        ]
        sch = schedule(scripts)
        assert sch.waves == [[0, 1]]
        assert sch.independent and sch.parallelism == 2.0

    def test_conflicting_scripts_serialize_in_input_order(self):
        _, kid1, _ = make_base()
        s = EditScript([Update(kid1.node, (("n", 1),), (("n", 5),))])
        sch = schedule([s, s, s])
        assert sch.waves == [[0], [1], [2]]
        assert [c.code for c in sch.conflicts] == ["TR003"] * 3
        assert sch.wave_of(2) == 2

    def test_mixed_batch_waves(self):
        _, kid1, kid2 = make_base()
        u1 = EditScript([Update(kid1.node, (("n", 1),), (("n", 5),))])
        u2 = EditScript([Update(kid2.node, (("n", 2),), (("n", 6),))])
        sch = schedule([u1, u2, u1])
        assert sch.waves == [[0, 1], [2]]
        assert sch.parallelism == pytest.approx(1.5)

    def test_precomputed_effects_must_match_arity(self):
        _, kid1, _ = make_base()
        s = EditScript([Update(kid1.node, (("n", 1),), (("n", 5),))])
        with pytest.raises(ValueError):
            schedule([s, s], effects=[script_effects(s)])

    def test_empty_sequence(self):
        sch = schedule([])
        assert sch.waves == [] and sch.parallelism == 0.0


class TestReports:
    def _report(self):
        _, kid1, kid2 = make_base()
        u1 = EditScript([Update(kid1.node, (("n", 1),), (("n", 5),))])
        u2 = EditScript([Update(kid2.node, (("n", 2),), (("n", 6),))])
        sch = schedule([u1, u2, u1])
        return RaceReport(sch, labels=["alpha", "beta", "gamma"], uri="batch-7")

    def test_text_names_scripts_and_waves(self):
        text = render_race_text(self._report())
        assert "alpha vs gamma" in text
        assert "[TR003]" in text
        assert "wave 0: alpha, beta" in text
        assert "wave 1: gamma" in text

    def test_json_is_deterministic_and_structured(self):
        report = self._report()
        doc = json.loads(render_race_json(report))
        assert doc["independent"] is False
        assert doc["counts"] == {"TR003": 1}
        assert doc["schedule"]["waves"] == [[0, 1], [2]]
        assert render_race_json(report) == render_race_json(report)

    def test_sarif_driver_and_results(self):
        log = json.loads(render_race_sarif([self._report()]))
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "truerace"
        assert [r["id"] for r in run["tool"]["driver"]["rules"]] == ["TR003"]
        (result,) = run["results"]
        assert result["ruleId"] == "TR003"
        assert result["locations"][0]["physicalLocation"]["region"]["startLine"] == 3
        assert result["properties"]["left"] == 0

    def test_sarif_empty_reports(self):
        log = json.loads(render_race_sarif([]))
        assert log["runs"][0]["results"] == []


class TestRaceCLI:
    BASE = "def f(x):\n    return x + 1\n\ndef g(y):\n    return y * 2\n"

    @pytest.fixture
    def script_files(self, tmp_path, capsys):
        from repro.__main__ import main

        base = tmp_path / "base.py"
        base.write_text(self.BASE)
        paths = []
        for name, repl in (("s1", ("x + 1", "x + 100")), ("s2", ("y * 2", "y * 200"))):
            after = tmp_path / f"{name}.py"
            after.write_text(self.BASE.replace(*repl))
            assert main(["diff", str(base), str(after), "--json"]) == 0
            path = tmp_path / f"{name}.json"
            path.write_text(capsys.readouterr().out)
            paths.append(path)
        return paths

    def test_independent_scripts_exit_zero(self, script_files, capsys):
        from repro.__main__ import main

        s1, s2 = script_files
        assert main(["race", str(s1), str(s2)]) == 0
        out = capsys.readouterr().out
        assert "0 conflict(s)" in out and "wave 0" in out

    def test_interference_exits_one_and_names_the_code(self, script_files, capsys):
        from repro.__main__ import main

        s1, _ = script_files
        assert main(["race", str(s1), str(s1)]) == 1
        out = capsys.readouterr().out
        assert "[TR003]" in out and "wave 1" in out

    def test_json_and_sarif_formats(self, script_files, tmp_path, capsys):
        from repro.__main__ import main

        s1, s2 = script_files
        assert main(["race", str(s1), str(s2), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["independent"] is True
        out = tmp_path / "race.sarif"
        assert main(["race", str(s1), str(s1), "--format", "sarif",
                     "--out", str(out)]) == 1
        log = json.loads(out.read_text())
        assert log["runs"][0]["tool"]["driver"]["name"] == "truerace"
        assert log["runs"][0]["results"]

    def test_unreadable_script_exits_two(self, tmp_path):
        from repro.__main__ import main

        assert main(["race", str(tmp_path / "nope.json")]) == 2


@pytest.fixture(scope="module")
def race_report(tmp_path_factory):
    """One run of the race suite through the campaign CLI at its CI seed:
    the exit status, the report's rows, and the output directory."""
    from repro.campaign import main

    out = tmp_path_factory.mktemp("race")
    rc = main(["race", "--seed", "20260808", "--out", str(out)])
    lines = (out / "race.jsonl").read_text("utf8").splitlines()
    return rc, [json.loads(line) for line in lines], out


class TestRaceCampaign:
    def test_campaign_meets_zero_false_independence_gate(self, race_report):
        """The CI run: every pair called independent passes the
        order-swap differential oracle and wave composition equals the
        sequential fold."""
        rc, rows, _ = race_report
        assert rc == 0
        assert all(not r["problems"] for r in rows[:-1])
        totals = next(r for r in rows if r.get("check") == "conflicts")
        assert totals["cases"] == 6 and totals["scripts"] == 24
        assert totals["pairs"] == 36
        assert 0 < totals["independent"] < totals["pairs"]
        # independently-diffed variants collide in fresh-URI space: raw
        # mode must see TR005 somewhere across the corpus
        assert totals["by_code"].get("TR005", 0) > 0

    def test_campaign_cli_writes_artifacts(self, race_report):
        _, rows, out = race_report
        assert rows[-1]["summary"]["ok"] is True
        log = json.loads((out / "race.sarif").read_text("utf8"))
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["tool"]["driver"]["name"] == "truerace"
