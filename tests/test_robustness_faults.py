"""Tests for the fault-injection layer: the script corruptor, the
replace-root fallback, and the seeded ``fault`` suite run through
``python -m repro.campaign`` (the acceptance bar: hundreds of
corruption/abort scenarios, zero rollback divergence, zero
accepted-but-unverifiable trees)."""

from __future__ import annotations

import json
import random

import pytest

from repro.core import EditScript, diff, tnode_to_mtree
from repro.core.edits import map_edit_uris
from repro.robustness import (
    CORRUPTION_KINDS,
    check_tree,
    corrupt_script,
    replace_root_script,
    tree_fingerprint,
)
from .util import EXP, mutate_exp, random_exp


def sample_script() -> EditScript:
    rng = random.Random(11)
    a = random_exp(rng, 4)
    b = mutate_exp(rng, a, 3)
    script, _ = diff(a, b)
    return script


class TestCorruptor:
    def test_deterministic_per_seed(self):
        script = sample_script()
        for kind in CORRUPTION_KINDS:
            c1 = corrupt_script(script, random.Random(42), kind)
            c2 = corrupt_script(script, random.Random(42), kind)
            assert c1 == c2
        c3 = corrupt_script(script, random.Random(43), "drop")
        c4 = corrupt_script(script, random.Random(44), "drop")
        # different seeds are allowed to coincide on tiny scripts, but the
        # corruptor must not depend on global random state
        assert (c3 == c4) == (c3.detail == c4.detail)

    def test_drop_removes_one_edit(self):
        script = sample_script()
        n = sum(1 for _ in script.primitives())
        c = corrupt_script(script, random.Random(0), "drop")
        assert sum(1 for _ in c.script.primitives()) == n - 1

    def test_duplicate_adds_one_edit(self):
        script = sample_script()
        n = sum(1 for _ in script.primitives())
        c = corrupt_script(script, random.Random(0), "duplicate")
        assert sum(1 for _ in c.script.primitives()) == n + 1

    def test_truncate_shortens(self):
        script = sample_script()
        n = sum(1 for _ in script.primitives())
        c = corrupt_script(script, random.Random(5), "truncate")
        assert sum(1 for _ in c.script.primitives()) < n

    def test_swap_uris_is_an_involution(self):
        script = sample_script()
        c = corrupt_script(script, random.Random(3), "swap_uris")
        again = corrupt_script(c.script, random.Random(3), "swap_uris")
        assert again.script == EditScript(list(script.primitives()))

    def test_retarget_changes_a_tag(self):
        script = sample_script()
        c = corrupt_script(script, random.Random(1), "retarget_sort")
        assert "retagged" in c.detail
        assert c.script != EditScript(list(script.primitives()))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown corruption kind"):
            corrupt_script(sample_script(), random.Random(0), "scramble")

    def test_empty_script_survives_all_kinds(self):
        empty = EditScript()
        for kind in CORRUPTION_KINDS:
            c = corrupt_script(empty, random.Random(0), kind)
            assert c.script.is_empty

    def test_map_edit_uris_identity(self):
        script = sample_script()
        for edit in script:
            assert map_edit_uris(edit, lambda u: u) == edit


class TestReplaceRootFallback:
    def test_fallback_script_is_well_typed_and_correct(self):
        from repro.core import assert_well_typed

        rng = random.Random(23)
        for _ in range(10):
            a = random_exp(rng, 4)
            b = random_exp(rng, 4)
            script = replace_root_script(a, b)
            assert_well_typed(a.sigs, script)
            mt = tnode_to_mtree(a)
            mt.patch(script, atomic=True, sigs=a.sigs, verify=True)
            assert mt.structure_equals(tnode_to_mtree(b))

    def test_fallback_on_python_sources(self):
        from repro.adapters.pyast import parse_python

        a = parse_python("def f(x):\n    return x + 1\n")
        b = parse_python("class C:\n    y = 2\n")
        script = replace_root_script(a, b)
        mt = tnode_to_mtree(a)
        mt.patch(script, atomic=True, sigs=a.sigs, verify=True)
        assert mt.structure_equals(tnode_to_mtree(b))

    def test_fallback_cost_is_linear_not_concise(self):
        a = random_exp(random.Random(1), 5)
        b = random_exp(random.Random(2), 5)
        script = replace_root_script(a, b)
        # every node of both trees appears in the script (plus detach/attach,
        # minus the two edits merged into composites)
        assert len(script) == a.size + b.size


@pytest.fixture(scope="module")
def fault_report(tmp_path_factory):
    """One run of the fault suite through the campaign CLI at its CI seed:
    the exit status and the report's rows."""
    from repro.campaign import main

    out = tmp_path_factory.mktemp("fault")
    rc = main(["fault", "--seed", "20260806", "--out", str(out)])
    lines = (out / "fault.jsonl").read_text("utf8").splitlines()
    return rc, [json.loads(line) for line in lines]


class TestCampaign:
    def test_exp_scenarios_hold_invariants(self):
        """Quick Exp-language campaign equivalent: every corruption either
        rejects/aborts (fingerprint preserved) or applies (tree verifies)."""
        rng = random.Random(99)
        scenarios = violations = 0
        for case in range(6):
            a = random_exp(rng, 4)
            b = mutate_exp(rng, a, 3)
            script, _ = diff(a, b)
            proto = tnode_to_mtree(a)
            before = tree_fingerprint(proto)
            for kind in CORRUPTION_KINDS:
                for rep in range(4):
                    c = corrupt_script(
                        script, random.Random(case * 100 + rep), kind
                    )
                    t = proto.copy()
                    scenarios += 1
                    try:
                        t.patch(c.script, atomic=True, sigs=EXP.sigs)
                    except Exception:
                        if tree_fingerprint(t) != before:
                            violations += 1
                    else:
                        if check_tree(t, EXP.sigs):
                            violations += 1
        assert scenarios == 6 * len(CORRUPTION_KINDS) * 4
        assert violations == 0

    def test_full_campaign_meets_acceptance_bar(self, fault_report):
        """The acceptance bar, at the CI seed through the campaign CLI:
        >= 500 seeded corruption/abort scenarios with zero rollback
        divergence and zero accepted-but-unverifiable cases, on real
        Python diff scripts."""
        rc, rows = fault_report
        assert rc == 0
        assert all(not r["problems"] for r in rows[:-1])
        outcomes = next(r for r in rows if r.get("check") == "outcomes")
        assert outcomes["scenarios"] >= 500
        # all three outcome classes must actually be exercised
        assert outcomes["applied"] > 0
        assert outcomes["rejected"] > 0
        assert outcomes["aborted"] > 0

    def test_campaign_rows_are_emitted(self, fault_report):
        _, rows = fault_report
        *checks, last = rows
        scenarios = [r for r in checks if r["check"] != "outcomes"]
        assert len(scenarios) == checks[-1]["scenarios"]
        assert all(
            {"check", "case", "detail", "outcome", "error", "problems"}
            <= set(r)
            for r in scenarios
        )
        assert last["summary"]["checks"] == len(checks)
        assert last["summary"]["ok"] is True
