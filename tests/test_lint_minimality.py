"""The minimality property: truediff's output is lint-clean.

Conjecture 4.2 says emitted scripts are well-typed (zero TL00x); the
paper's conciseness claim (Section 5/6) says they carry no removable
redundancy — which truelint makes checkable: zero TL01x findings and a
minimizer fixpoint.  These properties run over the frozen benchmark
corpus, the synthetic robustness corpus, and random Exp pairs, and CI
gates on them: any redundancy finding on a differ-emitted script is a
conciseness regression."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import diff
from repro.analysis import REDUNDANCY_CODES, lint_script, minimize

from .util import EXP, exp_trees, mutate_exp, random_exp


def assert_lint_clean(script, sigs, context):
    report = lint_script(script, sigs)
    redundant = [d for d in report.diagnostics if d.code in REDUNDANCY_CODES]
    assert not redundant, (
        f"{context}: truediff emitted a redundant script: "
        + "; ".join(str(d) for d in redundant)
    )
    assert report.clean, (
        f"{context}: " + "; ".join(str(d) for d in report.diagnostics)
    )


class TestFrozenBenchmarkCorpus:
    def test_every_version_step_is_lint_clean_and_minimal(self):
        from repro.bench.baseline import build_corpus

        pairs = 0
        for m, versions in enumerate(build_corpus()):
            for k in range(len(versions) - 1):
                src, dst = versions[k], versions[k + 1]
                script, _ = diff(src, dst)
                assert_lint_clean(script, src.sigs, f"mod{m} v{k}->v{k + 1}")
                result = minimize(script)
                assert not result.changed, (
                    f"mod{m} v{k}->v{k + 1}: minimizer removed "
                    f"{result.original_edits - result.minimized_edits} edits"
                )
                pairs += 1
        assert pairs > 0


class TestSyntheticCorpus:
    def test_robustness_corpus_scripts_are_lint_clean(self):
        from repro.adapters.pyast import parse_python
        from repro.corpus import seeded_cases

        for i, (before, (after,)) in enumerate(seeded_cases(20260806, 6)):
            src = parse_python(before)
            script, _ = diff(src, parse_python(after))
            assert_lint_clean(script, src.sigs, f"case {i}")
            assert not minimize(script).changed


class TestRandomExpPairs:
    @given(exp_trees(), exp_trees())
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_pairs_lint_clean(self, src, dst):
        script, _ = diff(src, dst)
        assert_lint_clean(script, EXP.sigs, "hypothesis pair")

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_mutation_pairs_are_minimizer_fixpoints(self, seed):
        rng = random.Random(seed)
        src = random_exp(rng, 4)
        dst = mutate_exp(rng, src, rng.randint(1, 5))
        script, _ = diff(src, dst)
        assert_lint_clean(script, EXP.sigs, f"seed {seed}")
        assert not minimize(script).changed
