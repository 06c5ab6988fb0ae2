"""The ``fault`` suite of :mod:`repro.campaign`: seeded fault injection
over real diff scripts.

The suite builds document pairs from the synthetic Python corpus, diffs
them, and then attacks each application three ways:

1. **baseline** — the clean script must commit atomically and the
   patched tree must pass the integrity verifier;
2. **corruption** — seeded :func:`~repro.robustness.faults.corrupt_script`
   variants are applied atomically; whatever the outcome, an invariant
   must hold: a *rejected* or *aborted* application leaves the tree
   fingerprint-identical to the pre-patch tree, and an *applied* one
   produces a tree that passes :func:`~repro.robustness.verify_tree`;
3. **injection** — :func:`~repro.robustness.faults.inject_fault_at`
   forces a crash before each sampled primitive edit of the *valid*
   script; the abort must roll back to the identical fingerprint.

Each scenario is one check; a sound implementation violates none.  A
last ``outcomes`` check requires all three outcomes (applied, rejected,
aborted) to occur, so the campaign exercises every path it claims to.
Every scenario is derived from the seed, so reports are replayable::

    PYTHONPATH=src python -m repro.campaign fault --seed 20260806
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

from repro.core import EditScript, diff, tnode_to_mtree
from repro.core.mtree import MTree, PatchError
from repro.core.signature import SignatureRegistry

from .faults import inject_fault_at, seeded_corruptions
from .integrity import check_tree, tree_fingerprint
from .transaction import PreflightError

#: document pairs
CASES = 10
#: corrupted applications per (case, corruption kind)
PER_KIND = 8
#: injected crash points per case (sampled over the script length)
INJECTIONS = 10


def _run_one(
    proto: MTree,
    script: EditScript,
    sigs: SignatureRegistry,
    *,
    fault_hook: Optional[Callable] = None,
) -> tuple[str, str, list[str]]:
    """Apply once atomically; returns (outcome, error, integrity_violations).

    Outcome is ``applied`` / ``rejected`` (pre-flight) / ``aborted``
    (mid-application rollback).  The invariants are checked here: a
    non-applied outcome must leave the tree fingerprint-identical, an
    applied outcome must yield a verifiable tree.
    """
    tree = proto.copy()
    before = tree_fingerprint(tree)
    problems: list[str] = []
    try:
        tree.patch(script, atomic=True, sigs=sigs, fault_hook=fault_hook)
    except PreflightError as exc:
        if tree_fingerprint(tree) != before:
            problems.append("pre-flight rejection mutated the tree")
        return "rejected", str(exc), problems
    except PatchError as exc:
        if not exc.rolled_back:
            problems.append("aborted application did not report rollback")
        if tree_fingerprint(tree) != before:
            problems.append("rollback diverged from the pre-patch tree")
        return "aborted", str(exc), problems
    problems.extend(check_tree(tree, sigs))
    return "applied", "", problems


def checks(seed: int, workdir: Path) -> Iterator[dict[str, Any]]:
    """One row per scenario, then the ``outcomes`` row."""
    from repro.adapters.pyast import parse_python
    from repro.corpus import seeded_cases

    outcomes = dict.fromkeys(("applied", "rejected", "aborted"), 0)

    def row(case: int, mode: str, detail: str, outcome: str, error: str,
            problems: list[str]) -> dict[str, Any]:
        outcomes[outcome] += 1
        return {"check": mode, "case": case, "detail": detail,
                "outcome": outcome, "error": error, "problems": problems}

    # parse every case before diffing any: the parser numbers nodes from
    # one process-wide counter, so this order keeps the URIs replayable
    cases = [
        (parse_python(before), parse_python(after))
        for before, (after,) in seeded_cases(seed, CASES)
    ]
    for case_i, (src, dst) in enumerate(cases):
        sigs = src.sigs
        script, _ = diff(src, dst)
        proto = tnode_to_mtree(src)
        n_prims = sum(1 for _ in script.primitives())

        # 1. baseline: the clean script must commit and verify
        outcome, error, problems = _run_one(proto, script, sigs)
        if outcome != "applied":
            problems = problems + [f"valid script did not apply: {error}"]
        yield row(case_i, "baseline", f"{n_prims} primitive edits", outcome,
                  error, problems)

        # 2. seeded corruptions, per kind
        for _, corruption in seeded_corruptions(script, seed, case_i, PER_KIND):
            outcome, error, problems = _run_one(proto, corruption.script, sigs)
            yield row(case_i, f"corrupt:{corruption.kind}", corruption.detail,
                      outcome, error, problems)

        # 3. injected crashes across the valid script
        if n_prims:
            rng = random.Random(seed ^ (case_i * 7919))
            points = sorted(rng.sample(range(n_prims), min(INJECTIONS, n_prims)))
            for k in points:
                outcome, error, problems = _run_one(
                    proto, script, sigs, fault_hook=inject_fault_at(k)
                )
                if outcome != "aborted":
                    problems = problems + [
                        f"injected fault at #{k} did not abort (outcome {outcome})"
                    ]
                yield row(case_i, "inject", f"crash before edit #{k}", outcome,
                          error, problems)

    yield {
        "check": "outcomes",
        "scenarios": sum(outcomes.values()),
        **outcomes,
        "problems": [f"no scenario was {o}" for o, n in outcomes.items() if not n],
    }
