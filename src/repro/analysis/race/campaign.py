"""The ``race`` suite of :mod:`repro.campaign`: zero false "independent"
verdicts.

The interference analysis is only useful if its *negative* answers can
be trusted — calling two scripts independent licenses the server to run
them concurrently, so a false independent is a silent wrong answer
waiting to happen.  This suite hammers exactly that claim over the
synthetic corpus.  For every case it generates one base module plus
several independently-diffed variants (each differ drawing fresh URIs
from ``URIGen(start=size+1)``, the collision shape real batches
exhibit), then checks:

1. **Sanity** (``sanity``).  Every generated script applies cleanly to
   its own base (anything else is a corpus bug, not an analysis
   finding).
2. **Pairwise differential oracle** (``independence``).  Every pair the
   raw-mode analysis (``assume_renamed=False``) calls independent must
   commute concretely: applying the two scripts in either order must
   yield byte-identical tree fingerprints (a rejection is a result too,
   and must reproduce in both orders).  Any divergence is a false
   independent — the gate is **zero**.
3. **Schedule composition** (``schedule``).  The renamed script set's
   wave schedule (``assume_renamed=True`` after
   :func:`~repro.analysis.race.rename_fresh`) is executed wave by wave
   and must produce the same per-script verdicts and the same final
   fingerprint as the plain sequential fold in input order — the
   property ``/apply-batch`` stakes its parallel path on.

A last ``conflicts`` row totals the conflicts by code and requires a
``TR005`` fresh-URI collision somewhere: without one, the variants do
not collide the way real batches do and the oracle proves little.  The
per-case conflict reports become the suite's SARIF artifact::

    PYTHONPATH=src python -m repro.campaign race --seed 20260808
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterator

from repro.core import DiffOptions, TNode, URIGen, diff, tnode_to_mtree
from repro.core.edits import EditScript

from .effects import rename_fresh, script_effects
from .interference import Schedule, schedule
from .report import RaceReport
from .report import render_race_sarif as render_sarif  # renders the rows' reports

#: base modules
CASES = 6
#: independently-diffed variants (= scripts) per base module
SCRIPTS_PER_CASE = 4


def _cases(seed: int) -> Iterator[tuple[int, TNode, list[EditScript]]]:
    """Per case: a canonical base tree plus independently-diffed scripts."""
    from repro.adapters.pyast import parse_python
    from repro.corpus import seeded_cases

    for case_i, (before, afters) in enumerate(
        seeded_cases(seed, CASES, variants=SCRIPTS_PER_CASE, edits=(1, 4))
    ):
        base = parse_python(before).with_canonical_uris()
        # each variant is diffed independently against the same base,
        # with the differ's standard fresh numbering — so the fresh
        # ranges of different scripts collide, as in real batches
        scripts = [
            diff(
                base,
                parse_python(after),
                DiffOptions(typecheck="none"),
                urigen=URIGen(start=base.size + 1),
            )[0]
            for after in afters
        ]
        yield case_i, base, scripts


def _fold_fingerprint(
    base: TNode, scripts: list[EditScript], order: list[int]
) -> tuple[str, tuple[tuple[Any, ...], ...]]:
    """Apply ``scripts`` (in ``order``) transactionally to a scratch copy
    of ``base``; returns the final tree fingerprint and the per-script
    verdicts in the given order."""
    from repro.core import PatchError
    from repro.robustness import tree_fingerprint

    mtree = tnode_to_mtree(base)
    verdicts: list[tuple[Any, ...]] = []
    for i in order:
        try:
            mtree.patch(scripts[i], atomic=True, sigs=base.sigs, verify=True)
        except PatchError as exc:
            verdicts.append((i, "rejected", type(exc).__name__))
        else:
            verdicts.append((i, "applied"))
    return tree_fingerprint(mtree), tuple(verdicts)


def _check_pairwise(
    base: TNode, scripts: list[EditScript], sch: Schedule
) -> dict[str, Any]:
    """The zero-false-independence gate: both orders of every pair the
    raw analysis called independent must agree byte for byte."""
    conflicting = {(c.left, c.right) for c in sch.conflicts}
    n = len(scripts)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    independent = [p for p in pairs if p not in conflicting]
    problems: list[str] = []
    for i, j in independent:
        fp_ij, v_ij = _fold_fingerprint(base, scripts, [i, j])
        fp_ji, v_ji = _fold_fingerprint(base, scripts, [j, i])
        same_verdicts = {v[0]: v[1:] for v in v_ij} == {
            v[0]: v[1:] for v in v_ji
        }
        if fp_ij != fp_ji or not same_verdicts:
            problems.append(
                f"false independent: scripts #{i} and #{j} were called "
                f"independent but orders diverge "
                f"({fp_ij[:12]} vs {fp_ji[:12]}; {v_ij} vs {v_ji})"
            )
    return {
        "pairs": len(pairs),
        "independent": len(independent),
        "problems": problems,
    }


def _check_schedule_composition(
    base: TNode, scripts: list[EditScript]
) -> dict[str, Any]:
    """Renamed wave execution must equal the sequential fold — the
    property the server's parallel batch path relies on."""
    renamed, _ = rename_fresh(
        list(scripts), set(range(1, base.size + 1)), start=base.size + 1
    )
    sch = schedule(renamed, assume_renamed=True)
    wave_order = [i for wave in sch.waves for i in wave]
    fp_wave, v_wave = _fold_fingerprint(base, renamed, wave_order)
    fp_seq, v_seq = _fold_fingerprint(base, renamed, list(range(len(renamed))))
    wave_verdicts = {v[0]: v[1:] for v in v_wave}
    seq_verdicts = {v[0]: v[1:] for v in v_seq}
    problems: list[str] = []
    if fp_wave != fp_seq or wave_verdicts != seq_verdicts:
        problems.append(
            f"schedule divergence: wave execution {fp_wave[:12]} (waves "
            f"{sch.waves}) != sequential fold {fp_seq[:12]}"
        )
    return {"waves": sch.waves, "problems": problems}


def checks(seed: int, workdir: Path) -> Iterator[dict[str, Any]]:
    """Per case a ``sanity``, an ``independence`` and a ``schedule``
    row; then the ``conflicts`` row."""
    from repro.core import PatchError

    totals = {"cases": 0, "scripts": 0, "pairs": 0, "independent": 0}
    conflict_counts: dict[str, int] = {}
    for case_i, base, scripts in _cases(seed):
        totals["cases"] += 1
        totals["scripts"] += len(scripts)

        # sanity: every script applies to its own base
        invalid: list[str] = []
        for k, script in enumerate(scripts):
            mtree = tnode_to_mtree(base)
            try:
                mtree.patch(script, atomic=True, sigs=base.sigs, verify=True)
            except PatchError as exc:
                invalid.append(f"invalid script: #{k} rejected by its base: {exc}")
        yield {"check": "sanity", "case": case_i, "problems": invalid}

        # raw-mode analysis: what may run concurrently WITHOUT renaming
        sch = schedule(scripts, effects=[script_effects(s) for s in scripts])
        for c in sch.conflicts:
            conflict_counts[c.code] = conflict_counts.get(c.code, 0) + 1
        pairwise = _check_pairwise(base, scripts, sch)
        totals["pairs"] += pairwise["pairs"]
        totals["independent"] += pairwise["independent"]
        yield {
            "check": "independence",
            "case": case_i,
            **pairwise,
            "report": RaceReport(
                sch,
                labels=[f"case{case_i}/script{k}" for k in range(len(scripts))],
                uri=f"case{case_i}",
            ),
        }

        # wave composition under the renaming discipline
        yield {
            "check": "schedule",
            "case": case_i,
            **_check_schedule_composition(base, scripts),
        }

    yield {
        "check": "conflicts",
        **totals,
        "by_code": dict(sorted(conflict_counts.items())),
        "problems": []
        if conflict_counts.get("TR005")
        else ["no TR005 fresh-URI collision: the variants never collided"],
    }
