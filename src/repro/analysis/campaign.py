"""The ``lint`` suite of :mod:`repro.campaign`: lint corrupted scripts,
gate on detection.

The ``fault`` suite (:mod:`repro.robustness.harness`) proves the
*runtime* defences catch corrupted scripts; this suite proves the
*static* analyzer catches them **before any tree is touched**.  For every
corpus case it:

1. diffs the (source, target) pair and asserts the truediff-emitted
   script lints **clean** — zero findings.  Any finding on a valid script
   is a false positive and fails the check;
2. applies every seeded corruption kind from
   :data:`~repro.robustness.faults.CORRUPTION_KINDS` and lints the
   corrupted script from the scripts-only view (no tree).  The last
   check, ``coverage``, requires every corruption *class* to be flagged
   at least once across its samples — some individual corruptions are
   statically invisible (dropping a lone ``Update`` leaves a well-typed
   script), which is why the gate is per class, not per sample;
3. minimizes the valid script and re-validates equivalence with the
   differential oracle (:func:`~repro.analysis.minimize.patch_equivalent`)
   against the concrete source tree.

Findings over the corrupted corpus become the suite's SARIF artifact::

    PYTHONPATH=src python -m repro.campaign lint --seed 20260806
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterator

from repro.core import diff, tnode_to_mtree
from repro.robustness.faults import CORRUPTION_KINDS, seeded_corruptions

from .diagnostics import render_sarif  # renders the rows' reports as SARIF
from .linter import lint_script
from .minimize import minimize, patch_equivalent

#: document pairs
CASES = 8
#: corrupted scripts per (case, corruption kind)
PER_KIND = 4


def checks(seed: int, workdir: Path) -> Iterator[dict[str, Any]]:
    """Per case a ``valid``, one ``corrupt:<kind>`` per corrupted script
    and a ``minimize`` row; then the ``coverage`` row."""
    from repro.adapters.pyast import parse_python
    from repro.corpus import seeded_cases

    flagged = dict.fromkeys(CORRUPTION_KINDS, 0)
    missed = dict.fromkeys(CORRUPTION_KINDS, 0)
    # parse every case before diffing any, as the fault suite does
    cases = [
        (parse_python(before), parse_python(after))
        for before, (after,) in seeded_cases(seed, CASES)
    ]
    for case_i, (src, dst) in enumerate(cases):
        sigs = src.sigs
        script, _ = diff(src, dst)

        # 1. valid scripts must be lint-clean: zero false positives
        clean = lint_script(script, sigs, uri=f"case{case_i}/valid")
        yield {
            "check": "valid",
            "case": case_i,
            "problems": [f"false positive: {d}" for d in clean.diagnostics],
        }

        # 2. corrupted scripts, linted with no tree in hand
        for rep, corruption in seeded_corruptions(script, seed, case_i, PER_KIND):
            kind = corruption.kind
            report = lint_script(
                corruption.script, sigs, uri=f"case{case_i}/corrupt-{kind}-{rep}"
            )
            row: dict[str, Any] = {
                "check": f"corrupt:{kind}",
                "case": case_i,
                "detail": corruption.detail,
                "findings": len(report.diagnostics),
                "problems": [],
            }
            if report.diagnostics:
                flagged[kind] += 1
                row["report"] = report
            else:
                missed[kind] += 1
            yield row

        # 3. minimality: the normal form must patch-agree with the original
        minimized = minimize(script)
        divergence = patch_equivalent(
            script, minimized.script, [tnode_to_mtree(src)], sigs
        )
        yield {
            "check": "minimize",
            "case": case_i,
            "problems": [] if divergence is None else [f"oracle: {divergence}"],
        }

    yield {
        "check": "coverage",
        "flagged": flagged,
        "missed": missed,
        "problems": [
            f"corruption class {k} was never flagged"
            for k in CORRUPTION_KINDS
            if not flagged[k]
        ],
    }
