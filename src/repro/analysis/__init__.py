"""truelint: static analysis, linting, and minimization of edit scripts.

Everything in this package works on the *script alone* — a
:class:`~repro.core.edits.EditScript` plus a
:class:`~repro.core.signature.SignatureRegistry` — with no tree in hand.
That is the defining constraint: these are the checks a relay, a patch
registry, or a CI gate can run on wire scripts before any tree is
touched.

Layers, bottom up:

* :mod:`~repro.analysis.diagnostics` — findings (stable ``TLxxx`` codes,
  severities, spans, fix-its) and the text/JSON/SARIF renderers;
* :mod:`~repro.analysis.abstract` — the abstract interpreter over the
  linear ``(R • S)`` state of Figure 3, reporting type errors with
  recovery instead of failing fast;
* :mod:`~repro.analysis.rules` — semantic lint rules over script
  dataflow (TL010–TL014), each finding paired with a machine rewrite;
* :mod:`~repro.analysis.minimize` — the canonicalizer applying those
  rewrites to a fixpoint, plus the differential patch-equivalence oracle;
* :mod:`~repro.analysis.commute` — script-pair commutation analysis (the
  precise merge precheck :func:`repro.core.merge_scripts` uses);
* :mod:`~repro.analysis.linter` — :func:`lint_script`, the orchestrating
  entry point behind ``repro lint``;
* :mod:`~repro.analysis.campaign` — the ``lint`` suite of
  :mod:`repro.campaign`, linting corrupted scripts and gating on
  per-corruption-class detection;
* :mod:`~repro.analysis.race` — truerace: the read/write effect system,
  pairwise interference analysis (stable ``TR0xx`` codes), wave
  scheduling for concurrent application, and its differential ``race``
  suite (:mod:`~repro.analysis.race.campaign`).
"""

from .abstract import AbstractResult, interpret
from .commute import commute_conflicts, commutes
from .diagnostics import (
    CODES,
    Diagnostic,
    Fix,
    LINT_DEAD_LOAD_UNLOAD,
    LINT_REDUNDANT_DETACH_ATTACH,
    LINT_SHADOWED_UPDATE,
    LINT_TRANSIENT_ATTACH,
    LINT_UNREFERENCED_LOAD,
    LintReport,
    REDUNDANCY_CODES,
    SEVERITIES,
    render_json,
    render_sarif,
    render_text,
)
from .linter import lint_script
from .race import (
    EffectSet,
    RACE_CODES,
    RaceConflict,
    RaceReport,
    Schedule,
    independent,
    interference,
    rename_fresh,
    render_race_json,
    render_race_sarif,
    render_race_text,
    schedule,
    script_effects,
)
from .minimize import (
    FIXABLE_CODES,
    MinimizeResult,
    minimize,
    patch_equivalent,
)
from .rules import run_rules

__all__ = [
    "AbstractResult",
    "CODES",
    "Diagnostic",
    "EffectSet",
    "FIXABLE_CODES",
    "Fix",
    "RACE_CODES",
    "RaceConflict",
    "RaceReport",
    "Schedule",
    "LINT_DEAD_LOAD_UNLOAD",
    "LINT_REDUNDANT_DETACH_ATTACH",
    "LINT_SHADOWED_UPDATE",
    "LINT_TRANSIENT_ATTACH",
    "LINT_UNREFERENCED_LOAD",
    "LintReport",
    "MinimizeResult",
    "REDUNDANCY_CODES",
    "SEVERITIES",
    "commute_conflicts",
    "commutes",
    "independent",
    "interference",
    "interpret",
    "lint_script",
    "minimize",
    "patch_equivalent",
    "rename_fresh",
    "render_json",
    "render_race_json",
    "render_race_sarif",
    "render_race_text",
    "render_sarif",
    "render_text",
    "run_rules",
    "schedule",
    "script_effects",
]
