"""truerace: static interference analysis for concurrent edit scripts.

Given N edit scripts targeting the same base tree, truerace decides —
from the scripts alone, before any tree is touched — which can be
applied in parallel.  The linear typing discipline is what makes the
question decidable: every script's resource effects are statically
knowable (:mod:`~repro.analysis.race.effects`), interference is set
intersection over those effects with conservative may-alias handling
for fresh URIs (:mod:`~repro.analysis.race.interference`), and the
interference graph greedily colors into conflict-free waves that the
server's ``/apply-batch`` fans out across its worker pool.

Layers:

* :mod:`~repro.analysis.race.effects` — :class:`EffectSet`, the sound
  read/write effect summary (also the merge precheck's, in
  :mod:`repro.analysis.commute`), plus the deterministic cross-script
  fresh-URI renaming;
* :mod:`~repro.analysis.race.interference` — the pairwise interference
  rules (stable ``TR0xx`` codes) and the wave :func:`schedule`;
* :mod:`~repro.analysis.race.report` — deterministic text/JSON/SARIF
  conflict reports (driver ``truerace``);
* :mod:`~repro.analysis.race.campaign` — the ``race`` suite of
  :mod:`repro.campaign`: every pair the analysis calls independent must
  pass the order-swap and parallel-composition fingerprint oracles
  (zero false independents).
"""

from .effects import EffectSet, Slot, loaded_uris, rename_fresh, script_effects
from .interference import (
    RACE_CODES,
    RACE_CONTENT,
    RACE_DESTROY_USE,
    RACE_FRESH_ALIAS,
    RACE_FRESH_COLLISION,
    RACE_POSITION,
    RACE_SLOT,
    RaceConflict,
    Schedule,
    independent,
    interference,
    schedule,
)
from .report import (
    RaceReport,
    render_race_json,
    render_race_sarif,
    render_race_text,
)

__all__ = [
    "EffectSet",
    "RACE_CODES",
    "RACE_CONTENT",
    "RACE_DESTROY_USE",
    "RACE_FRESH_ALIAS",
    "RACE_FRESH_COLLISION",
    "RACE_POSITION",
    "RACE_SLOT",
    "RaceConflict",
    "RaceReport",
    "Schedule",
    "Slot",
    "independent",
    "interference",
    "loaded_uris",
    "rename_fresh",
    "render_race_json",
    "render_race_sarif",
    "render_race_text",
    "schedule",
    "script_effects",
]
