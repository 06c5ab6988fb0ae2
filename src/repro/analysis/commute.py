"""Script-pair commutation analysis: do two edit scripts commute?

Two scripts derived from the same ancestor tree can be merged by
concatenation exactly when they *commute* — applying them in either order
yields the same tree.  Because truechange scripts are linearly typed,
commutation is decidable from the scripts alone: each script's effect on
the ancestor is summarized by its read/write effect set
(:mod:`repro.analysis.race.effects` — the truerace effect system this
module is now a thin view over), and two scripts commute iff the effects
are disjoint in the precise sense of :func:`commute_conflicts`.

The effect set distinguishes *how* a resource is used, which is what
makes this strictly more permissive than the historical URI-overlap
check in :mod:`repro.core.merge`:

* ``slot_writes`` — ``(parent_uri, link)`` slots the script detaches or
  fills on ancestor nodes.  Two scripts rewiring the same slot race on
  it.
* ``moves`` — ancestor nodes the script *moves* (detaches, attaches,
  consumes into a load, or frees from an unload).  Moving a node twice is
  a race; merely mentioning the same node is not.
* ``lit_writes`` — ancestor nodes whose literals the script updates.
  Content edits commute with position edits of the same node: moving a
  node does not observe its literals, and updating them does not observe
  its position.
* ``destroys`` — ancestor nodes the script unloads, **transitively**: a
  composite ``Remove`` whose nested kids are themselves removed
  contributes every destroyed descendant, not just the top node.
  Destruction conflicts with *any* use by the other script.
* ``fresh`` — URIs the script creates, transitively: a composite
  ``Insert`` of a deep subtree contributes every nested load.  Under the
  *merge* contract fresh nodes are invisible to the other script
  (:func:`repro.core.merge_scripts` renames them), so loads contribute
  nothing to commutation — but they are real allocations, and any
  consumer that applies scripts **without** a renaming step must treat
  colliding or ancestor-aliasing fresh URIs as interference.  That
  stricter judgment is :func:`repro.analysis.race.interference` with
  ``assume_renamed=False``; this module *is* the ``assume_renamed=True``
  case.

Soundness argument, rule by rule: disjoint slots means neither script
fills or empties a slot the other relies on; disjoint positions means the
detach/attach obligations of one script are undisturbed by the other;
disjoint contents means updates read the old literals they expect; the
destruction rule means no script references a node that no longer exists.
Under those conditions each edit of ∆₂ sees exactly the state it saw
against the ancestor, up to edits of ∆₁ on resources ∆₂ never touches —
so ``∆₁ ; ∆₂`` and ``∆₂ ; ∆₁`` both type-check and produce the same tree.

Effects are computed on the *minimized* script (redundant
detach/attach round trips would otherwise inflate them and
report phantom conflicts), but the merged output concatenates the
original scripts unchanged — minimization here is an analysis device, not
a rewrite of the user's scripts.
"""

from __future__ import annotations

from repro.core.edits import EditScript
from repro.core.merge import MergeConflict

from .race.effects import script_effects
from .race.interference import (
    RACE_CONTENT,
    RACE_POSITION,
    RACE_SLOT,
    interference,
)

#: truerace code -> the merge-conflict kind this module has always reported.
_MERGE_KINDS = {
    RACE_SLOT: "slot",
    RACE_POSITION: "position",
    RACE_CONTENT: "content",
}


def commute_conflicts(a: EditScript, b: EditScript) -> list[MergeConflict]:
    """The precise reasons ``a`` and ``b`` fail to commute (empty iff they
    commute).  Conflict kinds:

    * ``slot`` — both scripts rewire the same ``(parent, link)`` slot;
    * ``position`` — both scripts move the same node;
    * ``content`` — both scripts update the same node's literals;
    * ``node`` — one script destroys a node the other uses.

    This is the *merge* judgment: fresh URIs are assumed renamed away
    from each other (``merge_scripts`` does exactly that), so
    ``TR005``/``TR006`` never contribute.  Consumers applying scripts
    without renaming want :func:`repro.analysis.race.interference`.
    """
    ea = script_effects(a)
    eb = script_effects(b)
    conflicts: list[MergeConflict] = []
    for race in interference(ea, eb, assume_renamed=True):
        kind = _MERGE_KINDS.get(race.code, "node")
        conflicts.append(MergeConflict(kind, race.resource))
    return conflicts


def commutes(a: EditScript, b: EditScript) -> bool:
    """True iff the two scripts commute (their merge is conflict-free)."""
    return not commute_conflicts(a, b)
