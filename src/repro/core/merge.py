"""Three-way merging of truechange edit scripts.

The paper's introduction lists version control among the applications of
structural patches, and Section 7 discusses patch theories.  Because
truechange scripts address nodes by URI and are linearly typed, a simple
and *sound* merge is possible: two scripts that **commute** can be
concatenated; scripts that race on a linear resource are a conflict.

Whether two scripts commute is decided by the static commutation
analysis (:mod:`repro.analysis.commute`): each script is summarized by
the read/write effects it has on ancestor-tree resources — slots it
rewires, nodes it moves, literals it updates, nodes it destroys — and
the scripts commute iff the effects are disjoint.  This is strictly more
permissive than the historical URI-overlap check that used to live here:
moving a node and updating the same node's literals commute, as do two
moves whose slots and nodes differ, even under a shared parent.  What
remains conflicting is precisely what must: same slot rewired, same node
moved twice, same literals updated twice, or a destroyed node used by the
other side.

Given a common ancestor tree and two scripts ∆₁, ∆₂ derived from it,
:func:`merge_scripts` either returns a merged script (∆₁ followed by ∆₂
with ∆₂'s freshly loaded URIs renamed away from ∆₁'s) or reports the
conflicting resources.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .edits import EditScript, Load, map_edit_uris
from .uris import URI, URIGen


@dataclass(frozen=True)
class MergeConflict:
    """A linear resource the two scripts race on.

    ``kind`` classifies the race: ``'slot'`` (both rewire the same
    ``(parent, link)`` slot), ``'position'`` (both move the same node),
    ``'content'`` (both update the same node's literals), or ``'node'``
    (one destroys a node the other uses).
    """

    kind: str  # 'slot' | 'position' | 'content' | 'node'
    resource: tuple

    def __str__(self) -> str:
        if self.kind == "slot":
            parent, link = self.resource
            return f"both scripts rewire slot {parent}.{link}"
        if self.kind == "position":
            return f"both scripts move node {self.resource[0]}"
        if self.kind == "content":
            return f"both scripts update the literals of node {self.resource[0]}"
        return f"one script deletes node {self.resource[0]} that the other uses"


@dataclass
class MergeResult:
    script: Optional[EditScript]
    conflicts: list[MergeConflict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.script is not None


def find_conflicts(a: EditScript, b: EditScript) -> list[MergeConflict]:
    """The precise reasons the scripts fail to commute (empty iff they
    merge cleanly).  Delegates to the commutation analysis; imported
    lazily because :mod:`repro.analysis` builds on this module's types."""
    from repro.analysis.commute import commute_conflicts

    return commute_conflicts(a, b)


def _loaded_uris(script: EditScript) -> set[URI]:
    return {e.node.uri for e in script.primitives() if isinstance(e, Load)}


def _rename_loads(script: EditScript, urigen: URIGen, taken: set[URI]) -> EditScript:
    """Rename the freshly loaded URIs of a script so they cannot collide
    with another script's loads (both sides drew from generators that may
    have restarted at the same point)."""
    mapping: dict[URI, URI] = {}
    for edit in script.primitives():
        if isinstance(edit, Load) and edit.node.uri in taken:
            fresh = urigen.fresh()
            while fresh in taken:
                fresh = urigen.fresh()
            mapping[edit.node.uri] = fresh

    if not mapping:
        return script
    return EditScript(
        map_edit_uris(edit, lambda u: mapping.get(u, u)) for edit in script
    )


def merge_scripts(
    a: EditScript,
    b: EditScript,
    urigen: Optional[URIGen] = None,
) -> MergeResult:
    """Merge two scripts derived from the same ancestor tree.

    On success the merged script is ``a`` followed by ``b`` (with ``b``'s
    loads renamed); applying it to the ancestor produces a tree with both
    changes.  The scripts themselves are concatenated as given — the
    commutation precheck canonicalizes internally for analysis, but never
    rewrites the user's scripts.  On conflict, no script is produced.
    """
    conflicts = find_conflicts(a, b)
    if conflicts:
        return MergeResult(None, conflicts)
    a_loaded, b_loaded = _loaded_uris(a), _loaded_uris(b)
    if urigen is None:
        top = max(
            (u for u in a_loaded | b_loaded if isinstance(u, int)), default=0
        )
        urigen = URIGen(start=top + 1)
    b_renamed = _rename_loads(b, urigen, set(a_loaded))
    return MergeResult(a + b_renamed, [])
