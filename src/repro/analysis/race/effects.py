"""The truerace effect system: sound read/write summaries of edit scripts.

The *merge* question (:mod:`repro.analysis.commute`) is whether two
scripts commute once the merger has renamed one side's fresh URIs;
under that contract, freshly loaded URIs are invisible to the other
script and rightly contribute nothing.  The *race* question is
harsher: given N scripts that will be applied to the same served tree
with no mediating merge step, which can run concurrently?  There the
fresh URIs are real, allocatable resources — two scripts produced by
independent differs both draw their loads from ``URIGen(start=size+1)``
over the same base, so their fresh URI ranges collide byte for byte, and
applying one makes the other's ``Load`` a URI conflict at patch time.

:class:`EffectSet` answers both: a full read/write effect summary over
every linear resource class the type system tracks (Figure 3's
``(R • S)`` state):

* ``slot_writes`` — ancestor ``(parent, link)`` slots detached or filled;
* ``moves`` — ancestor nodes repositioned (write on the node's position);
* ``lit_writes`` / ``lit_reads`` — literal stores (``Update`` new values)
  and literal observations (``Update`` old values, ``Unload`` checks);
* ``destroys`` — ancestor nodes unloaded, **transitively**: a composite
  ``Remove`` whose nested kids are themselves removed contributes every
  destroyed descendant, not just the top node;
* ``fresh`` — URIs the script allocates via ``Load``, transitively: a
  composite ``Insert`` of a deep subtree contributes every nested load;
* ``mentions`` — every ancestor URI the script references in any role
  (the conservative may-alias base: a fresh URI of one script that
  collides with *any* mention of another is treated as interference).

The summary is computed on the minimized script (lint normal form), so
self-cancelling noise does not inflate it: the effect set is an
analysis artifact, never a rewrite of the script under analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.edits import (
    Attach,
    Detach,
    EditScript,
    Load,
    Unload,
    Update,
)
from repro.core.edits import map_edit_uris
from repro.core.node import Link
from repro.core.uris import URI, URIGen

Slot = tuple[URI, Link]


@dataclass(frozen=True)
class EffectSet:
    """The read/write effects of one edit script, by resource class.

    ``fresh`` URIs are the script's own allocations; every other set
    ranges over *ancestor* URIs (nodes the script believes exist in the
    base tree).
    """

    slot_writes: frozenset[Slot]
    moves: frozenset[URI]
    lit_writes: frozenset[URI]
    lit_reads: frozenset[URI]
    destroys: frozenset[URI]
    fresh: frozenset[URI]
    mentions: frozenset[URI]

    @property
    def touched(self) -> frozenset[URI]:
        """Every ancestor node the script uses in any way (the resources a
        destroyer of that node would invalidate)."""
        return (
            self.moves
            | self.lit_writes
            | self.lit_reads
            | self.destroys
            | frozenset(p for p, _ in self.slot_writes)
        )

    @property
    def is_empty(self) -> bool:
        return not (self.mentions or self.fresh)


def script_effects(script: EditScript, *, canonicalize: bool = True) -> EffectSet:
    """Compute the :class:`EffectSet` of ``script``.

    With ``canonicalize`` (the default) the summary is taken over the
    lint normal form — a detach undone by a re-attach is not a slot
    write, a dead load/unload pair allocates nothing.

    Composite ``Insert``/``Remove`` edits are expanded to primitives
    first, so nested kid lists contribute **transitively**: inserting a
    depth-d subtree records every one of its d loads in ``fresh``;
    removing one records every unloaded descendant in ``destroys``.
    Loads are emitted bottom-up by the differ, which is what makes the
    single forward scan's ``fresh``-membership tests exact.
    """
    if canonicalize:
        from repro.analysis.minimize import minimize

        script = minimize(script).script
    slot_writes: set[Slot] = set()
    moves: set[URI] = set()
    lit_writes: set[URI] = set()
    lit_reads: set[URI] = set()
    destroys: set[URI] = set()
    fresh: set[URI] = set()
    mentions: set[URI] = set()

    def mention(uri: URI) -> None:
        if uri not in fresh:
            mentions.add(uri)

    for edit in script.primitives():
        if isinstance(edit, (Detach, Attach)):
            if edit.parent.uri not in fresh:
                slot_writes.add((edit.parent.uri, edit.link))
                mentions.add(edit.parent.uri)
            if edit.node.uri not in fresh:
                moves.add(edit.node.uri)
                mentions.add(edit.node.uri)
        elif isinstance(edit, Load):
            fresh.add(edit.node.uri)
            for _, kid in edit.kids:
                if kid not in fresh:
                    moves.add(kid)
                    mentions.add(kid)
        elif isinstance(edit, Unload):
            if edit.node.uri not in fresh:
                destroys.add(edit.node.uri)
                mentions.add(edit.node.uri)
                if edit.lits:
                    # unloading checks the literal values it names
                    lit_reads.add(edit.node.uri)
            for _, kid in edit.kids:
                if kid not in fresh:
                    moves.add(kid)
                    mentions.add(kid)
        elif isinstance(edit, Update):
            if edit.node.uri not in fresh:
                lit_writes.add(edit.node.uri)
                lit_reads.add(edit.node.uri)  # old values are observed
                mentions.add(edit.node.uri)
    return EffectSet(
        slot_writes=frozenset(slot_writes),
        moves=frozenset(moves),
        lit_writes=frozenset(lit_writes),
        lit_reads=frozenset(lit_reads),
        destroys=frozenset(destroys),
        fresh=frozenset(fresh),
        mentions=frozenset(mentions),
    )


def loaded_uris(script: EditScript) -> list[URI]:
    """The script's fresh URIs in load (allocation) order, duplicates
    preserved — the order the canonical renaming walks."""
    return [
        e.node.uri for e in script.primitives() if isinstance(e, Load)
    ]


def rename_fresh(
    scripts: list[EditScript], taken: set[URI], *, start: int
) -> tuple[list[EditScript], int]:
    """Deterministically rename colliding fresh URIs across a script set.

    Walks the scripts in input order and each script's loads in
    allocation order; a load whose URI is already ``taken`` (by the base
    tree or by an earlier allocation) is renamed to the next free
    integer ``>= start``.  Every script's surviving fresh URIs are added
    to ``taken`` (mutated in place), so the result set is collision-free
    by construction — the precondition under which fresh URIs stop
    being an interference source (see
    :func:`~repro.analysis.race.interference.interference`).

    Returns the renamed scripts and the number of loads renamed.  The
    mapping is a pure function of ``(scripts, taken, start)``: both the
    sequential and the parallel apply paths call it with the same
    inputs, which is what makes their results byte-comparable.
    """
    renamed: list[EditScript] = []
    total = 0
    urigen = URIGen(start=start)
    for script in scripts:
        mapping: dict[URI, URI] = {}
        for uri in loaded_uris(script):
            if uri in mapping:
                continue
            if uri in taken:
                fresh = urigen.fresh()
                while fresh in taken:
                    fresh = urigen.fresh()
                mapping[uri] = fresh
                taken.add(fresh)
            else:
                taken.add(uri)
        if mapping:
            total += len(mapping)
            script = EditScript(
                map_edit_uris(e, lambda u: mapping.get(u, u)) for e in script
            )
        renamed.append(script)
    return renamed, total
