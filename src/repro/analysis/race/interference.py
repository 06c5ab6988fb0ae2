"""Pairwise interference of edit scripts, and the wave schedule.

Two scripts *interfere* when running them against the same base tree in
either order could observe or produce different states — the concurrent
analogue of PR 5's commutation check, extended with the conservative
may-alias rules for fresh URIs that the merge setting never needed
(merging renames; raw application does not).

Interference kinds carry stable ``TR0xx`` codes (like truelint's
``TL0xx``, these are matched by tools and CI gates and are never
renumbered):

* ``TR001`` **slot-race** — both scripts rewire the same
  ``(parent, link)`` slot;
* ``TR002`` **position-race** — both scripts move the same node;
* ``TR003`` **content-race** — both scripts update the same node's
  literals (write/write; a lone read of literals the other side writes
  is ``TR004`` territory only when the node is destroyed, because an
  ``Update`` both reads and writes and is already covered here);
* ``TR004`` **destroy-use-race** — one script destroys a node the other
  uses in any way;
* ``TR005`` **fresh-collision** — both scripts allocate the same fresh
  URI.  Benign under a renaming discipline (``assume_renamed=True``,
  the merge contract and what ``/apply-batch`` establishes by renaming
  up front), fatal for raw concatenation: the second ``Load`` is a URI
  conflict at patch time;
* ``TR006`` **fresh-alias** — a URI one script allocates is a URI the
  other treats as an ancestor node.  May-alias conservatism: the
  analysis cannot prove the two uses denote different nodes, so it
  refuses to call the scripts independent.  Like ``TR005`` this is
  suppressed only when a renaming discipline is in force, which
  guarantees allocations never land on mentioned URIs.

Soundness: if ``interference(a, b)`` is empty then the two scripts'
effect sets are disjoint on every linear resource class, so by the
commutation argument of :mod:`repro.analysis.commute` both application
orders type-check and produce the same tree — and (with renaming or
disjoint fresh sets) so does their concatenation.  The ``race`` suite
(:mod:`repro.analysis.race.campaign`) checks exactly this claim
on every pair the analysis calls independent; the gate is zero false
"independent" verdicts.

:func:`schedule` turns the pairwise relation over N scripts into a
deterministic plan: scripts are greedily colored into *waves* in input
order, each script landing in the earliest wave after every
earlier-input script it interferes with.  Scripts in one wave are
pairwise independent (safe to fan out); interfering scripts retain
their input order across waves, so the schedule's sequential semantics
is the fold in input order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.core.edits import EditScript

from .effects import EffectSet, Slot, script_effects

# -- stable interference codes ------------------------------------------------

RACE_SLOT = "TR001"
RACE_POSITION = "TR002"
RACE_CONTENT = "TR003"
RACE_DESTROY_USE = "TR004"
RACE_FRESH_COLLISION = "TR005"
RACE_FRESH_ALIAS = "TR006"

#: Every interference code truerace can emit, with a short description.
RACE_CODES: dict[str, str] = {
    RACE_SLOT: "slot-race: both scripts rewire the same (parent, link) slot",
    RACE_POSITION: "position-race: both scripts move the same node",
    RACE_CONTENT: "content-race: both scripts update the same node's literals",
    RACE_DESTROY_USE: (
        "destroy-use-race: one script destroys a node the other uses"
    ),
    RACE_FRESH_COLLISION: (
        "fresh-collision: both scripts allocate the same fresh URI "
        "(a URI conflict unless a renaming discipline is in force)"
    ),
    RACE_FRESH_ALIAS: (
        "fresh-alias: a URI one script allocates is an ancestor node of the "
        "other (may-alias: independence cannot be proven)"
    ),
}


@dataclass(frozen=True)
class RaceConflict:
    """One reason a pair of scripts cannot run concurrently."""

    code: str
    left: int  #: index of the earlier script in the analyzed sequence
    right: int  #: index of the later script
    resource: tuple[Any, ...]
    message: str

    def __str__(self) -> str:
        return (
            f"scripts #{self.left} and #{self.right}: {self.message} "
            f"[{self.code}]"
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "code": self.code,
            "left": self.left,
            "right": self.right,
            "resource": list(self.resource),
            "message": self.message,
        }


def _slot_str(slot: Slot) -> str:
    parent, link = slot
    return f"{parent}.{link}"


def interference(
    a: EffectSet,
    b: EffectSet,
    *,
    left: int = 0,
    right: int = 1,
    assume_renamed: bool = False,
) -> list[RaceConflict]:
    """Every interference between two effect sets (empty iff independent).

    ``assume_renamed`` suppresses the fresh-URI rules (``TR005``,
    ``TR006``) — the caller vouches that a renaming discipline makes
    allocations collision-free (the merge contract, or
    ``/apply-batch``'s up-front canonical renaming).
    """
    out: list[RaceConflict] = []
    for slot in sorted(a.slot_writes & b.slot_writes, key=repr):
        out.append(
            RaceConflict(
                RACE_SLOT, left, right, slot,
                f"both rewire slot {_slot_str(slot)}",
            )
        )
    for uri in sorted(a.moves & b.moves, key=repr):
        out.append(
            RaceConflict(
                RACE_POSITION, left, right, (uri,),
                f"both move node {uri}",
            )
        )
    for uri in sorted(a.lit_writes & b.lit_writes, key=repr):
        out.append(
            RaceConflict(
                RACE_CONTENT, left, right, (uri,),
                f"both update the literals of node {uri}",
            )
        )
    destroyed = (a.destroys & b.touched) | (b.destroys & a.touched)
    for uri in sorted(destroyed, key=repr):
        out.append(
            RaceConflict(
                RACE_DESTROY_USE, left, right, (uri,),
                f"one destroys node {uri} that the other uses",
            )
        )
    if not assume_renamed:
        for uri in sorted(a.fresh & b.fresh, key=repr):
            out.append(
                RaceConflict(
                    RACE_FRESH_COLLISION, left, right, (uri,),
                    f"both allocate fresh URI {uri}",
                )
            )
        aliased = (a.fresh & b.mentions) | (b.fresh & a.mentions)
        for uri in sorted(aliased - (a.fresh & b.fresh), key=repr):
            out.append(
                RaceConflict(
                    RACE_FRESH_ALIAS, left, right, (uri,),
                    f"URI {uri} is fresh for one script and an ancestor "
                    "node of the other",
                )
            )
    return out


def independent(
    a: EffectSet, b: EffectSet, *, assume_renamed: bool = False
) -> bool:
    """True iff no interference rule fires between the two effect sets."""
    return not interference(a, b, assume_renamed=assume_renamed)


# -- the wave schedule --------------------------------------------------------


@dataclass
class Schedule:
    """A deterministic concurrency plan for a sequence of scripts.

    ``waves[w]`` lists the indices of the scripts of wave ``w`` in input
    order; scripts within a wave are pairwise independent.  ``conflicts``
    is the full pairwise interference relation (the edges of the
    interference graph), sorted by ``(left, right, code, resource)``.
    """

    waves: list[list[int]] = field(default_factory=list)
    conflicts: list[RaceConflict] = field(default_factory=list)
    effects: list[EffectSet] = field(default_factory=list)

    @property
    def parallelism(self) -> float:
        """Scripts per wave — 1.0 means fully serialized."""
        n = sum(len(w) for w in self.waves)
        return n / len(self.waves) if self.waves else 0.0

    @property
    def independent(self) -> bool:
        return not self.conflicts

    def wave_of(self, index: int) -> int:
        for w, members in enumerate(self.waves):
            if index in members:
                return w
        raise IndexError(index)

    def as_dict(self) -> dict[str, Any]:
        return {
            "waves": [list(w) for w in self.waves],
            "conflicts": [c.as_dict() for c in self.conflicts],
            "parallelism": round(self.parallelism, 3),
        }


def schedule(
    scripts: Sequence[EditScript],
    *,
    assume_renamed: bool = False,
    effects: Optional[Sequence[EffectSet]] = None,
    canonicalize: bool = True,
) -> Schedule:
    """Build the interference graph over ``scripts`` and color it into
    conflict-free waves.

    Greedy list coloring in input order: script ``i`` lands in wave
    ``1 + max(wave(j))`` over every earlier script ``j`` it interferes
    with (wave 0 when it interferes with none).  The coloring is a pure
    function of the input sequence, so every replica schedules the same
    batch identically; interfering scripts keep their input order, so
    applying the waves left to right *is* the sequential fold.
    """
    effs = (
        list(effects)
        if effects is not None
        else [script_effects(s, canonicalize=canonicalize) for s in scripts]
    )
    if len(effs) != len(scripts):
        raise ValueError(
            f"{len(effs)} effect sets for {len(scripts)} scripts"
        )
    conflicts: list[RaceConflict] = []
    wave_of: list[int] = []
    for i in range(len(effs)):
        wave = 0
        for j in range(i):
            pair = interference(
                effs[j], effs[i], left=j, right=i, assume_renamed=assume_renamed
            )
            if pair:
                conflicts.extend(pair)
                wave = max(wave, wave_of[j] + 1)
        wave_of.append(wave)
    n_waves = max(wave_of, default=-1) + 1
    waves: list[list[int]] = [[] for _ in range(n_waves)]
    for i, w in enumerate(wave_of):
        waves[w].append(i)
    return Schedule(waves=waves, conflicts=conflicts, effects=effs)
