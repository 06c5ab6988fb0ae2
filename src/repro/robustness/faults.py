"""Deterministic fault injection for edit scripts and patch application.

Two orthogonal fault models:

* **Script corruption** (:func:`corrupt_script`) — a seeded
  ``random.Random`` drives one of six structured corruptions of a valid
  edit script: ``drop`` an edit, ``duplicate`` one, ``reorder`` two,
  ``swap_uris`` (exchange two URIs at every *node reference*, leaving
  Load/Unload kid bindings stale — a total swap would be a coherent
  alpha-renaming of the script, invisible to any tree-free check, so the
  fault models the realistic version-skew case: renamed references
  meeting structural metadata that was not migrated), ``retarget_sort``
  (change the tag — and hence the sort — of one node reference), or
  ``truncate`` the tail.  These model wire damage, version skew, and
  adversarial scripts; most are caught by the pre-flight typecheck, the
  rest by the strict standard semantics.
* **Application faults** (:func:`inject_fault_at`) — a hook forcing a
  raise immediately before primitive edit *k* applies, modelling a crash
  mid-patch.  This exercises the rollback path on otherwise *valid*
  scripts.

Both are pure and deterministic: the same seed produces the same faults,
so every campaign scenario is replayable; :func:`seeded_corruptions` is
the one seed derivation the ``fault`` and ``lint`` suites of
:mod:`repro.campaign` share.

A third, byte-level model serves the ``chaos`` suite
(:mod:`repro.server.chaos`): :func:`flip_byte` and :func:`truncate_tail`
damage an opaque byte payload — a write-ahead journal segment, a
snapshot file — the way a crashed disk or a torn write would, again
seeded and replayable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.core.edits import (
    EditScript,
    PrimitiveEdit,
    edit_uris,
    map_edit_nodes,
)
from repro.core.node import Node
from repro.core.uris import ROOT_URI, URI

#: The supported corruption kinds, in the order the campaign cycles them.
CORRUPTION_KINDS: tuple[str, ...] = (
    "drop",
    "duplicate",
    "reorder",
    "swap_uris",
    "retarget_sort",
    "truncate",
)


class InjectedFault(RuntimeError):
    """The deliberate failure raised by :func:`inject_fault_at`."""


def inject_fault_at(k: int) -> Callable[[int, PrimitiveEdit], None]:
    """A ``fault_hook`` that raises :class:`InjectedFault` immediately
    before primitive edit ``k`` would apply (edits ``0..k-1`` apply)."""

    def hook(i: int, edit: PrimitiveEdit) -> None:
        if i == k:
            raise InjectedFault(f"injected fault before edit #{k} ({edit})")

    return hook


@dataclass(frozen=True)
class Corruption:
    """One corrupted script plus what was done to it."""

    kind: str
    detail: str
    script: EditScript


def _script_uris(edits: list[PrimitiveEdit]) -> list[URI]:
    """All distinct non-root URIs the script mentions, in first-use order."""
    seen: dict[URI, None] = {}
    for e in edits:
        for uri in edit_uris(e):
            if uri != ROOT_URI and uri not in seen:
                seen[uri] = None
    return list(seen)


def corrupt_script(
    script: EditScript,
    rng: random.Random,
    kind: Optional[str] = None,
) -> Corruption:
    """Apply one seeded corruption of the given ``kind`` (random if omitted).

    Works on the primitive expansion so every edit is individually
    addressable.  If the script is too small for the requested kind
    (e.g. ``reorder`` on one edit), the corruption degenerates to the
    closest applicable one and says so in ``detail``.
    """
    edits: list[PrimitiveEdit] = list(script.primitives())
    if kind is None:
        kind = rng.choice(CORRUPTION_KINDS)
    if kind not in CORRUPTION_KINDS:
        raise ValueError(f"unknown corruption kind {kind!r}")
    if not edits:
        return Corruption(kind, "script empty; unchanged", EditScript(edits))

    if kind == "drop":
        i = rng.randrange(len(edits))
        dropped = edits.pop(i)
        return Corruption(kind, f"dropped edit #{i} ({dropped})", EditScript(edits))

    if kind == "duplicate":
        i = rng.randrange(len(edits))
        edits.insert(i + 1, edits[i])
        return Corruption(kind, f"duplicated edit #{i}", EditScript(edits))

    if kind == "reorder":
        if len(edits) < 2:
            return Corruption(kind, "single edit; unchanged", EditScript(edits))
        i, j = rng.sample(range(len(edits)), 2)
        edits[i], edits[j] = edits[j], edits[i]
        return Corruption(kind, f"swapped edits #{i} and #{j}", EditScript(edits))

    if kind == "swap_uris":
        uris = _script_uris(edits)
        if len(uris) < 2:
            return Corruption(kind, "fewer than two URIs; unchanged", EditScript(edits))
        a, b = rng.sample(uris, 2)
        mapping = {a: b, b: a}
        swapped = [
            map_edit_nodes(e, lambda n: Node(n.tag, mapping.get(n.uri, n.uri)))
            for e in edits
        ]
        return Corruption(
            kind,
            f"swapped URIs {a!r} and {b!r} in node references",
            EditScript(swapped),
        )

    if kind == "retarget_sort":
        pairs: dict[URI, str] = {}
        for e in edits:
            pairs.setdefault(e.node.uri, e.node.tag)
            if hasattr(e, "parent") and e.parent.uri != ROOT_URI:
                pairs.setdefault(e.parent.uri, e.parent.tag)
        pairs.pop(ROOT_URI, None)
        if not pairs:
            return Corruption(kind, "no retargetable node; unchanged", EditScript(edits))
        target = rng.choice(sorted(pairs, key=repr))
        old_tag = pairs[target]
        other_tags = sorted({t for t in pairs.values() if t != old_tag})
        new_tag = rng.choice(other_tags) if other_tags else old_tag + "X"

        def retag(n: Node) -> Node:
            return Node(new_tag, n.uri) if n.uri == target else n

        retagged = [map_edit_nodes(e, retag) for e in edits]
        return Corruption(
            kind,
            f"retagged node {target!r} from {old_tag} to {new_tag}",
            EditScript(retagged),
        )

    # kind == "truncate"
    cut = rng.randrange(len(edits))
    return Corruption(kind, f"truncated to first {cut} edit(s)", EditScript(edits[:cut]))


def seeded_corruptions(
    script: EditScript, seed: int, case: int, per_kind: int
) -> Iterator[tuple[int, Corruption]]:
    """``per_kind`` corruptions of ``script`` per kind, in
    :data:`CORRUPTION_KINDS` order, as ``(rep, corruption)`` pairs: the
    replayable corruptions of campaign case ``case`` under ``seed``."""
    for kind_i, kind in enumerate(CORRUPTION_KINDS):
        for rep in range(per_kind):
            # arithmetic seed derivation: string hashes are process-
            # randomized and would make campaigns unreplayable
            rng = random.Random(((seed * 1_000_003 + case) * 31 + kind_i) * 101 + rep)
            yield rep, corrupt_script(script, rng, kind)


def flip_byte(data: bytes, rng: random.Random) -> tuple[bytes, int]:
    """Flip one seeded byte of ``data`` (XOR with a non-zero mask).

    Returns ``(damaged, offset)``; empty input comes back unchanged with
    offset ``-1``.  Models silent on-disk corruption of a journal
    segment or snapshot file.
    """
    if not data:
        return data, -1
    offset = rng.randrange(len(data))
    mask = rng.randrange(1, 256)
    damaged = bytearray(data)
    damaged[offset] ^= mask
    return bytes(damaged), offset


def truncate_tail(data: bytes, rng: random.Random, max_cut: int = 64) -> tuple[bytes, int]:
    """Cut a seeded number of bytes (1..``max_cut``) off the tail of
    ``data`` — a torn write from a crash mid-append.  Returns
    ``(truncated, bytes_cut)``; empty input is unchanged with cut ``0``.
    """
    if not data:
        return data, 0
    cut = rng.randint(1, min(max_cut, len(data)))
    return data[:-cut], cut
