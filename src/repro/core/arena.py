"""Struct-of-arrays flat tree core (ROADMAP item 3).

A :class:`TreeArena` stores an entire tree in parallel flat columns
indexed by *slot* (a small int): tag ids, parent / first-kid /
next-sibling links, kid position, subtree height and size, and the two
equivalence fingerprints of every node.  The diff hot loop
(:mod:`repro.core.flatdiff`) runs entirely on these columns — integer
indices instead of pointer-chasing through :class:`~repro.core.tree.TNode`
objects — while the object tree remains available as a thin view
(the ``nodes`` column), so adapters, baselines, incremental and
robustness layers keep working unchanged.

Layout (one entry per slot; slot 0 is the virtual root):

======================  =====================================================
column                  meaning
======================  =====================================================
``tags[i]``             interned tag id (:func:`tag_id`; global intern table)
``sig[i]``              the node's :class:`~repro.core.signature.Signature`
``var[i]``              True iff the signature is variadic
``parent[i]``           parent slot, or ``NIL`` for roots
``first_kid[i]``        first kid slot in signature order, or ``NIL``
``next_sib[i]``         next sibling slot, or ``NIL``
``pos[i]``              kid position under the parent (sig index / list index)
``height[i]``           subtree height (leaves have height 1)
``size[i]``             subtree size (number of nodes)
``sfp[i]``              structural fingerprint (``TNode.structure_hash``)
``lfp[i]``              literal fingerprint (``TNode.literal_hash``)
``lits[i]``             literal tuple in signature order
``uris[i]``             the node's URI
``nodes[i]``            the ``TNode`` view, or None (MTree-backed arenas)
======================  =====================================================

Invariants:

* Slot 0 is always the virtual root (``ROOT_TAG`` / ``ROOT_URI``); the
  main tree hangs off ``first_kid[0]``.
* Sibling chains are in canonical kid order (signature order for fixed
  arity, index order for variadic nodes); ``pos`` carries each kid's
  position so a detached kid can be re-inserted at the right place.
* ``index`` maps every live URI to its slot.  Freed slots go on the
  ``free`` list and have their ``uris``/``nodes`` entries cleared.
* Fingerprints are byte-identical to the hashes :class:`TNode`
  construction computes (same payload format, same pluggable digest), so
  flat and object diffing agree on every equivalence judgment.

Incremental maintenance: an arena attached to an
:class:`~repro.core.mtree.MTree` (see :meth:`MTree.attach_arena`) is
kept in sync by :meth:`process_edit` — structural edits splice the
sibling chains in O(arity) and mark the ancestor chain *dirty*;
:meth:`reflow` then recomputes fingerprints/heights/sizes bottom-up over
the dirty region only.  :meth:`apply_patch` instead rolls a source arena
forward by replaying a diff-emitted script structurally and overwriting
the changed slots from the edit buffer's fresh-node record in
O(changed).  (No :class:`~repro.core.diff.DiffSession` uses an arena:
sessions diff ``TNode`` objects directly.)

The fingerprint columns hold one ``bytes`` object per slot rather than
one contiguous buffer: the per-slot digests are *also* the keys of the
share tables in Step 2, and a slot-indexed list hands them out without
slicing or copying.  :meth:`packed` exports the dense contiguous layout
(``array`` index columns plus a single fingerprint byte-buffer) for
serialization and inspection.
"""

from __future__ import annotations

from array import array
from typing import Any, Iterator, Optional

from repro.observability import OBS, metrics as _metrics

from . import tree as _tree
from .edits import Attach, Detach, Load, PrimitiveEdit, Unload, Update
from .node import Link, ROOT_LINK, ROOT_TAG
from .signature import ROOT_SIGNATURE, Signature, SignatureRegistry
from .tree import TNode, _lit_fingerprint, _tag_bytes
from .uris import ROOT_URI, URI

NIL = -1

# -- global tag interning -----------------------------------------------------

_TAG_IDS: dict[str, int] = {}
_TAG_NAMES: list[str] = []


def tag_id(tag: str) -> int:
    """Intern ``tag`` into a process-global small-int id.

    Step 2's flat walk compares tags once per matched position pair, so
    the comparison must be an int equality rather than a string one.
    """
    i = _TAG_IDS.get(tag)
    if i is None:
        i = _TAG_IDS[tag] = len(_TAG_NAMES)
        _TAG_NAMES.append(tag)
    return i


def tag_name(i: int) -> str:
    return _TAG_NAMES[i]


# kid-position maps per signature (link -> position in canonical order)
_KID_POS: dict[Signature, dict[Link, int]] = {}


def _kid_pos_map(sig: Signature) -> dict[Link, int]:
    m = _KID_POS.get(sig)
    if m is None:
        m = _KID_POS[sig] = {l: p for p, (l, _) in enumerate(sig.kids)}
    return m


class ArenaError(Exception):
    """The arena is (or would become) inconsistent with its tree."""


class TreeArena:
    """A struct-of-arrays flat representation of one tree (see module doc)."""

    __slots__ = (
        "sigs",
        "tags",
        "sig",
        "var",
        "parent",
        "first_kid",
        "next_sib",
        "pos",
        "height",
        "size",
        "sfp",
        "lfp",
        "lits",
        "uris",
        "nodes",
        "index",
        "free",
        "has_duplicates",
        "_dirty",
        "_mtree",
        "_stale",
    )

    def __init__(self, sigs: SignatureRegistry) -> None:
        self.sigs = sigs
        # slot 0: the virtual root
        self.tags: list[int] = [tag_id(ROOT_TAG)]
        self.sig: list[Signature] = [ROOT_SIGNATURE]
        self.var: list[bool] = [False]
        self.parent: list[int] = [NIL]
        self.first_kid: list[int] = [NIL]
        self.next_sib: list[int] = [NIL]
        self.pos: list[int] = [0]
        self.height: list[int] = [1]
        self.size: list[int] = [1]
        self.sfp: list[bytes] = [b""]
        self.lfp: list[bytes] = [b""]
        self.lits: list[tuple[Any, ...]] = [()]
        self.uris: list[Optional[URI]] = [ROOT_URI]
        self.nodes: list[Optional[TNode]] = [None]
        self.index: dict[URI, int] = {ROOT_URI: 0}
        self.free: list[int] = []
        self.has_duplicates = False
        self._dirty: set[int] = set()
        self._mtree = None  # set by from_mtree; enables lazy reload
        self._stale = False

    def __len__(self) -> int:
        """Number of live slots (including the virtual root)."""
        return len(self.parent) - len(self.free)

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_tree(cls, root: TNode, strict: bool = False) -> "TreeArena":
        """Flatten an object tree (hashes are copied, not recomputed).

        With ``strict=True`` a duplicate URI — which is what a shared
        node object produces — raises the same :class:`ValueError` as the
        object path's aliasing precheck; source arenas require proper
        trees.  Without it, duplicates merely set
        ``has_duplicates`` (the index keeps the first occurrence), which
        is sufficient for read-only *target* arenas: the flat diff keeps
        all per-diff state in slot-indexed arrays, so sharing inside the
        target cannot alias any mutable state.
        """
        a = cls(root.sigs)
        # hot loop: bound methods and columns as locals; ~one append per
        # column per node is the whole flatten cost
        tags_append = a.tags.append
        sig_append = a.sig.append
        var_append = a.var.append
        parent_append = a.parent.append
        first_kid = a.first_kid
        fk_append = first_kid.append
        next_sib = a.next_sib
        ns_append = next_sib.append
        pos_append = a.pos.append
        height_append = a.height.append
        size_append = a.size.append
        sfp_append = a.sfp.append
        lfp_append = a.lfp.append
        lits_append = a.lits.append
        uris_append = a.uris.append
        nodes_append = a.nodes.append
        index = a.index
        tids = _TAG_IDS
        n_slots = 1
        last_kid: dict[int, int] = {}
        # (node, parent slot, kid position); LIFO + reversed = pre-order
        stack: list[tuple[TNode, int, int]] = [(root, 0, 0)]
        while stack:
            n, p, kpos = stack.pop()
            u = n.uri
            if u in index:
                if strict:
                    raise ValueError(
                        "source tree contains the same node object twice; "
                        "normalize it with TNode.unshared() before diffing"
                    )
                a.has_duplicates = True
            else:
                index[u] = n_slots
            slot = n_slots
            n_slots += 1
            sig = n.sig
            tag = sig.tag
            ti = tids.get(tag)
            if ti is None:
                ti = tag_id(tag)
            tags_append(ti)
            sig_append(sig)
            var_append(sig.variadic is not None)
            parent_append(p)
            fk_append(NIL)
            ns_append(NIL)
            pos_append(kpos)
            height_append(n.height)
            size_append(n.size)
            sfp_append(n.structure_hash)
            lfp_append(n.literal_hash)
            lits_append(n.lits)
            uris_append(u)
            nodes_append(n)
            lk = last_kid.get(p)
            if lk is None:
                first_kid[p] = slot
            else:
                next_sib[lk] = slot
            last_kid[p] = slot
            kids = n.kids
            for i in range(len(kids) - 1, -1, -1):
                stack.append((kids[i], slot, i))
        a._refresh_root_meta()
        return a

    @classmethod
    def from_mtree(cls, mtree, sigs: SignatureRegistry) -> "TreeArena":
        """Flatten an :class:`~repro.core.mtree.MTree`'s main tree,
        computing fingerprints bottom-up (the MTree carries none).

        The arena keeps a reference to the MTree so that
        :meth:`invalidate` can fall back to a full reload when the tree
        is mutated behind the edit interface (transactional rollback's
        node-identity restore).  Empty slots and detached roots are not
        represented; between complete patches the tree is closed and the
        main tree is all there is.
        """
        a = cls(sigs)
        a._mtree = mtree
        a._reload_mtree()
        return a

    def _reload_mtree(self) -> None:
        mtree = self._mtree
        if mtree is None:
            raise ArenaError("arena is stale and has no backing MTree")
        # reset to just the virtual root
        self.tags[1:] = []
        self.sig[1:] = []
        self.var[1:] = []
        self.parent[1:] = []
        self.first_kid[1:] = []
        self.next_sib[1:] = []
        self.pos[1:] = []
        self.height[1:] = []
        self.size[1:] = []
        self.sfp[1:] = []
        self.lfp[1:] = []
        self.lits[1:] = []
        self.uris[1:] = []
        self.nodes[1:] = []
        self.first_kid[0] = NIL
        self.index.clear()
        self.index[ROOT_URI] = 0
        self.free.clear()
        self._dirty.clear()
        self._stale = False
        main = mtree.root.kids.get(ROOT_LINK)
        if main is not None:
            self._load_mnode(main, 0, 0)
        self._refresh_root_meta()

    def _mnode_kids(self, n) -> list:
        """An MNode's present kids in canonical order."""
        sig = self.sigs[n.tag]
        if sig.variadic is not None:
            links = sorted(n.kids, key=int)
        else:
            links = [l for l, _ in sig.kids]
        out = []
        for p, l in enumerate(links):
            kid = n.kids.get(l)
            if kid is not None:
                out.append((p, kid))
        return out

    def _load_mnode(self, mnode, parent_slot: int, kpos: int) -> int:
        """Allocate slots for ``mnode``'s subtree; fingerprints computed
        bottom-up with the same payload format as TNode construction."""
        digest = _tree._digest
        sigs = self.sigs
        last_kid: dict[int, int] = {}
        top = None
        # (mnode, parent slot, position, slot, post)
        stack = [(mnode, parent_slot, kpos, NIL, False)]
        while stack:
            n, p, kp, slot, post = stack.pop()
            if not post:
                slot = self._alloc()
                if top is None:
                    top = slot
                sig = sigs[n.tag]
                self.tags[slot] = tag_id(n.tag)
                self.sig[slot] = sig
                self.var[slot] = sig.variadic is not None
                self.parent[slot] = p
                self.pos[slot] = kp
                self.lits[slot] = tuple(n.lits[l] for l in sig.lit_links)
                u = n.uri
                if u in self.index:
                    raise ArenaError(f"duplicate URI {u!r} in MTree")
                self.uris[slot] = u
                self.index[u] = slot
                lk = last_kid.get(p)
                if lk is None:
                    self.first_kid[p] = slot
                else:
                    self.next_sib[lk] = slot
                last_kid[p] = slot
                stack.append((n, p, kp, slot, True))
                kids = self._mnode_kids(n)
                for i in range(len(kids) - 1, -1, -1):
                    kpos_i, kid = kids[i]
                    stack.append((kid, slot, kpos_i, NIL, False))
            else:
                self._rehash_slot(slot, digest)
        return top if top is not None else NIL

    def _rehash_slot(self, i: int, digest) -> None:
        """Recompute fingerprints/height/size of slot ``i`` from its kids
        (which must be up to date).  Payloads match TNode construction
        byte for byte."""
        sfp = self.sfp
        lfp = self.lfp
        lits = self.lits[i]
        struct_parts = [_tag_bytes(tag_name(self.tags[i]))]
        lit_parts = [_lit_fingerprint(lits) if lits else b""]
        h = 0
        sz = 1
        height = self.height
        size = self.size
        k = self.first_kid[i]
        next_sib = self.next_sib
        while k != NIL:
            if height[k] > h:
                h = height[k]
            sz += size[k]
            struct_parts.append(sfp[k])
            lit_parts.append(lfp[k])
            k = next_sib[k]
        self.height[i] = h + 1
        self.size[i] = sz
        sfp[i] = digest(b"".join(struct_parts))
        lfp[i] = digest(b"".join(lit_parts))

    def _refresh_root_meta(self) -> None:
        """Recompute the virtual root's fingerprints/height/size."""
        self._rehash_slot(0, _tree._digest)

    def _alloc(self) -> int:
        free = self.free
        if free:
            i = free.pop()
            self.first_kid[i] = NIL
            self.next_sib[i] = NIL
            self.nodes[i] = None
            return i
        i = len(self.parent)
        self.tags.append(0)
        self.sig.append(ROOT_SIGNATURE)
        self.var.append(False)
        self.parent.append(NIL)
        self.first_kid.append(NIL)
        self.next_sib.append(NIL)
        self.pos.append(0)
        self.height.append(1)
        self.size.append(1)
        self.sfp.append(b"")
        self.lfp.append(b"")
        self.lits.append(())
        self.uris.append(None)
        self.nodes.append(None)
        return i

    def _free_slot(self, i: int) -> None:
        u = self.uris[i]
        if u is not None or i != 0:
            self.index.pop(u, None)
        self.uris[i] = None
        self.nodes[i] = None
        self.sfp[i] = b""
        self.lfp[i] = b""
        self.lits[i] = ()
        self.parent[i] = NIL
        self.next_sib[i] = NIL
        self._dirty.discard(i)
        self.free.append(i)

    # -- chain surgery --------------------------------------------------------

    def kid_slots(self, i: int) -> list[int]:
        out = []
        k = self.first_kid[i]
        ns = self.next_sib
        while k != NIL:
            out.append(k)
            k = ns[k]
        return out

    def _chain_remove(self, p: int, x: int) -> None:
        k = self.first_kid[p]
        if k == x:
            self.first_kid[p] = self.next_sib[x]
        else:
            while k != NIL and self.next_sib[k] != x:
                k = self.next_sib[k]
            if k == NIL:
                raise ArenaError(
                    f"slot {x} is not a kid of slot {p} (chain corrupt?)"
                )
            self.next_sib[k] = self.next_sib[x]
        self.next_sib[x] = NIL
        self.parent[x] = NIL

    def _chain_insert(self, p: int, x: int, position: int) -> None:
        """Insert ``x`` into ``p``'s kid chain at canonical ``position``."""
        pos = self.pos
        prev = NIL
        k = self.first_kid[p]
        while k != NIL and pos[k] < position:
            prev = k
            k = self.next_sib[k]
        if prev == NIL:
            self.next_sib[x] = self.first_kid[p]
            self.first_kid[p] = x
        else:
            self.next_sib[x] = self.next_sib[prev]
            self.next_sib[prev] = x
        self.parent[x] = p
        pos[x] = position

    def _link_position(self, p: int, link: Link) -> int:
        if self.var[p]:
            try:
                return int(link)
            except ValueError:
                raise ArenaError(
                    f"non-numeric link {link!r} on variadic slot {p}"
                ) from None
        m = _kid_pos_map(self.sig[p])
        try:
            return m[link]
        except KeyError:
            raise ArenaError(
                f"slot {p} ({tag_name(self.tags[p])}) has no kid link {link!r}"
            ) from None

    def _slot_of(self, uri: URI) -> int:
        try:
            return self.index[uri]
        except KeyError:
            raise ArenaError(f"URI {uri!r} is not in the arena index") from None

    # -- incremental maintenance (MTree.patch hook) ---------------------------

    def mark_dirty(self, i: int) -> None:
        """Mark ``i`` and its ancestor chain dirty (stops at the first
        already-dirty ancestor; the dirty set is upward-closed)."""
        dirty = self._dirty
        parent = self.parent
        while i != NIL and i not in dirty:
            dirty.add(i)
            i = parent[i]

    def process_edit(self, edit: PrimitiveEdit) -> None:
        """Mirror one *already validated and applied* MTree edit.

        Called by :meth:`MTree.process_edit` after the mutation
        succeeded, so no validation happens here; inconsistencies raise
        :class:`ArenaError` (they indicate the arena lost sync).
        Fingerprints are not recomputed here — the touched region is
        marked dirty and :meth:`reflow` settles it on demand.
        """
        if self._stale:
            return  # a reload is pending anyway; skip incremental work
        t = type(edit)
        if t is Detach:
            x = self._slot_of(edit.node.uri)
            p = self._slot_of(edit.parent.uri)
            if self.parent[x] != p:
                raise ArenaError(
                    f"detach of slot {x}: arena parent {self.parent[x]} != {p}"
                )
            self._chain_remove(p, x)
            self.mark_dirty(p)
        elif t is Attach:
            x = self._slot_of(edit.node.uri)
            p = self._slot_of(edit.parent.uri)
            if self.parent[x] != NIL:
                raise ArenaError(f"attach of slot {x}: already attached")
            self._chain_insert(p, x, self._link_position(p, edit.link))
            self.mark_dirty(p)
        elif t is Load:
            if edit.node.uri in self.index:
                raise ArenaError(f"load reuses live URI {edit.node.uri!r}")
            sig = self.sigs[edit.node.tag]
            i = self._alloc()
            self.tags[i] = tag_id(edit.node.tag)
            self.sig[i] = sig
            self.var[i] = sig.variadic is not None
            self.parent[i] = NIL
            self.pos[i] = 0
            given = dict(edit.lits)
            self.lits[i] = tuple(given[l] for l in sig.lit_links)
            self.uris[i] = edit.node.uri
            self.index[edit.node.uri] = i
            variadic = sig.variadic is not None
            last = NIL
            for link, kuri in edit.kids:
                k = self._slot_of(kuri)
                if self.parent[k] != NIL:
                    raise ArenaError(
                        f"load kid {kuri!r} is not a detached root"
                    )
                self.parent[k] = i
                self.pos[k] = (
                    int(link) if variadic else _kid_pos_map(sig)[link]
                )
                if last == NIL:
                    self.first_kid[i] = k
                else:
                    self.next_sib[last] = k
                last = k
            self.mark_dirty(i)
        elif t is Unload:
            i = self._slot_of(edit.node.uri)
            if self.parent[i] != NIL:
                raise ArenaError(f"unload of slot {i}: still attached")
            k = self.first_kid[i]
            while k != NIL:
                nxt = self.next_sib[k]
                self.parent[k] = NIL
                self.next_sib[k] = NIL
                k = nxt
            self.first_kid[i] = NIL
            self._free_slot(i)
        elif t is Update:
            i = self._slot_of(edit.node.uri)
            links = self.sig[i].lit_links
            given = dict(edit.new_lits)
            self.lits[i] = tuple(
                given.get(l, old) for l, old in zip(links, self.lits[i])
            )
            self.mark_dirty(i)
        else:  # pragma: no cover - defensive
            raise ArenaError(f"unknown edit kind {t.__name__}")

    def invalidate(self) -> None:
        """The backing tree was mutated outside the edit interface; the
        next read reloads from the MTree (or fails without one)."""
        self._stale = True

    def reflow(self) -> None:
        """Recompute fingerprints/heights/sizes over the dirty region,
        bottom-up, descending only into dirty kids."""
        if self._stale:
            self._reload_mtree()
            return
        dirty = self._dirty
        if not dirty:
            return
        digest = _tree._digest
        parent = self.parent
        first_kid = self.first_kid
        next_sib = self.next_sib
        # the dirty set is upward-closed, so its roots have no dirty parent
        roots = [i for i in dirty if parent[i] == NIL or parent[i] not in dirty]
        stack: list[tuple[int, bool]] = [(r, False) for r in roots]
        while stack:
            i, post = stack.pop()
            if post:
                self._rehash_slot(i, digest)
                # the object view (if any) no longer matches
                if i != 0:
                    self.nodes[i] = None
                continue
            stack.append((i, True))
            k = first_kid[i]
            while k != NIL:
                if k in dirty:
                    stack.append((k, False))
                k = next_sib[k]
        dirty.clear()

    # -- session roll-forward -------------------------------------------------

    def apply_patch(self, script, fresh: list[TNode]) -> None:
        """Roll this (source) arena forward across one diff round.

        ``script`` is the just-emitted edit script and ``fresh`` the edit
        buffer's record of every TNode object Step 4 created (loads and
        spine rebuilds).  Structural edits are replayed on the chains;
        then every fresh node overwrites its slot's content columns —
        ``fresh`` covers exactly the slots whose fingerprints, literals,
        heights or sizes changed, because the object patch rebuilds every
        ancestor of a change.  O(script + changed); raises
        :class:`ArenaError` on any inconsistency.
        """
        for edit in script.primitives():
            t = type(edit)
            if t is Update:
                continue  # covered by the fresh-node overwrite
            self.process_edit(edit)
        index = self.index
        sfp = self.sfp
        lfp = self.lfp
        height = self.height
        size = self.size
        lits = self.lits
        nodes = self.nodes
        for n in fresh:
            i = index.get(n.uri)
            if i is None:
                raise ArenaError(f"fresh node URI {n.uri!r} has no slot")
            sfp[i] = n.structure_hash
            lfp[i] = n.literal_hash
            height[i] = n.height
            size[i] = n.size
            lits[i] = n.lits
            nodes[i] = n
        # replaying a well-typed script leaves no pending recomputation
        # beyond the virtual root (all changed slots were overwritten)
        self._dirty.clear()
        self._refresh_root_meta()

    # -- reads ----------------------------------------------------------------

    def root_slot(self) -> int:
        """The main tree's root slot, or ``NIL`` for an empty tree."""
        if self._stale:
            self._reload_mtree()
        return self.first_kid[0]

    def preorder_slots(self, start: Optional[int] = None) -> Iterator[int]:
        """Pre-order slot traversal (kids in canonical order)."""
        if start is None:
            start = self.root_slot()
        if start == NIL:
            return
        first_kid = self.first_kid
        next_sib = self.next_sib
        stack = [start]
        while stack:
            i = stack.pop()
            yield i
            kids = []
            k = first_kid[i]
            while k != NIL:
                kids.append(k)
                k = next_sib[k]
            stack.extend(reversed(kids))

    def tree_fingerprint(self) -> bytes:
        """One digest over the whole tree: URIs plus both per-node
        fingerprints in pre-order.  Two arenas have equal fingerprints
        iff they represent the same tree with the same URIs — the
        equality the incremental-consistency property tests check."""
        if self._stale:
            self._reload_mtree()
        if self._dirty:
            self.reflow()
        r = self.first_kid[0]
        if r == NIL:
            return _tree._digest(b"<empty>")
        parts: list[bytes] = []
        uris = self.uris
        sfp = self.sfp
        lfp = self.lfp
        for i in self.preorder_slots(r):
            parts.append(f"{uris[i]!r}\x00".encode("utf8"))
            parts.append(sfp[i])
            parts.append(lfp[i])
        return _tree._digest(b"".join(parts))

    def packed(self) -> dict[str, Any]:
        """The dense struct-of-arrays export: live slots of the main tree
        in pre-order, index columns as C-int ``array`` buffers, and all
        fingerprints in one contiguous byte-buffer (``sfp . lfp`` per
        node, fixed record stride).  This is the serialization-level
        layout; the working columns stay as plain lists because CPython
        boxes ``array`` reads back into ints on every access, which
        benchmarks slower on the diff hot loop.
        """
        if self._stale:
            self._reload_mtree()
        if self._dirty:
            self.reflow()
        order = list(self.preorder_slots())
        remap = {slot: i for i, slot in enumerate(order)}
        remap[NIL] = NIL
        remap[0] = NIL  # the virtual root is not exported
        fps = bytearray()
        for slot in order:
            fps += self.sfp[slot]
            fps += self.lfp[slot]
        stride = (len(fps) // len(order)) if order else 0
        return {
            "tags": array("q", (self.tags[s] for s in order)),
            "parent": array("q", (remap[self.parent[s]] for s in order)),
            "first_kid": array("q", (remap[self.first_kid[s]] for s in order)),
            "next_sib": array("q", (remap[self.next_sib[s]] for s in order)),
            "pos": array("q", (self.pos[s] for s in order)),
            "height": array("q", (self.height[s] for s in order)),
            "size": array("q", (self.size[s] for s in order)),
            "uris": tuple(self.uris[s] for s in order),
            "fingerprints": bytes(fps),
            "fingerprint_stride": stride,
            "tag_names": tuple(_TAG_NAMES),
        }

    def verify_consistent(self) -> list[str]:
        """Full from-scratch consistency check (tests / debugging).

        Recomputes every reachable slot's fingerprints, height and size
        and cross-checks chains, parents, positions, the URI index and
        the object view.  Returns a list of problem descriptions (empty
        means consistent).
        """
        if self._stale:
            self._reload_mtree()
        if self._dirty:
            self.reflow()
        problems: list[str] = []
        digest = _tree._digest
        reachable: set[int] = set()
        # iterative post-order recomputation over the main tree
        order: list[int] = []
        for i in self.preorder_slots(0):
            reachable.add(i)
            order.append(i)
        recomputed: dict[int, tuple[bytes, bytes, int, int]] = {}
        for i in reversed(order):
            lits = self.lits[i]
            struct_parts = [_tag_bytes(tag_name(self.tags[i]))]
            lit_parts = [_lit_fingerprint(lits) if lits else b""]
            h = 0
            sz = 1
            prev_pos = None
            k = self.first_kid[i]
            while k != NIL:
                if self.parent[k] != i:
                    problems.append(f"slot {k}: parent {self.parent[k]} != {i}")
                if prev_pos is not None and self.pos[k] <= prev_pos:
                    problems.append(f"slot {k}: kid positions not increasing")
                prev_pos = self.pos[k]
                s, l, kh, ks = recomputed[k]
                struct_parts.append(s)
                lit_parts.append(l)
                if kh > h:
                    h = kh
                sz += ks
                k = self.next_sib[k]
            s = digest(b"".join(struct_parts))
            l = digest(b"".join(lit_parts))
            recomputed[i] = (s, l, h + 1, sz)
            if self.sfp[i] != s:
                problems.append(f"slot {i}: structural fingerprint stale")
            if self.lfp[i] != l:
                problems.append(f"slot {i}: literal fingerprint stale")
            if self.height[i] != h + 1:
                problems.append(
                    f"slot {i}: height {self.height[i]} != {h + 1}"
                )
            if self.size[i] != sz:
                problems.append(f"slot {i}: size {self.size[i]} != {sz}")
            n = self.nodes[i]
            if n is not None:
                if n.uri != self.uris[i]:
                    problems.append(
                        f"slot {i}: node view URI {n.uri!r} != {self.uris[i]!r}"
                    )
                if n.structure_hash != self.sfp[i] or n.literal_hash != self.lfp[i]:
                    problems.append(f"slot {i}: node view hashes stale")
        if not self.has_duplicates:
            for u, i in self.index.items():
                if i >= len(self.uris) or self.uris[i] != u:
                    problems.append(f"index entry {u!r} -> {i} is stale")
            for i in reachable:
                u = self.uris[i]
                if self.index.get(u) != i:
                    problems.append(f"slot {i}: URI {u!r} not indexed to it")
        return problems


# -- the TNode-side cache -----------------------------------------------------


def arena_of(tree: TNode) -> TreeArena:
    """The (read-only) flat view of an object tree, cached on the root.

    A loop that diffs against the same target tree several times pays
    the flatten once per tree.
    Safe because flat diffing keeps all per-diff state in external
    arrays — a cached target arena is never mutated.
    """
    try:
        a = tree._arena
        if a is not None:
            return a
    except AttributeError:
        pass
    a = TreeArena.from_tree(tree)
    tree._arena = a
    if OBS.enabled:
        _metrics().counter("repro.arena.flattens").inc()
    return a
