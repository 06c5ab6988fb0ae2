"""The standard semantics of truechange (Section 3.2, Figure 2).

An :class:`MTree` is a mutable tree made of :class:`MNode` nodes together
with an index of all loaded nodes, so that every edit operation is
processed in constant time.  The pre-defined root node has URI ``None``
and a single slot :data:`~repro.core.node.ROOT_LINK`.

The module also provides executable versions of the paper's metatheory
ingredients:

* :func:`mnode_well_typed` — MNode typing relative to empty slots
  (Definition 3.3),
* :func:`mtree_well_typed` — MTree typing relative to slots and roots
  (Definition 3.4),
* :func:`check_syntactic_compliance` — Definition 3.5,

which the test suite uses to check Theorem 3.6 / Lemmas 3.7–3.8 on
concrete and randomly generated scripts.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional

from repro.observability import OBS, metrics as _metrics, span as _span

from .edits import Attach, Detach, Edit, EditScript, Load, PrimitiveEdit, Unload, Update
from .node import Link, Node, ROOT_LINK, ROOT_NODE, ROOT_TAG
from .signature import SignatureRegistry
from .tree import literal_eq
from .typecheck import Slot
from .types import Type
from .uris import ROOT_URI, URI


class PatchError(Exception):
    """Patching failed (only possible for ill-typed or non-compliant scripts).

    Structured: carries the failing edit (``edit``), its primitive index in
    the script (``edit_index``, assigned by :meth:`MTree.patch`), and
    whether a transactional application undid all prior edits before
    raising (``rolled_back``).  The rendered message always names the edit
    index and operation once they are known.
    """

    def __init__(
        self,
        message: str,
        *,
        edit: Optional[Edit] = None,
        edit_index: Optional[int] = None,
        rolled_back: bool = False,
    ) -> None:
        super().__init__(message)
        self.message = message
        self.edit = edit
        self.edit_index = edit_index
        self.rolled_back = rolled_back

    def __str__(self) -> str:
        parts = []
        if self.edit_index is not None:
            op = type(self.edit).__name__.lower() if self.edit is not None else "edit"
            parts.append(f"edit #{self.edit_index} ({op}): ")
        parts.append(self.message)
        if self.rolled_back:
            parts.append(" [rolled back]")
        return "".join(parts)


class UnknownUriError(PatchError):
    """An edit refers to a URI that is not in the tree's index."""


class UnknownLinkError(PatchError):
    """An edit refers to a link the target node does not have."""


class SlotOccupiedError(PatchError):
    """An attach targets a slot that already holds a subtree."""


class DetachMismatchError(PatchError):
    """A detach names a node that is not attached at the given slot."""


class UriConflictError(PatchError):
    """A load reuses a URI that is already in the tree's index."""


class ArityMismatchError(PatchError):
    """An unload's kid list does not match the node's actual kids."""


class MNode:
    """A mutable tree node: URI + tag, kid links, literal links.

    Empty slots are represented as ``None`` entries in :attr:`kids` —
    exactly the representation the truechange type system legitimizes:
    a link points to *at most one* subtree at any time.
    """

    __slots__ = ("node", "kids", "lits")

    def __init__(
        self,
        node: Node,
        kids: Optional[dict[Link, Optional["MNode"]]] = None,
        lits: Optional[dict[Link, Any]] = None,
    ) -> None:
        self.node = node
        self.kids: dict[Link, Optional[MNode]] = kids if kids is not None else {}
        self.lits: dict[Link, Any] = lits if lits is not None else {}

    @property
    def tag(self) -> str:
        return self.node.tag

    @property
    def uri(self) -> URI:
        return self.node.uri

    def iter_subtree(self) -> Iterator["MNode"]:
        """Pre-order traversal of this node and all present descendants."""
        stack = [self]
        while stack:
            n = stack.pop()
            yield n
            stack.extend(k for k in n.kids.values() if k is not None)

    def to_tuple(self, with_uris: bool = False) -> tuple:
        """A hashable snapshot for equality checks.

        With ``with_uris=False`` this implements the paper's ``≃``: equality
        of shape, tags, and literals, ignoring URIs (URIs of the target tree
        are irrelevant, Section 1).

        Iterative (post-order over an explicit stack), like
        :meth:`TNode.to_tuple`: deep trees must not overflow the C stack.
        """
        # (node, its sorted kid items once pre-visited, present-kid count)
        stack: list[tuple[MNode, Optional[list], int]] = [(self, None, 0)]
        done: list[tuple] = []
        while stack:
            n, items, present = stack.pop()
            if items is None:
                items = sorted(n.kids.items())
                kids = [k for _, k in items if k is not None]
                stack.append((n, items, len(kids)))
                stack.extend((k, None, 0) for k in reversed(kids))
                continue
            at = len(done) - present
            subs = iter(done[at:])
            del done[at:]
            kid_tuples = tuple(
                (l, None if k is None else next(subs)) for l, k in items
            )
            lits = tuple(sorted(n.lits.items(), key=lambda kv: kv[0]))
            head = (n.tag, n.uri) if with_uris else n.tag
            done.append((head, kid_tuples, lits))
        return done[0]

    def pretty(self) -> str:
        parts = [f"{v!r}" for _, v in sorted(self.lits.items())]
        parts += [
            (k.pretty() if k is not None else "□")
            for _, k in sorted(self.kids.items())
        ]
        inner = ", ".join(parts)
        return f"{self.tag}_{self.uri}({inner})" if parts else f"{self.tag}_{self.uri}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MNode({self.pretty()})"


class MTree:
    """A mutable tree with an index of all loaded nodes (Figure 2)."""

    __slots__ = ("root", "index", "arena")

    def __init__(self) -> None:
        self.root = MNode(ROOT_NODE, kids={ROOT_LINK: None}, lits={})
        self.index: dict[URI, MNode] = {ROOT_URI: self.root}
        # optional flat mirror, kept in sync by process_edit
        self.arena = None

    def attach_arena(self, sigs: SignatureRegistry):
        """Build (or return) a :class:`~repro.core.arena.TreeArena` mirror
        of this tree.  Once attached, every edit applied through
        :meth:`process_edit` keeps the arena incrementally consistent —
        fingerprints over the touched region are recomputed lazily by the
        arena's ``reflow``.  Code that mutates the tree behind the edit
        interface must call ``arena.invalidate()`` (the transactional
        rollback path does)."""
        if self.arena is None:
            from .arena import TreeArena

            self.arena = TreeArena.from_mtree(self, sigs)
        return self.arena

    # -- standard semantics ------------------------------------------------

    def patch(
        self,
        script: EditScript,
        *,
        atomic: bool = False,
        sigs: Optional[SignatureRegistry] = None,
        verify: bool = False,
        preflight: str = "scan",
        fault_hook: Optional[Callable[[int, PrimitiveEdit], None]] = None,
    ) -> "MTree":
        """``⟦∆⟧``: apply every edit of ``script`` to this tree in place.

        With ``atomic=True`` the application is transactional: the script
        is pre-flight typechecked (when ``sigs`` is given) and an undo
        journal rolls the tree back to a bit-identical state if any edit
        raises — see :func:`repro.robustness.patch_atomic`.  ``preflight``
        picks the typecheck for the atomic path: ``"scan"`` reads the
        tree's actual root/slot state; ``"static"`` checks Definition 3.1
        from the closed state without consulting the tree — equivalent
        whenever the tree is closed, and O(script) instead of O(tree).
        ``verify=True`` runs the tree-integrity verifier after patching
        (and, when combined with ``atomic``, rolls back if verification
        fails).  ``fault_hook`` is called as
        ``hook(primitive_index, edit)`` before each edit; it exists for
        fault-injection tests and is applied on both paths.

        On failure the raised :class:`PatchError` names the primitive edit
        index and operation.
        """
        if atomic:
            from repro.robustness import patch_atomic

            return patch_atomic(
                self,
                script,
                sigs=sigs,
                verify=verify,
                preflight=preflight,
                fault_hook=fault_hook,
            )
        process = self.process_edit
        i, edit = -1, None
        try:
            if fault_hook is not None:
                for i, edit in enumerate(script.primitives()):
                    fault_hook(i, edit)
                    process(edit)
            elif not OBS.enabled:
                for i, edit in enumerate(script.primitives()):
                    process(edit)
            else:
                # instrumented path: per-kind edit counters + an apply span
                counts: dict[str, int] = {}
                with _span("repro.patch.apply"):
                    for i, edit in enumerate(script.primitives()):
                        process(edit)
                        kind = type(edit).__name__.lower()
                        counts[kind] = counts.get(kind, 0) + 1
                m = _metrics()
                m.counter("repro.patch.scripts").inc()
                for kind, n in counts.items():
                    m.counter(f"repro.patch.edits.{kind}").inc(n)
        except PatchError as exc:
            if exc.edit_index is None:
                exc.edit_index = i
                if exc.edit is None:
                    exc.edit = edit
            raise
        if verify:
            from repro.robustness import verify_tree

            verify_tree(self, sigs)
        return self

    def process_edit(self, edit: PrimitiveEdit) -> None:
        """Apply a single edit, updating nodes and the index (Figure 2).

        Each edit is validated against the actual tree state before any
        mutation, so a failing edit leaves the tree untouched: a detach
        must name the subtree actually held by the slot, an attach must
        target an existing empty slot, a load must use a fresh URI, an
        unload must list the node's actual kids, and an update may only
        touch literal links the node has.  Well-typed, syntactically
        compliant scripts (Definitions 3.1/3.5) never trip these checks.
        """
        if isinstance(edit, Detach):
            parent = self._lookup(edit.parent.uri, edit)
            if edit.link not in parent.kids:
                raise UnknownLinkError(
                    f"parent {edit.parent} has no slot {edit.link!r}", edit=edit
                )
            held = parent.kids[edit.link]
            if held is None:
                raise DetachMismatchError(
                    f"slot {edit.parent}.{edit.link} is empty, cannot detach "
                    f"{edit.node}",
                    edit=edit,
                )
            if held.uri != edit.node.uri:
                raise DetachMismatchError(
                    f"slot {edit.parent}.{edit.link} holds {held.node}, not "
                    f"{edit.node}",
                    edit=edit,
                )
            parent.kids[edit.link] = None
        elif isinstance(edit, Attach):
            parent = self._lookup(edit.parent.uri, edit)
            node = self._lookup(edit.node.uri, edit)
            if edit.link not in parent.kids:
                raise UnknownLinkError(
                    f"parent {edit.parent} has no slot {edit.link!r}", edit=edit
                )
            held = parent.kids[edit.link]
            if held is not None:
                raise SlotOccupiedError(
                    f"slot {edit.parent}.{edit.link} already holds {held.node}",
                    edit=edit,
                )
            parent.kids[edit.link] = node
        elif isinstance(edit, Load):
            if edit.node.uri in self.index:
                raise UriConflictError(
                    f"loaded URI {edit.node.uri} is already in the index",
                    edit=edit,
                )
            kid_nodes: dict[Link, Optional[MNode]] = {
                link: self._lookup(uri, edit) for link, uri in edit.kids
            }
            self.index[edit.node.uri] = MNode(edit.node, kid_nodes, dict(edit.lits))
        elif isinstance(edit, Unload):
            node = self._lookup(edit.node.uri, edit)
            if len(edit.kids) != len(node.kids):
                raise ArityMismatchError(
                    f"unload lists {len(edit.kids)} kid(s) but {edit.node} "
                    f"has {len(node.kids)}",
                    edit=edit,
                )
            for link, kid_uri in edit.kids:
                kid = node.kids.get(link)
                if kid is None or kid.uri != kid_uri:
                    raise ArityMismatchError(
                        f"unload kid {link!r} is not {kid_uri} "
                        f"(actual: {kid.node if kid is not None else 'empty'})",
                        edit=edit,
                    )
            del self.index[edit.node.uri]
        elif isinstance(edit, Update):
            node = self._lookup(edit.node.uri, edit)
            for link, _ in edit.new_lits:
                if link not in node.lits:
                    raise UnknownLinkError(
                        f"node {edit.node} has no literal link {link!r}", edit=edit
                    )
            node.lits.update(dict(edit.new_lits))
        else:  # pragma: no cover - defensive
            raise PatchError(f"unknown edit kind {type(edit).__name__}", edit=edit)
        arena = self.arena
        if arena is not None:
            # mirror the (already validated and applied) edit
            arena.process_edit(edit)

    def _lookup(self, uri: URI, edit: PrimitiveEdit) -> MNode:
        try:
            return self.index[uri]
        except KeyError:
            raise UnknownUriError(
                f"edit refers to unknown URI {uri}", edit=edit
            ) from None

    # -- views ---------------------------------------------------------------

    @property
    def main(self) -> Optional[MNode]:
        """The tree hanging off the pre-defined root slot, if any."""
        return self.root.kids[ROOT_LINK]

    def to_tuple(self, with_uris: bool = False) -> tuple:
        main = self.main
        return ("<empty>",) if main is None else main.to_tuple(with_uris)

    def structure_equals(self, other: "MTree") -> bool:
        """The paper's ``≃`` on whole trees (ignores URIs)."""
        return self.to_tuple(with_uris=False) == other.to_tuple(with_uris=False)

    def node_count(self) -> int:
        """Number of nodes attached under the root (excludes the root)."""
        main = self.main
        return 0 if main is None else sum(1 for _ in main.iter_subtree())

    def pretty(self) -> str:
        main = self.main
        return "<empty>" if main is None else main.pretty()

    def copy(self) -> "MTree":
        """Deep-copy this tree (same URIs, fresh MNodes)."""
        out = MTree()

        def go(n: MNode) -> MNode:
            m = MNode(n.node, {}, dict(n.lits))
            out.index[m.uri] = m
            for link, kid in n.kids.items():
                m.kids[link] = None if kid is None else go(kid)
            return m

        main = self.main
        if main is not None:
            out.root.kids[ROOT_LINK] = go(main)
        # detached roots (anything indexed but not reachable from the root)
        reachable = {n.uri for n in out.root.iter_subtree()}
        for uri, n in self.index.items():
            if uri not in reachable and uri not in out.index:
                out.index[uri] = go(n)
        return out


# -- Definitions 3.3 - 3.5 as executable checks -------------------------------


class TypingViolation(Exception):
    """An MNode/MTree typing invariant (Definitions 3.3/3.4) is violated."""


def mnode_well_typed(
    sigs: SignatureRegistry,
    slots: dict[Slot, Type],
    n: MNode,
) -> Type:
    """Definition 3.3: check ``Σ, S ⊢ n : T`` and return ``T``.

    Raises :class:`TypingViolation` if any condition fails.
    """
    sig = sigs[n.tag]
    if set(n.lits) != set(sig.lit_links):
        raise TypingViolation(f"{n.node}: literal links {sorted(n.lits)} != signature")
    for link in sig.lit_links:
        base = sig.lit_type(link)
        if not base.check(n.lits[link]):
            raise TypingViolation(f"{n.node}.{link}: literal {n.lits[link]!r} not a {base}")
    if sig.is_variadic:
        kid_links = tuple(str(i) for i in range(len(n.kids)))
        if set(n.kids) != set(kid_links):
            raise TypingViolation(
                f"{n.node}: variadic kid links {sorted(n.kids)} are not consecutive"
            )
    else:
        kid_links = sig.kid_links
        if set(n.kids) != set(kid_links):
            raise TypingViolation(f"{n.node}: kid links {sorted(n.kids)} != signature")
    for link in kid_links:
        expected = sig.kid_type(link)
        kid = n.kids[link]
        if kid is None:
            slot = (n.uri, link)
            if slot not in slots:
                raise TypingViolation(f"{n.node}.{link}: null kid but no tracked slot")
            if not sigs.is_subtype(slots[slot], expected):
                raise TypingViolation(
                    f"{n.node}.{link}: slot type {slots[slot]} not <: {expected}"
                )
        else:
            actual = mnode_well_typed(sigs, slots, kid)
            if not sigs.is_subtype(actual, expected):
                raise TypingViolation(
                    f"{n.node}.{link}: kid type {actual} not <: {expected}"
                )
    return sig.result


def mtree_well_typed(
    sigs: SignatureRegistry,
    slots: dict[Slot, Type],
    roots: dict[URI, Type],
    t: MTree,
) -> None:
    """Definition 3.4: check ``Σ, S, R ⊢ t``."""
    for (p, link), _ in slots.items():
        if p not in t.index:
            raise TypingViolation(f"slot parent {p} not in index")
        if link not in t.index[p].kids:
            raise TypingViolation(f"slot parent {p} has no link {link!r}")
    for uri, expected in roots.items():
        if uri not in t.index:
            raise TypingViolation(f"root {uri} not in index")
        actual = mnode_well_typed(sigs, slots, t.index[uri])
        if not sigs.is_subtype(actual, expected):
            raise TypingViolation(f"root {uri} has type {actual}, expected <: {expected}")


class ComplianceError(Exception):
    """An edit script is not syntactically compliant (Definition 3.5)."""


def check_syntactic_compliance(script: EditScript, t: MTree) -> None:
    """Definition 3.5: check ``∆ ≺ t``.

    The check simulates the script against a copy of ``t`` because the
    conditions on Detach/Unload refer to the tree state at the time the
    edit executes.
    """
    sim = t.copy()
    loaded: set[URI] = set()
    for edit in script.primitives():
        if isinstance(edit, Detach):
            p = sim.index.get(edit.parent.uri)
            if p is None:
                raise ComplianceError(f"{edit}: parent URI unknown")
            if p.tag != edit.parent.tag:
                raise ComplianceError(f"{edit}: parent tag mismatch ({p.tag})")
            kid = p.kids.get(edit.link)
            if kid is None:
                raise ComplianceError(f"{edit}: parent slot {edit.link!r} is empty")
            if kid.uri != edit.node.uri or kid.tag != edit.node.tag:
                raise ComplianceError(f"{edit}: slot holds {kid.node}, not {edit.node}")
        elif isinstance(edit, Load):
            if edit.node.uri in sim.index or edit.node.uri in loaded:
                raise ComplianceError(f"{edit}: URI {edit.node.uri} is not fresh")
            loaded.add(edit.node.uri)
        elif isinstance(edit, Unload):
            n = sim.index.get(edit.node.uri)
            if n is None:
                raise ComplianceError(f"{edit}: node URI unknown")
            if n.tag != edit.node.tag:
                raise ComplianceError(f"{edit}: node tag mismatch ({n.tag})")
            for link, kid_uri in edit.kids:
                kid = n.kids.get(link)
                if kid is None or kid.uri != kid_uri:
                    raise ComplianceError(f"{edit}: kid {link!r} is not {kid_uri}")
            for link, value in edit.lits:
                if link not in n.lits or not literal_eq(n.lits[link], value):
                    raise ComplianceError(f"{edit}: literal {link!r} is not {value!r}")
        elif isinstance(edit, Update):
            n = sim.index.get(edit.node.uri)
            if n is None:
                raise ComplianceError(f"{edit}: node URI unknown")
            for link, value in edit.old_lits:
                if link not in n.lits or not literal_eq(n.lits[link], value):
                    raise ComplianceError(f"{edit}: old literal {link!r} is not {value!r}")
        # Attach needs no extra checks beyond the strict runtime validation
        # below (the type system ensures the rest already).
        try:
            sim.process_edit(edit)
        except PatchError as exc:
            raise ComplianceError(f"{edit}: {exc.message}") from None
