"""Diffable trees (Section 4.1).

:class:`TNode` is the datatype-generic tree representation truediff works
on: an immutable node driven by a constructor :class:`~repro.core.signature.Signature`,
carrying a URI and two equivalence hashes.

* :attr:`TNode.structure_hash` encodes *structural equivalence*: two trees
  are structurally equivalent iff they are equal except for literal values
  (same shape, same tags).
* :attr:`TNode.literal_hash` encodes *literal equivalence*: equality except
  for node tags (same literals, in the same tree positions).
* :attr:`TNode.identity_hash` combines both — equal iff the trees are equal.

The hashes are computed bottom-up at construction time, so every node
costs O(1) amortized hashing work (Theorem 4.1, Step 1).  The digest
function is pluggable (:func:`set_hash_scheme`): the default ``blake2b``
scheme uses 16-byte BLAKE2b digests (fast, short dictionary keys), while
the paper-faithful ``sha256`` scheme remains selectable for ablations.
Trees that are diffed against each other must be built under the same
scheme — digests of different schemes never compare equal.

The mutable fields :attr:`share` and :attr:`assigned` hold per-diff state
(Steps 2-3 of truediff).  They are *generation-stamped*: every
:class:`~repro.core.registry.SubtreeRegistry` draws a fresh generation
number from :func:`next_diff_generation`, and a node's ``share``/
``assigned`` values are only meaningful while ``node.gen`` equals the
current registry's generation.  Stale state from earlier diffs is simply
ignored, so :func:`~repro.core.diff.diff` never has to sweep the trees
with :func:`clear_diff_state` (kept for tests and manual use).
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from hashlib import blake2b, sha256
from typing import Any, Callable, Iterator, Optional, Sequence, TYPE_CHECKING

from .node import Link, Node, Tag
from .signature import Signature, SignatureError, SignatureRegistry
from .uris import URI, URIGen

if TYPE_CHECKING:  # pragma: no cover
    from .registry import SubtreeShare


# -- hash schemes (Step 1) ---------------------------------------------------


def _blake2b_digest(data: bytes) -> bytes:
    return blake2b(data, digest_size=16).digest()


def _sha256_digest(data: bytes) -> bytes:
    return sha256(data).digest()


#: Available digest functions, keyed by scheme name.
HASH_SCHEMES: dict[str, Callable[[bytes], bytes]] = {
    "blake2b": _blake2b_digest,
    "sha256": _sha256_digest,
}

_hash_scheme_name = "blake2b"
_digest = HASH_SCHEMES[_hash_scheme_name]


def get_hash_scheme() -> str:
    """Name of the digest scheme used for newly constructed nodes."""
    return _hash_scheme_name


def set_hash_scheme(name: str) -> str:
    """Select the digest scheme for newly constructed nodes.

    Returns the previous scheme name.  Existing nodes keep the hashes
    they were built with; do not mix schemes within one diff.
    """
    global _hash_scheme_name, _digest
    if name not in HASH_SCHEMES:
        raise ValueError(
            f"unknown hash scheme {name!r}; expected one of {sorted(HASH_SCHEMES)}"
        )
    global _EMPTY_LIT_DIGEST
    previous = _hash_scheme_name
    _hash_scheme_name = name
    _digest = HASH_SCHEMES[name]
    # construction fast-path caches hold digests of the outgoing scheme
    _LEAF_STRUCT_DIGESTS.clear()
    _EMPTY_LIT_DIGEST = _digest(b"")
    return previous


@contextmanager
def hash_scheme(name: str) -> Iterator[None]:
    """Context manager: build trees under ``name``, then restore."""
    previous = set_hash_scheme(name)
    try:
        yield
    finally:
        set_hash_scheme(previous)


# -- per-diff generations ----------------------------------------------------

_generations = itertools.count(1)


def next_diff_generation() -> int:
    """A fresh diff-generation number (drawn once per SubtreeRegistry).

    Node generation stamps start at 0, so generation numbers from this
    counter never collide with a freshly constructed node.
    """
    return next(_generations)


# Tag bytes are interned: hashing runs once per node, tags repeat constantly.
_TAG_BYTES: dict[str, bytes] = {}

# Leaf construction fast path: a leaf's structure hash depends on its tag
# alone, and its literal hash on the literal fingerprint alone — both are
# memoizable, which matters because roughly half of a parsed tree's nodes
# are leaves.  Keyed per current scheme; cleared by set_hash_scheme.
_LEAF_STRUCT_DIGESTS: dict[str, bytes] = {}
_EMPTY_LIT_DIGEST = _digest(b"")


def _tag_bytes(tag: Tag) -> bytes:
    b = _TAG_BYTES.get(tag)
    if b is None:
        b = tag.encode("utf8") + b"\x00"
        _TAG_BYTES[tag] = b
    return b


# -- type-aware literal equivalence ------------------------------------------
#
# Python's ``==``/``hash`` conflate values across types (``1 == True``,
# ``0 == False``, ``1.0 == 1``), so literal equivalence must never be
# plain ``==`` on the literal tuples: ``diff(x = 1, x = True)`` would
# judge the trees literal-equivalent, return an *empty* script, and
# patching would silently produce the wrong program — violating the
# reproduction guarantee of Theorem 4.1.  Both the literal digest
# computed at construction time and every literal-equality check in the
# edit-emission path (Step 4) therefore tag each literal with its
# concrete type.


def literal_key(value: Any) -> Any:
    """A hashable key equal iff two literal values are interchangeable in
    a source document: identical concrete type and identical value.

    Floats and complex numbers compare by ``repr``, which separates
    ``0.0`` from ``-0.0`` and makes ``nan`` equal to itself (both matter
    for unparse fidelity; plain ``==`` gets both wrong).  Any other
    self-unequal (NaN-like) value likewise falls back to ``repr``.
    Tuples and frozensets are keyed elementwise, so nested conflations
    (``(1,)`` vs ``(True,)``) are caught too.
    """
    t = type(value)
    if t is tuple:
        return (t, tuple(literal_key(v) for v in value))
    if t is frozenset:
        return (t, frozenset(literal_key(v) for v in value))
    if t is float or t is complex:
        return (t, repr(value))
    if value != value:  # NaN-like values of other types
        return (t, repr(value))
    return (t, value)


def literal_eq(a: Any, b: Any) -> bool:
    """Type-aware equality of two literal values (see :func:`literal_key`)."""
    return a is b or literal_key(a) == literal_key(b)


def lits_equal(a: Sequence[Any], b: Sequence[Any]) -> bool:
    """Type-aware equality of two literal tuples (elementwise
    :func:`literal_eq`; ``is`` short-circuits the common shared case)."""
    if a is b:
        return True
    return len(a) == len(b) and all(
        x is y or literal_key(x) == literal_key(y) for x, y in zip(a, b)
    )


def _lit_fingerprint(lits: tuple[Any, ...]) -> bytes:
    """The literal-hash payload of one node's literal tuple.

    ``repr`` alone already separates every builtin conflation pair
    (``repr(1)`` vs ``repr(True)``), but the concrete type names are
    included as well so custom literal types whose reprs collide across
    types cannot be conflated either.
    """
    tags = ",".join(type(v).__name__ for v in lits)
    return f"{tags}\x00{lits!r}".encode("utf8")


class TNode:
    """An immutable, hashed, URI-carrying tree node.

    Construct via a :class:`~repro.core.adt.Grammar` constructor or
    :meth:`TNode.build`; kids and literals are stored in signature order.
    """

    __slots__ = (
        "sigs",
        "sig",
        "uri",
        "kids",
        "lits",
        "height",
        "size",
        "structure_hash",
        "literal_hash",
        "share",
        "assigned",
        "gen",
        "_node",
        "_kid_items",
        "_lit_items",
        "_identity_hash",
        "_arena",
    )

    def __init__(
        self,
        sigs: SignatureRegistry,
        sig: Signature,
        kids: Sequence["TNode"],
        lits: Sequence[Any],
        uri: URI,
        validate: bool = True,
    ) -> None:
        """Build a node; Step 1 of truediff (the equivalence hashes) runs
        here.  ``validate=False`` skips the arity/sort/literal checks for
        trusted internal rebuilds (hashes are always computed)."""
        kids = tuple(kids)
        lits = tuple(lits)
        if validate:
            self._validate(sigs, sig, kids, lits)
        self.sigs = sigs
        self.sig = sig
        self.uri = uri
        self.kids = kids
        self.lits = lits
        if kids:
            # height/size (Step 1 metadata) and the hash payloads in one
            # pass; one-shot hashing is measurably faster than update()-style
            height = 0
            size = 1
            struct_parts = [_tag_bytes(sig.tag)]
            lit_parts = [_lit_fingerprint(lits) if lits else b""]
            for k in kids:
                if k.height > height:
                    height = k.height
                size += k.size
                struct_parts.append(k.structure_hash)
                lit_parts.append(k.literal_hash)
            self.height = height + 1
            self.size = size
            digest = _digest
            # structural equivalence: tags + shape, ignoring literal values
            self.structure_hash = digest(b"".join(struct_parts))
            # literal equivalence: literal values, ignoring tags
            self.literal_hash = digest(b"".join(lit_parts))
        else:
            # leaf fast path: both payloads collapse (no kid hashes to
            # join), and the structural digest is shared per tag
            self.height = 1
            self.size = 1
            tag = sig.tag
            sh = _LEAF_STRUCT_DIGESTS.get(tag)
            if sh is None:
                sh = _LEAF_STRUCT_DIGESTS[tag] = _digest(_tag_bytes(tag))
            self.structure_hash = sh
            self.literal_hash = (
                _digest(_lit_fingerprint(lits)) if lits else _EMPTY_LIT_DIGEST
            )
        # per-diff mutable state (Steps 2-3), valid only for `gen`
        self.share: Optional["SubtreeShare"] = None
        self.assigned: Optional["TNode"] = None
        self.gen = 0

    @staticmethod
    def _validate(
        sigs: SignatureRegistry,
        sig: Signature,
        kids: tuple["TNode", ...],
        lits: tuple[Any, ...],
    ) -> None:
        if sig.variadic is not None:
            for i, kid in enumerate(kids):
                if not sigs.is_subtype(kid.sig.result, sig.variadic):
                    raise SignatureError(
                        f"{sig.tag}[{i}]: kid of sort {kid.sig.result} "
                        f"is not <: {sig.variadic}"
                    )
        else:
            if len(kids) != len(sig.kids):
                raise SignatureError(
                    f"{sig.tag} expects {len(sig.kids)} kids, got {len(kids)}"
                )
            for (link, expected), kid in zip(sig.kids, kids):
                if not sigs.is_subtype(kid.sig.result, expected):
                    raise SignatureError(
                        f"{sig.tag}.{link}: kid of sort {kid.sig.result} is not <: {expected}"
                    )
        if len(lits) != len(sig.lits):
            raise SignatureError(
                f"{sig.tag} expects {len(sig.lits)} literals, got {len(lits)}"
            )
        for (link, base), value in zip(sig.lits, lits):
            if not base.check(value):
                raise SignatureError(f"{sig.tag}.{link}: literal {value!r} is not a {base}")

    @property
    def identity_hash(self) -> bytes:
        """Equal iff the trees are equal (structurally and literally)."""
        try:
            return self._identity_hash
        except AttributeError:
            h = self._identity_hash = self.structure_hash + self.literal_hash
            return h

    # -- construction -------------------------------------------------------

    @staticmethod
    def build(
        sigs: SignatureRegistry,
        tag: Tag,
        kids: Sequence["TNode"],
        lits: Sequence[Any],
        urigen: URIGen,
    ) -> "TNode":
        """Build a node with a fresh URI."""
        return TNode(sigs, sigs[tag], kids, lits, urigen.fresh())

    def with_lits(self, lits: Sequence[Any]) -> "TNode":
        """A copy of this node (same URI, same kids) with new literals."""
        return TNode(self.sigs, self.sig, self.kids, lits, self.uri)

    def with_kids(self, kids: Sequence["TNode"]) -> "TNode":
        """A copy of this node (same URI, same literals) with new kids."""
        return TNode(self.sigs, self.sig, kids, self.lits, self.uri)

    # -- accessors ----------------------------------------------------------

    @property
    def tag(self) -> Tag:
        return self.sig.tag

    @property
    def node(self) -> Node:
        """The ``TagURI`` reference of this node (cached; edit emission
        asks for it several times per changed node)."""
        try:
            return self._node
        except AttributeError:
            n = self._node = Node(self.sig.tag, self.uri)
            return n

    @property
    def kid_links(self) -> tuple[Link, ...]:
        return self.sig.kid_links_for(len(self.kids))

    @property
    def kid_items(self) -> tuple[tuple[Link, "TNode"], ...]:
        # cached: rebuilt tuples on every access were a measurable cost in
        # EditBuffer.load/unload and Step 4, which hit this per node per diff
        try:
            return self._kid_items
        except AttributeError:
            items = self._kid_items = tuple(zip(self.kid_links, self.kids))
            return items

    @property
    def lit_items(self) -> tuple[tuple[Link, Any], ...]:
        try:
            return self._lit_items
        except AttributeError:
            items = self._lit_items = tuple(zip(self.sig.lit_links, self.lits))
            return items

    def kid(self, link: Link) -> "TNode":
        if self.sig.variadic is not None:
            if link.isdigit() and int(link) < len(self.kids):
                return self.kids[int(link)]
            raise KeyError(link)
        for l, k in zip(self.sig.kid_links, self.kids):
            if l == link:
                return k
        raise KeyError(link)

    def lit(self, link: Link) -> Any:
        for l, v in zip(self.sig.lit_links, self.lits):
            if l == link:
                return v
        raise KeyError(link)

    def unshared(self, urigen: Optional[URIGen] = None) -> "TNode":
        """Normalize a structure-shared tree into a proper tree.

        Immutable trees make it easy to use the same node object at two
        positions; truediff source trees, however, need unique node objects
        (URIs name distinct mutable positions).  The first occurrence of a
        shared node keeps its identity; later occurrences are rebuilt with
        fresh URIs.

        Iterative (explicit stack): deep trees must not hit the recursion
        limit.
        """
        if urigen is None:
            urigen = self.sigs.urigen
        seen: set[int] = set()
        # (node, dup) for pre-visits, (node, dup) re-pushed as post-visits
        stack: list[tuple[TNode, bool, bool]] = [(self, False, False)]
        results: list[TNode] = []
        while stack:
            n, post, dup = stack.pop()
            if not post:
                dup = id(n) in seen
                seen.add(id(n))
                stack.append((n, True, dup))
                for k in reversed(n.kids):
                    stack.append((k, False, False))
            else:
                cnt = len(n.kids)
                if cnt:
                    kids = results[-cnt:]
                    del results[-cnt:]
                else:
                    kids = []
                if not dup and all(a is b for a, b in zip(kids, n.kids)):
                    results.append(n)
                else:
                    results.append(
                        TNode(
                            n.sigs, n.sig, kids, n.lits,
                            urigen.fresh() if dup else n.uri,
                            validate=False,
                        )
                    )
        return results[0]

    def with_canonical_uris(self, start: int = 1) -> "TNode":
        """Renumber all URIs in pre-order starting at ``start``.

        Parsing assigns globally fresh URIs, so two parses of the same
        document get different URIs.  For exchanging edit scripts across
        processes (the CLI's ``diff``/``apply``), both sides canonicalize
        the source document first; script URIs then denote pre-order
        positions.  Fresh URIs for Load edits must start above
        ``start + size``.

        Iterative: URIs are assigned at pre-visit (pre-order), nodes are
        rebuilt at post-visit.  The hashes, height and size are copied,
        not recomputed: renumbering is one allocation per node.
        """
        counter = start
        stack: list[tuple[TNode, bool, int]] = [(self, False, 0)]
        results: list[TNode] = []
        while stack:
            n, post, uri = stack.pop()
            if not post:
                uri = counter
                counter += 1
                stack.append((n, True, uri))
                for k in reversed(n.kids):
                    stack.append((k, False, 0))
            else:
                cnt = len(n.kids)
                if cnt:
                    kids = tuple(results[-cnt:])
                    del results[-cnt:]
                else:
                    kids = ()
                results.append(n._relabelled(kids, uri))
        return results[0]

    def _relabelled(self, kids: tuple["TNode", ...], uri: URI) -> "TNode":
        """A copy of this node under ``uri`` whose kids are ``kids`` —
        relabelled copies of this node's own kids.  URIs enter neither
        hash, so Step 1's metadata is copied instead of recomputed."""
        n = TNode.__new__(TNode)
        n.sigs = self.sigs
        n.sig = self.sig
        n.uri = uri
        n.kids = kids
        n.lits = self.lits
        n.height = self.height
        n.size = self.size
        n.structure_hash = self.structure_hash
        n.literal_hash = self.literal_hash
        n.share = None
        n.assigned = None
        n.gen = 0
        return n

    # -- traversal ------------------------------------------------------------

    def iter_subtree(self) -> Iterator["TNode"]:
        """Pre-order traversal: this node first, then all descendants."""
        stack = [self]
        while stack:
            n = stack.pop()
            yield n
            stack.extend(reversed(n.kids))

    def iter_proper_subtrees(self) -> Iterator["TNode"]:
        """All descendants, excluding this node itself."""
        it = self.iter_subtree()
        next(it)
        return it

    # -- equivalences ---------------------------------------------------------

    def structurally_equivalent(self, other: "TNode") -> bool:
        """Equal except for literal values (Section 4.1)."""
        return self.structure_hash == other.structure_hash

    def literally_equivalent(self, other: "TNode") -> bool:
        """Equal except for node tags (Section 4.1)."""
        return self.literal_hash == other.literal_hash

    def tree_equal(self, other: "TNode") -> bool:
        """Full equality (structure and literals; URIs ignored)."""
        return (
            self.structure_hash == other.structure_hash
            and self.literal_hash == other.literal_hash
        )

    # -- conversions ------------------------------------------------------------

    def to_tuple(self, with_uris: bool = False) -> tuple:
        """The same snapshot format as :meth:`MNode.to_tuple`.

        Iterative (post-order over an explicit stack): a recursive
        version enters C (``tuple()`` over a generator) at every level,
        so a deep tree overflows the C stack below the recursion limit.
        """
        stack: list[tuple[TNode, bool]] = [(self, False)]
        done: list[tuple] = []
        while stack:
            n, post = stack.pop()
            if not post:
                stack.append((n, True))
                stack.extend((k, False) for k in reversed(n.kids))
                continue
            cnt = len(n.kids)
            if cnt:
                kids = tuple(zip(n.kid_links, done[-cnt:]))
                del done[-cnt:]
            else:
                kids = ()
            lits = tuple(sorted(n.lit_items, key=_first))
            head = (n.tag, n.uri) if with_uris else n.tag
            done.append((head, tuple(sorted(kids, key=_first)), lits))
        return done[0]

    def pretty(self) -> str:
        parts = [f"{v!r}" for v in self.lits]
        parts += [k.pretty() for k in self.kids]
        inner = ", ".join(parts)
        return f"{self.tag}_{self.uri}({inner})" if parts else f"{self.tag}_{self.uri}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TNode({self.pretty()})"


def _first(pair: tuple) -> Any:
    return pair[0]


def subtree_ids(tree: TNode) -> set[int]:
    """The ``id()`` of every node object in ``tree`` (tight loop; the
    aliasing precheck of :func:`~repro.core.diff.diff` is built on this)."""
    ids: set[int] = set()
    add = ids.add
    stack = [tree]
    pop = stack.pop
    extend = stack.extend
    while stack:
        n = pop()
        add(id(n))
        extend(n.kids)
    return ids


def clear_diff_state(*trees: TNode) -> None:
    """Reset the per-diff mutable fields of all nodes in the given trees.

    :func:`~repro.core.diff.diff` no longer needs this (per-diff state is
    generation-stamped and lazily invalidated); it remains for tests and
    for manual experiments with the step functions.
    """
    for tree in trees:
        stack = [tree]
        while stack:
            n = stack.pop()
            n.share = None
            n.assigned = None
            n.gen = 0
            stack.extend(n.kids)


def tnode_to_mtree(tree: TNode) -> "MTree":
    """Build the :class:`~repro.core.mtree.MTree` corresponding to ``tree``
    (attached under the pre-defined root).  Iterative (deep trees)."""
    from .mtree import MNode, MTree
    from .node import ROOT_LINK

    out = MTree()
    index = out.index
    # (tnode, kids-dict of the parent MNode, link under which to attach)
    stack: list[tuple[TNode, dict, str]] = [(tree, out.root.kids, ROOT_LINK)]
    while stack:
        n, parent_kids, link = stack.pop()
        m = MNode(n.node, {}, dict(n.lit_items))
        index[n.uri] = m
        parent_kids[link] = m
        for l, k in reversed(n.kid_items):
            stack.append((k, m.kids, l))
    return out
