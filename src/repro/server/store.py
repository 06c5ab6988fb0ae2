"""Content-addressed tree store: parse once, diff many times.

The one-shot CLI re-parses both files on every ``repro diff`` — at the
north-star scale (many diffs against few distinct documents) parsing
dominates.  The store turns the parsed artifacts into shared immutable
state: each uploaded source is parsed once, canonicalized
(:meth:`~repro.core.tree.TNode.with_canonical_uris`), and filed under
its **root key** (:func:`fingerprint_tree`): the hash-scheme name plus
the root's Step-1 structure and literal hashes (paper §4.1).  Clients
submit sources once and from then on address trees by that key (the
wire calls it the tree's ``fingerprint``).

Content addressing is by *tree* content, not source bytes: two sources
that parse to the same canonical tree (formatting, comments) share one
entry — uploading the reformatted file is a cache hit and diffing the
two fingerprints is the identity.  The root key is sound because:

* Step 1 hashes every node bottom-up over its tag, its kids' hashes and
  its literals, so the root's two hashes cover the whole tree — except
  its URIs, and every stored tree is canonical: its URIs are pre-order
  positions, which follow from its shape;
* literal hashes are type-tagged, so ``1``/``True``/``1.0`` and
  ``0.0``/``-0.0`` key apart, exactly as
  :func:`~repro.robustness.tree_fingerprint` (the full-state digest the
  fault-injection harness compares) tells them apart;
* the hashes are computed when the tree is built, so reading the key is
  O(1), and a tree built from a re-parse or a replayed patch recomputes
  them from all of its nodes — recovery still checks full content.

Mutation semantics mirror ``robustness/``'s transactional patching: the
store never mutates an entry in place.  :meth:`TreeStore.apply` patches
a *fresh* ``MTree`` built from the stored tree with
``patch(atomic=True, verify=True)`` — any failure rolls the scratch tree
back and leaves the store untouched — and only a verified result is
inserted, under its own (new) key.  Entries are immutable after
insert; capacity is bounded by LRU eviction.

All methods are thread-safe (the asyncio front ends call them from
executor threads).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core import TNode, tnode_to_mtree
from repro.core.tree import get_hash_scheme
from repro.observability import OBS, metrics as _metrics


class StoreError(Exception):
    """A store-level request problem (unknown fingerprint, parse failure)."""


class UnknownFingerprint(StoreError):
    def __init__(self, fingerprint: str) -> None:
        super().__init__(f"unknown tree fingerprint: {fingerprint}")
        self.fingerprint = fingerprint


class StoredTree:
    """One immutable store entry: source text + parsed canonical tree.

    ``tree`` has canonical pre-order URIs (1..size), so scripts produced
    against it are meaningful to any process that re-parses the same
    source — the same contract as the CLI's ``diff``/``apply``.
    """

    __slots__ = ("fingerprint", "source", "filename", "tree", "nodes")

    def __init__(
        self, fingerprint: str, source: Optional[str], filename: str, tree: TNode
    ) -> None:
        self.fingerprint = fingerprint
        self.source = source
        self.filename = filename
        self.tree = tree
        self.nodes = tree.size

    def describe(self) -> dict[str, Any]:
        return {
            "fingerprint": self.fingerprint,
            "filename": self.filename,
            "nodes": self.nodes,
        }


def fingerprint_tree(tree: TNode) -> str:
    """The store key of a canonical tree: the hash-scheme name and the
    root's Step-1 hashes (``structure_hash + literal_hash``), in hex.

    O(1) — the hashes were computed when the tree was built.  The scheme
    is named because :func:`~repro.core.tree.set_hash_scheme` is
    process-wide and digests of different schemes never compare equal.
    """
    return f"{get_hash_scheme()}-{(tree.structure_hash + tree.literal_hash).hex()}"


def stage_patched(mtree, filename: str) -> StoredTree:
    """The store entry for a patched scratch ``MTree``, not yet inserted:
    rebuild the tree, canonicalize its URIs, unparse it, key it.  The
    one post-patch finish of :meth:`TreeStore.apply` and the daemon's
    ``/apply-batch``."""
    from repro.adapters.pyast import python_grammar, unparse_python

    g = python_grammar()
    rebuilt = g.grammar.parse_tuple(mtree.to_tuple()).with_canonical_uris()
    return StoredTree(fingerprint_tree(rebuilt), unparse_python(rebuilt), filename, rebuilt)


class TreeStore:
    """Bounded, thread-safe, content-addressed map of parsed trees.

    Counters (under ``repro.server.store.``): ``parses`` (sources parsed
    — flat across repeated uploads and all fingerprint-addressed
    requests, the "no re-parse" evidence the smoke gate scrapes),
    ``puts`` (new entries), ``dups`` (uploads that were already
    present), ``hits``/``misses`` (fingerprint lookups), ``evictions``,
    and the ``trees`` gauge.
    """

    def __init__(self, max_trees: int = 1024) -> None:
        if max_trees < 1:
            raise ValueError(f"max_trees must be >= 1, got {max_trees}")
        self.max_trees = max_trees
        # lock-order class "store._lock": may be held while taking the
        # durable store's "store._io_lock", never acquired under it —
        # the sanitizer (repro.robustness.locksan) enforces the order
        # when enabled and hands back a plain RLock otherwise
        from repro.robustness import locksan

        self._lock = locksan.rlock("store._lock")
        #: insertion/touch order is LRU order (dicts preserve insertion).
        self._trees: dict[str, StoredTree] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._trees)

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._trees

    def _count(self, name: str, n: int = 1) -> None:
        if OBS.enabled:
            _metrics().counter(f"repro.server.store.{name}").inc(n)

    def _gauge(self) -> None:
        if OBS.enabled:
            _metrics().gauge("repro.server.store.trees").set(len(self._trees))

    def put_source(self, source: str, filename: str = "<uploaded>") -> tuple[StoredTree, bool]:
        """Parse ``source`` and insert it; returns ``(entry, was_cached)``.

        Raises :class:`StoreError` for unparseable input.  An upload
        whose tree is already stored returns the existing entry
        (``was_cached=True``) — the parse it paid is the price of
        discovering the fingerprint; fingerprint-addressed requests
        never parse.
        """
        from repro.adapters.pyast import parse_python

        self._count("parses")
        try:
            try:
                tree = parse_python(source, filename).with_canonical_uris()
            except SystemError:
                # CPython's C AST constructor keeps recursion-depth
                # bookkeeping that can transiently desync when many
                # executor threads parse at once ("AST constructor
                # recursion depth mismatch").  The parse itself is
                # deterministic, so one retry settles it instead of
                # surfacing a spurious 500 to the client.
                self._count("parse_retries")
                tree = parse_python(source, filename).with_canonical_uris()
        except SyntaxError as exc:
            where = f" (line {exc.lineno})" if exc.lineno else ""
            raise StoreError(
                f"{filename}: {exc.msg or 'invalid syntax'}{where}"
            ) from None
        except RecursionError as exc:
            # a valid module nested deeper than the parser's limit
            # (CPython 3.12+ refuses it in ast.parse): bad input, not a
            # daemon fault
            raise StoreError(f"{filename}: too deeply nested to parse: {exc}") from None
        except ValueError as exc:  # e.g. null bytes in source
            raise StoreError(f"{filename}: {exc}") from None
        return self._insert(tree, source, filename)

    def put_tree(
        self,
        tree: TNode,
        source: Optional[str] = None,
        filename: str = "<patched>",
    ) -> tuple[StoredTree, bool]:
        """Insert an already-parsed canonical tree (e.g. an apply result)."""
        return self._insert(tree, source, filename)

    def _insert(
        self, tree: TNode, source: Optional[str], filename: str
    ) -> tuple[StoredTree, bool]:
        fp = fingerprint_tree(tree)
        with self._lock:
            existing = self._trees.get(fp)
            if existing is not None:
                self._trees[fp] = self._trees.pop(fp)  # refresh LRU position
                self._count("dups")
                return existing, True
            entry = StoredTree(fp, source, filename, tree)
            self._trees[fp] = entry
            while len(self._trees) > self.max_trees:
                evicted = next(iter(self._trees))
                del self._trees[evicted]
                self._count("evictions")
            self._count("puts")
            self._gauge()
            return entry, False

    def get(self, fingerprint: str) -> StoredTree:
        """Look an entry up by fingerprint; raises :class:`UnknownFingerprint`."""
        with self._lock:
            entry = self._trees.get(fingerprint)
            if entry is None:
                self._count("misses")
                raise UnknownFingerprint(fingerprint)
            self._trees[fingerprint] = self._trees.pop(fingerprint)
            self._count("hits")
            return entry

    def list(self) -> list[dict[str, Any]]:
        with self._lock:
            return [entry.describe() for entry in self._trees.values()]

    def apply(
        self, fingerprint: str, script, commit: bool = True
    ) -> tuple[StoredTree, bool, str]:
        """Atomically patch a stored tree; returns ``(entry, was_cached, source)``.

        The script is applied to a scratch ``MTree`` with the full
        transactional machinery (pre-flight typecheck, undo journal,
        post-verify); a rejected patch raises
        :class:`~repro.core.PatchError` with the store unchanged.  On
        success the patched tree is unparsed and — with ``commit`` —
        inserted under its own key (the store being content-addressed,
        a "mutation" is always a new entry).
        """
        base = self.get(fingerprint)
        mtree = tnode_to_mtree(base.tree)
        # PatchError propagates to the service layer; atomic => the
        # scratch tree rolled back and the store was never touched.
        mtree.patch(script, atomic=True, sigs=base.tree.sigs, verify=True)
        staged = stage_patched(mtree, base.filename)
        if not commit:
            return staged, False, staged.source
        entry, was_cached = self._insert(staged.tree, staged.source, staged.filename)
        return entry, was_cached, staged.source
