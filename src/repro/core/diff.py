"""The truediff structural diffing algorithm (Section 4).

truediff computes the difference between a source tree ``this`` and a
target tree ``that`` in four steps, each linear in the tree sizes
(Theorem 4.1):

1. **Prepare subtree equivalence relations** — done at tree construction
   time: every :class:`~repro.core.tree.TNode` carries a structural and a
   literal digest (Section 4.1; see :func:`~repro.core.tree.set_hash_scheme`).
2. **Find reuse candidates** (:func:`assign_shares`) — all structurally
   equivalent subtrees are assigned the same
   :class:`~repro.core.registry.SubtreeShare`; source subtrees are
   registered as *available* resources, and identical subtrees at matching
   positions are *preemptively assigned* to each other (Section 4.2).
3. **Select reuse candidates** (:func:`assign_subtrees`) — traverse the
   target tree highest-first and greedily acquire available source
   subtrees, preferring exact (literally equivalent) copies; subtrees are
   linear resources and are acquired at most once (Section 4.3).
4. **Compute edit script** (:func:`compute_edits`) — simultaneous
   traversal emitting truechange edits into an :class:`EditBuffer` that
   orders negative edits (detach/unload) before positive ones
   (load/attach), guaranteeing well-typedness of the result (Section 4.4).

The top-level entry point is :func:`diff` (the paper's ``compareTo``),
which returns the edit script together with the *patched tree*: a tree
that is equal to the target but reuses nodes (and thus URIs) of the
source, ready for subsequent diffing rounds.  For repeated diffing
against an evolving document (the incremental driver's workload), wrap
the source in a :class:`DiffSession`, which amortizes the per-call
aliasing precheck across rounds.

Hot-path notes:

* Per-diff node state (``share``/``assigned``) is *generation-stamped*
  (see :mod:`repro.core.registry`): no O(n) ``clear_diff_state`` sweep
  runs per diff, and state left by earlier diffs is ignored lazily.
  Nodes the current diff never stamped may carry stale values, so every
  read outside Step 2 guards on ``node.gen``.
* All tree-shaped traversals here (Steps 2 and 4, plus ``_dealias``) use
  explicit stacks instead of recursion: 50k-deep trees diff without
  ``RecursionError``, and CPython's call overhead stays off the hot path.

:class:`DiffOptions` exposes the knobs exercised by the ablation
benchmarks; the defaults correspond to the paper's algorithm.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.observability import OBS, metrics as _metrics, span as _span

from .edits import Attach, Detach, EditScript, Load, Unload, Update
from .node import Link, Node, ROOT_LINK, ROOT_NODE
from .registry import SubtreeRegistry
from .tree import TNode, lits_equal, subtree_ids
from .uris import URIGen


@dataclass(frozen=True)
class DiffOptions:
    """Configuration knobs for truediff (defaults = the paper's algorithm).

    ``prefer_literal_matches``
        Step 3 first tries to acquire an exact copy (literal equivalence)
        before settling for any structurally equivalent candidate.
    ``height_first``
        Step 3 traverses target subtrees highest-first to avoid subtree
        fragmentation.  Disabling processes the queue in FIFO order.
    ``coalesce``
        Merge Load+Attach / Detach+Unload pairs into compound edits for the
        conciseness metric.
    ``typecheck``
        How emitted scripts are validated before they are returned:
        ``"static"`` (default) runs truelint's O(script) linear-typing
        preflight (:func:`repro.robustness.transaction.preflight_check_static`),
        ``"dynamic"`` replays the script through the full truechange
        checker (:func:`repro.core.typecheck.assert_well_typed`), and
        ``"none"`` skips validation.  Before the static preflight landed
        the fast configurations ran unchecked; now checked is the default
        at unchecked speed.
    """

    prefer_literal_matches: bool = True
    height_first: bool = True
    coalesce: bool = True
    typecheck: str = "static"


DEFAULT_OPTIONS = DiffOptions()


class DiffStats:
    """Per-diff pass statistics (Section 6's explanatory quantities).

    A ``DiffStats`` is created per diff only when instrumentation is
    enabled (or by :func:`~repro.core.trace.diff_traced`, which always
    collects); the passes take ``stats=None`` by default and pay one
    ``is not None`` check per aggregate event, so the disabled diff path
    is unchanged.  With ``record_acquisitions=True`` every Step-3 take
    is additionally recorded as ``(src_uri, dst_height, tag, preferred)``
    — the raw material of a :class:`~repro.core.trace.DiffTrace`.
    """

    __slots__ = (
        "shares",
        "preemptive_pairs",
        "exact_acquisitions",
        "structural_acquisitions",
        "heap_pushes",
        "dealias_rebuilds",
        "loads",
        "unloads",
        "detaches",
        "attaches",
        "updates",
        "acquisitions",
    )

    def __init__(self, record_acquisitions: bool = False) -> None:
        self.shares = 0
        self.preemptive_pairs = 0
        self.exact_acquisitions = 0
        self.structural_acquisitions = 0
        self.heap_pushes = 0
        self.dealias_rebuilds = 0
        self.loads = 0
        self.unloads = 0
        self.detaches = 0
        self.attaches = 0
        self.updates = 0
        self.acquisitions: Optional[list[tuple[Any, int, str, bool]]] = (
            [] if record_acquisitions else None
        )

    def note_acquisition(self, src: TNode, that: TNode, preferred: bool) -> None:
        if preferred:
            self.exact_acquisitions += 1
        else:
            self.structural_acquisitions += 1
        if self.acquisitions is not None:
            self.acquisitions.append((src.uri, that.height, that.tag, preferred))

    def count_edits(self, buf: "EditBuffer") -> None:
        """Tally the buffer's edits by kind (pre-coalescing, so a later
        Insert/Remove compound counts as its Load/Attach, Detach/Unload
        parts)."""
        for e in buf.negatives:
            if type(e) is Detach:
                self.detaches += 1
            else:
                self.unloads += 1
        for e in buf.positives:
            t = type(e)
            if t is Load:
                self.loads += 1
            elif t is Attach:
                self.attaches += 1
            else:
                self.updates += 1

    def publish(self, source_size: int, target_size: int) -> None:
        """Push this diff's aggregates into the process-wide registry."""
        m = _metrics()
        m.counter("repro.diff.count").inc()
        m.counter("repro.diff.nodes").inc(source_size + target_size)
        m.counter("repro.diff.shares_created").inc(self.shares)
        m.counter("repro.diff.preemptive_pairs").inc(self.preemptive_pairs)
        m.counter("repro.diff.exact_acquisitions").inc(self.exact_acquisitions)
        m.counter("repro.diff.structural_acquisitions").inc(
            self.structural_acquisitions
        )
        m.counter("repro.diff.heap_pushes").inc(self.heap_pushes)
        m.counter("repro.diff.dealias_rebuilds").inc(self.dealias_rebuilds)
        m.counter("repro.diff.edits.load").inc(self.loads)
        m.counter("repro.diff.edits.unload").inc(self.unloads)
        m.counter("repro.diff.edits.detach").inc(self.detaches)
        m.counter("repro.diff.edits.attach").inc(self.attaches)
        m.counter("repro.diff.edits.update").inc(self.updates)
        if target_size:
            m.histogram("repro.diff.reuse_rate").observe(
                (target_size - self.loads) / target_size
            )


class EditBuffer:
    """Collects edits, separating negative from positive edits (Section 4.4).

    The final script contains all negative edits (detach, unload) before
    all positive edits (load, attach, update), which ensures a subtree is
    detached before it is reattached elsewhere.
    """

    __slots__ = ("negatives", "positives", "fresh")

    def __init__(self) -> None:
        self.negatives: list[Any] = []
        self.positives: list[Any] = []
        # every TNode object Step 4 creates (loads and spine rebuilds);
        # DiffSession uses this to roll its node-id cache forward in
        # O(changed) instead of rescanning the patched tree
        self.fresh: list[TNode] = []

    def detach(self, tree: TNode, link: Link, parent: Node) -> None:
        self.negatives.append(Detach(tree.node, link, parent))

    def unload(self, tree: TNode) -> None:
        kids = tuple([(l, k.uri) for l, k in tree.kid_items])
        self.negatives.append(Unload(tree.node, kids, tree.lit_items))

    def load(self, tree: TNode) -> None:
        kids = tuple([(l, k.uri) for l, k in tree.kid_items])
        self.positives.append(Load(tree.node, kids, tree.lit_items))
        self.fresh.append(tree)

    def attach(self, tree: TNode, link: Link, parent: Node) -> None:
        self.positives.append(Attach(tree.node, link, parent))

    def update(self, this: TNode, that: TNode) -> None:
        self.positives.append(Update(this.node, this.lit_items, that.lit_items))

    def to_script(self, coalesce: bool = True) -> EditScript:
        # no intermediate negatives+positives list: EditScript chains the
        # two buffers directly
        return EditScript.from_buffers(self.negatives, self.positives, coalesce)


def assign_tree(this: TNode, that: TNode) -> None:
    """Record the symmetric assignment ``this <-> that`` (Section 4.3)."""
    this.assigned = that
    that.assigned = this


# ---------------------------------------------------------------------------
# Step 2: find reuse candidates
# ---------------------------------------------------------------------------


def assign_shares(
    this: TNode,
    that: TNode,
    reg: SubtreeRegistry,
    stats: Optional[DiffStats] = None,
) -> None:
    """Assign shares to all subtrees of ``this`` and ``that``; register
    source subtrees as available; preemptively assign identical subtrees
    encountered at matching positions (Section 4.2).

    Iterative worklist of matched position pairs; processing order is the
    same left-to-right DFS as the paper's recursion, so shares register
    candidates leftmost-first.
    """
    assign = reg.assign_share
    # (source, target) position pairs; one side may be None (unmatched
    # list elements).  LIFO + reversed pushes = left-to-right DFS.
    pairs: list[tuple[Optional[TNode], Optional[TNode]]] = [(this, that)]
    while pairs:
        a, b = pairs.pop()
        if b is None:
            # unmatched source element: whole subtree becomes available
            stack = [a]
            while stack:
                t = stack.pop()
                assign(t).register_available(t)
                stack.extend(reversed(t.kids))
            continue
        if a is None:
            # unmatched target element: subtree merely gets shares
            stack = [b]
            while stack:
                t = stack.pop()
                assign(t)
                stack.extend(reversed(t.kids))
            continue
        share_a = assign(a)
        if share_a is assign(b):
            # structurally equivalent trees at matching positions:
            # preemptive assignment, stop descending (the whole subtree is
            # settled; Step 4 patches up differing literals with Updates)
            assign_tree(a, b)
            if stats is not None:
                stats.preemptive_pairs += 1
        elif a.tag == b.tag:
            # descend simultaneously; this node itself may still be moved
            share_a.register_available(a)
            if a.sig.is_variadic:
                # list kids are aligned by content, not position, so that
                # an insertion does not shift every later element onto the
                # wrong partner (the artifact's DiffableList alignment)
                aligned = _align_list(a.kids, b.kids)
                for i in range(len(aligned) - 1, -1, -1):
                    pairs.append(aligned[i])
            else:
                for i in range(len(a.kids) - 1, -1, -1):
                    pairs.append((a.kids[i], b.kids[i]))
        else:
            # unrelated constructors: all source subtrees become available,
            # all target subtrees merely get shares (they are required)
            stack = [a]
            while stack:
                t = stack.pop()
                assign(t).register_available(t)
                stack.extend(reversed(t.kids))
            stack = [b]
            while stack:
                t = stack.pop()
                assign(t)
                stack.extend(reversed(t.kids))


def _align_positions(
    src_keys: Sequence[Any], dst_keys: Sequence[Any]
) -> list[tuple[int, int]]:
    """Align two element-key sequences: exact (equal-key) matches become
    pairs via a patience-style longest increasing subsequence; leftover
    elements inside the gaps are paired positionally (they likely
    correspond but were edited); the rest are unpaired.

    Returns index pairs into the two sequences, with ``-1`` marking an
    unmatched side.  Shared by the object path (keys = cached identity
    hashes) and the flat path (keys = fingerprint pairs pulled from
    arena columns) so both compute the same alignment by construction.
    """
    src_pos: dict[Any, list[int]] = {}
    for i, h in enumerate(src_keys):
        src_pos.setdefault(h, []).append(i)
    dst_pos: dict[Any, list[int]] = {}
    for j, h in enumerate(dst_keys):
        dst_pos.setdefault(h, []).append(j)

    # unique-unique anchors, thinned to an increasing subsequence
    anchors = sorted(
        (pos[0], dst_pos[h][0])
        for h, pos in src_pos.items()
        if len(pos) == 1 and len(dst_pos.get(h, ())) == 1
    )
    kept = _longest_increasing(anchors)

    # greedy in-gap matching of equal elements (handles duplicates)
    exact: list[tuple[int, int]] = []
    bounds = [(-1, -1)] + kept + [(len(src_keys), len(dst_keys))]
    for (pi, pj), (ni, nj) in zip(bounds, bounds[1:]):
        i = pi + 1
        for j in range(pj + 1, nj):
            h = dst_keys[j]
            scan = i
            while scan < ni and src_keys[scan] != h:
                scan += 1
            if scan < ni:
                exact.append((scan, j))
                i = scan + 1
        if (ni, nj) != (len(src_keys), len(dst_keys)):
            exact.append((ni, nj))
    exact.sort()

    # emit pairs, zipping gap leftovers positionally
    out: list[tuple[int, int]] = []
    prev_i = prev_j = -1
    for ai, aj in exact + [(len(src_keys), len(dst_keys))]:
        gap_src = list(range(prev_i + 1, ai))
        gap_dst = list(range(prev_j + 1, aj))
        for gi, gj in zip(gap_src, gap_dst):
            out.append((gi, gj))
        for gi in gap_src[len(gap_dst):]:
            out.append((gi, -1))
        for gj in gap_dst[len(gap_src):]:
            out.append((-1, gj))
        if ai < len(src_keys):
            out.append((ai, aj))
        prev_i, prev_j = ai, aj
    return out


def _align_list(
    this_kids: tuple[TNode, ...], that_kids: tuple[TNode, ...]
) -> list[tuple[Optional[TNode], Optional[TNode]]]:
    """Node-level view of :func:`_align_positions` (unmatched = None)."""
    aligned = _align_positions(
        [k.identity_hash for k in this_kids],
        [k.identity_hash for k in that_kids],
    )
    return [
        (this_kids[i] if i >= 0 else None, that_kids[j] if j >= 0 else None)
        for i, j in aligned
    ]


def _longest_increasing(pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Longest subsequence of (sorted-by-i) pairs with increasing j."""
    if not pairs:
        return []
    bisect_left = bisect.bisect_left
    tails: list[int] = []  # tails[k] = smallest ending j of an LIS of length k+1
    links: list[int] = []  # predecessor indices
    tail_idx: list[int] = []
    for idx, (_, j) in enumerate(pairs):
        k = bisect_left(tails, j)
        if k == len(tails):
            tails.append(j)
            tail_idx.append(idx)
        else:
            tails[k] = j
            tail_idx[k] = idx
        links.append(tail_idx[k - 1] if k > 0 else -1)
    out = []
    cur = tail_idx[len(tails) - 1]
    while cur != -1:
        out.append(pairs[cur])
        cur = links[cur]
    out.reverse()
    return out


# ---------------------------------------------------------------------------
# Step 3: select reuse candidates
# ---------------------------------------------------------------------------


def take_tree(reg: SubtreeRegistry, src: TNode, that: TNode) -> None:
    """Acquire source subtree ``src`` for target subtree ``that``.

    Subtrees are linear resources: the entire subtree of ``src`` is
    deregistered so it cannot be reused elsewhere, and preemptive
    assignments of smaller subtrees that conflict with this acquisition
    are undone (the freed partners become available / required again).

    Reads of ``share``/``assigned`` are generation-guarded: these loops
    walk entire subtrees, which may contain nodes below preemptive pairs
    that Step 2 never stamped (their fields are stale, not cleared).
    """
    gen = reg.gen
    # Undo preemptive pairs inside `that`: their source partners are freed
    # and become available again for other targets.
    for t2 in that.iter_proper_subtrees():
        s2 = t2.assigned if t2.gen == gen else None
        if s2 is not None:
            t2.assigned = None
            s2.assigned = None
            for s in s2.iter_subtree():
                reg.assign_share_and_register(s)
    # Consume src: deregister its whole subtree; preemptive pairs whose
    # source lies inside src are undone, making the target partner
    # required again (it will be reached by the Step-3 queue).
    for s in src.iter_subtree():
        if s.gen != gen:
            continue
        if s.share is not None:
            s.share.deregister(s)
        tp = s.assigned
        if tp is not None:
            s.assigned = None
            tp.assigned = None
            for t in tp.iter_subtree():
                reg.assign_share(t)
    assign_tree(src, that)


def assign_subtrees(
    that: TNode,
    reg: SubtreeRegistry,
    options: DiffOptions = DEFAULT_OPTIONS,
    stats: Optional[DiffStats] = None,
) -> None:
    """Traverse target subtrees highest-first and greedily acquire
    available source subtrees (Section 4.3).

    Every node that enters the queue was stamped by Step 2 (unstamped
    nodes only occur strictly below preemptive pairs, whose kids are
    never enqueued), so ``share``/``assigned`` reads here are safe
    without generation guards.
    """
    counter = 0  # tie-breaker: TNodes are not ordered
    heap: list[tuple[int, int, TNode]] = []

    def push(t: TNode) -> None:
        nonlocal counter
        priority = -t.height if options.height_first else counter
        heapq.heappush(heap, (priority, counter, t))
        counter += 1

    push(that)
    while heap:
        level = heap[0][0]
        nexts: list[TNode] = []
        while heap and heap[0][0] == level:
            nexts.append(heapq.heappop(heap)[2])
        # skip subtrees already settled by preemptive assignment
        todo = [t for t in nexts if t.assigned is None]
        unassigned: list[TNode] = []
        if options.prefer_literal_matches:
            for t in todo:
                src = t.share.take_preferred(t)
                if src is not None:
                    if stats is not None:
                        stats.note_acquisition(src, t, True)
                    take_tree(reg, src, t)
                else:
                    unassigned.append(t)
        else:
            unassigned = todo
        still_unassigned: list[TNode] = []
        for t in unassigned:
            src = t.share.take_any()
            if src is not None:
                if stats is not None:
                    stats.note_acquisition(src, t, False)
                take_tree(reg, src, t)
            else:
                still_unassigned.append(t)
        for t in still_unassigned:
            for kid in t.kids:
                push(kid)
    if stats is not None:
        stats.heap_pushes += counter


# ---------------------------------------------------------------------------
# Step 4: compute edit script
# ---------------------------------------------------------------------------


def update_lits(this: TNode, that: TNode, buf: EditBuffer) -> TNode:
    """Reuse the structurally equivalent subtree ``this`` for ``that``,
    emitting Update edits where literals differ.  Returns the patched
    subtree (same URIs as ``this``, literals of ``that``).  Iterative."""
    if this.literal_hash == that.literal_hash:
        return this
    # post-order rebuild over matched (source, target) pairs
    stack: list[tuple[TNode, TNode, bool]] = [(this, that, False)]
    results: list[TNode] = []
    while stack:
        a, b, post = stack.pop()
        if not post:
            if a.literal_hash == b.literal_hash:
                results.append(a)
                continue
            # type-aware comparison: (1,) == (True,) under Python ==, but
            # they are different literals (see tree.lits_equal)
            if not lits_equal(a.lits, b.lits):
                buf.update(a, b)
            stack.append((a, b, True))
            for i in range(len(a.kids) - 1, -1, -1):
                stack.append((a.kids[i], b.kids[i], False))
        else:
            cnt = len(a.kids)
            if cnt:
                kids = results[-cnt:]
                del results[-cnt:]
            else:
                kids = []
            if lits_equal(a.lits, b.lits) and all(x is y for x, y in zip(kids, a.kids)):
                results.append(a)
            else:
                node = TNode(a.sigs, a.sig, kids, b.lits, a.uri, validate=False)
                buf.fresh.append(node)
                results.append(node)
    return results[0]


def unload_unassigned(this: TNode, buf: EditBuffer, gen: int) -> None:
    """Unload the source subtree ``this``, keeping assigned subtrees as
    detached roots for later reuse.  Iterative pre-order (a parent's
    Unload precedes its kids', which truechange typing requires)."""
    stack = [this]
    while stack:
        n = stack.pop()
        if n.gen == gen and n.assigned is not None:
            continue  # remains a detached root; reattached elsewhere
        buf.unload(n)
        stack.extend(reversed(n.kids))


def load_unassigned(that: TNode, buf: EditBuffer, urigen: URIGen, gen: int) -> TNode:
    """Produce a tree equal to ``that``: reuse assigned source subtrees,
    load everything else afresh (bottom-up).  Iterative post-order, so
    kids are loaded (and draw their fresh URIs) before their parent."""
    fresh = urigen.fresh
    stack: list[tuple[TNode, bool]] = [(that, False)]
    results: list[TNode] = []
    while stack:
        n, post = stack.pop()
        if not post:
            src = n.assigned if n.gen == gen else None
            if src is not None:
                results.append(update_lits(src, n, buf))
                continue
            stack.append((n, True))
            for i in range(len(n.kids) - 1, -1, -1):
                stack.append((n.kids[i], False))
        else:
            cnt = len(n.kids)
            if cnt:
                kids = results[-cnt:]
                del results[-cnt:]
            else:
                kids = []
            node = TNode(n.sigs, n.sig, kids, n.lits, fresh(), validate=False)
            buf.load(node)
            results.append(node)
    return results[0]


def compute_edits(
    this: TNode,
    that: TNode,
    parent: Node,
    link: Link,
    buf: EditBuffer,
    urigen: URIGen,
    gen: int,
) -> TNode:
    """Simultaneous traversal of source and target (Section 4.4).

    Returns the patched subtree for this position.  Iterative with an
    explicit frame stack; edits are emitted in the same order as the
    paper's recursion (replacements at pre-visit, literal updates of kept
    nodes at post-visit, after all kid edits).
    """
    # pre frames: (False, this, that, parent, link); post: (True, this, that, -, -)
    stack: list[tuple[bool, TNode, TNode, Optional[Node], Optional[Link]]] = [
        (False, this, that, parent, link)
    ]
    results: list[TNode] = []
    while stack:
        post, a, b, par, lnk = stack.pop()
        if post:
            cnt = len(a.kids)
            if cnt:
                kids = results[-cnt:]
                del results[-cnt:]
            else:
                kids = []
            if not lits_equal(a.lits, b.lits):
                buf.update(a, b)
            elif all(x is y for x, y in zip(kids, a.kids)):
                results.append(a)
                continue
            node = TNode(a.sigs, a.sig, kids, b.lits, a.uri, validate=False)
            buf.fresh.append(node)
            results.append(node)
            continue
        a_assigned = a.assigned if a.gen == gen else None
        if a_assigned is b:
            # reuse this subtree in place, only updating literals
            results.append(update_lits(a, b, buf))
            continue
        if (
            a_assigned is None
            and (b.assigned if b.gen == gen else None) is None
            and a.tag == b.tag
            and not (a.sig.is_variadic and len(a.kids) != len(b.kids))
        ):
            # keep `a` in place and descend into the kids; a variadic
            # (list) node is only kept at unchanged arity — growth or
            # shrinkage replaces the cheap list node itself while its
            # elements are reused through their assignments
            stack.append((True, a, b, None, None))
            a_node = a.node
            items = a.kid_items
            for i in range(len(items) - 1, -1, -1):
                l, kid_a = items[i]
                stack.append((False, kid_a, b.kids[i], a_node, l))
            continue
        # replace subtree `a` by subtree `b`
        buf.detach(a, lnk, par)
        unload_unassigned(a, buf, gen)
        t = load_unassigned(b, buf, urigen, gen)
        buf.attach(t, lnk, par)
        results.append(t)
    return results[0]


# ---------------------------------------------------------------------------
# Script validation
# ---------------------------------------------------------------------------


def validate_script(script: EditScript, sigs, mode: str = "static") -> None:
    """Validate an emitted edit script according to ``mode`` (see
    :class:`DiffOptions.typecheck`).

    ``"static"`` runs truelint's linear-typing preflight — O(script),
    which is O(changed) in the warm loop, so checked-by-default costs
    next to nothing; ``"dynamic"`` replays the full truechange checker;
    ``"none"`` skips.  Raises on an ill-typed script (which, for scripts
    this module emitted, would be a diff bug — Conjecture 4.2)."""
    if mode == "none" or script.is_empty:
        return
    if mode == "static":
        # deferred: repro.robustness imports repro.core
        from repro.robustness.transaction import preflight_check_static

        with _span("repro.diff.validate", {"mode": "static"}):
            preflight_check_static(script, sigs)
    elif mode == "dynamic":
        from .typecheck import assert_well_typed

        with _span("repro.diff.validate", {"mode": "dynamic"}):
            assert_well_typed(sigs, script)
    else:
        raise ValueError(
            f"unknown typecheck mode {mode!r}; "
            "expected 'static', 'dynamic', or 'none'"
        )


# ---------------------------------------------------------------------------
# Main algorithm (the paper's compareTo)
# ---------------------------------------------------------------------------


def _dealias(that: TNode) -> TNode:
    """Rebuild the target tree with fresh node objects (same URIs) so the
    per-diff mutable state of source and target never aliases.  Iterative."""
    stack: list[tuple[TNode, bool]] = [(that, False)]
    results: list[TNode] = []
    while stack:
        n, post = stack.pop()
        if not post:
            stack.append((n, True))
            for i in range(len(n.kids) - 1, -1, -1):
                stack.append((n.kids[i], False))
        else:
            cnt = len(n.kids)
            if cnt:
                kids = results[-cnt:]
                del results[-cnt:]
            else:
                kids = []
            results.append(TNode(n.sigs, n.sig, kids, n.lits, n.uri, validate=False))
    return results[0]


def _check_source(this: TNode) -> set[int]:
    """Verify the source tree has unique node objects; return its id set.

    A proper tree of ``size`` nodes has exactly ``size`` distinct object
    ids — structure sharing shrinks the set.
    """
    this_ids = subtree_ids(this)
    if len(this_ids) != this.size:
        raise ValueError(
            "source tree contains the same node object twice; "
            "normalize it with TNode.unshared() before diffing"
        )
    return this_ids


def _dealias_if_needed(that: TNode, this_ids: set[int]) -> TNode:
    """Rebuild ``that`` iff it shares node objects with the source tree
    (given by id set) or with itself."""
    that_ids = subtree_ids(that)
    if len(that_ids) != that.size or not that_ids.isdisjoint(this_ids):
        return _dealias(that)
    return that


def _diff_prepared(
    this: TNode,
    that: TNode,
    options: DiffOptions,
    urigen: URIGen,
    stats: Optional[DiffStats] = None,
) -> tuple[EditScript, TNode, EditBuffer]:
    """Steps 2-4 on trees already known to be alias-free.

    No ``clear_diff_state`` sweep: the fresh registry's generation stamp
    lazily invalidates whatever state earlier diffs left behind.

    The spans cost nothing when instrumentation is disabled (a shared
    no-op context manager); ``stats`` is filled when given and published
    to the metrics registry when instrumentation is enabled.
    """
    with _span("repro.diff", {"engine": "object"}) as root:
        reg = SubtreeRegistry()
        with _span("repro.diff.assign_shares"):  # Step 2 (Step 1 at construction)
            assign_shares(this, that, reg, stats)
        if stats is not None:
            stats.shares = len(reg)
        with _span("repro.diff.assign_subtrees"):  # Step 3
            assign_subtrees(that, reg, options, stats)
        buf = EditBuffer()
        with _span("repro.diff.compute_edits"):  # Step 4
            patched = compute_edits(
                this, that, ROOT_NODE, ROOT_LINK, buf, urigen, reg.gen
            )
        if stats is not None:
            stats.count_edits(buf)
            if OBS.enabled:
                stats.publish(this.size, that.size)
        script = buf.to_script(coalesce=options.coalesce)
        root.set_attrs(
            src_nodes=this.size,
            dst_nodes=that.size,
            edits=len(script),
            shares=stats.shares if stats is not None else 0,
        )
    return script, patched, buf


def diff(
    this: TNode,
    that: TNode,
    options: DiffOptions = DEFAULT_OPTIONS,
    urigen: Optional[URIGen] = None,
) -> tuple[EditScript, TNode]:
    """Compute a truechange edit script transforming ``this`` into ``that``.

    Returns ``(script, patched)`` where ``patched`` equals ``that`` but
    reuses nodes of ``this`` wherever the script reuses them — suitable as
    the source of the next diffing round (the paper's ``compareTo``).
    """
    if urigen is None:
        urigen = this.sigs.urigen
    # The source tree must be a proper tree with unique node objects: its
    # URIs name distinct mutable positions.  (Use TNode.unshared() to
    # normalize a structure-shared tree first.)  The target tree may share
    # node objects with the source or with itself (structure sharing is
    # natural for immutable trees); rebuild it with fresh objects in that
    # case so per-diff state never aliases.
    stats = DiffStats() if OBS.enabled else None
    dealiased = _dealias_if_needed(that, _check_source(this))
    if stats is not None and dealiased is not that:
        stats.dealias_rebuilds = 1
    script, patched, _ = _diff_prepared(this, dealiased, options, urigen, stats)
    validate_script(script, this.sigs, options.typecheck)
    return script, patched


class DiffSession:
    """Repeated diffing against an evolving source tree (Section 6's
    incremental workload).

    The session walks ``TNode`` objects directly, like :func:`diff`: a
    freshly parsed target is diffed as it is, with no per-target
    conversion.  ``diff(this, that)`` pays an O(|this|) aliasing precheck
    on every call; the session caches the source tree's node-id set and
    rolls it forward in O(changed) per round from the edit buffer's
    record of freshly created nodes, so the warm loop only scans each new
    target once.  With ``check_aliasing=False`` even that scan is
    skipped; the caller then guarantees every target is a fresh tree
    (true for reparsed documents) that shares no node objects with the
    session's tree.

    The rolled-forward cache is a *superset* of the live tree's ids: ids
    of nodes that dropped out of the tree linger until the periodic exact
    rebuild (every :data:`REBUILD_EVERY` rounds).  To keep the check
    sound, the session pins the intervening tree versions so a lingering
    id can never be recycled for a new node — a cache hit therefore
    always means genuine object sharing with a recent version, which is
    handled by rebuilding the target (at worst a false alarm costing one
    O(n) rebuild, never a wrong diff).

    Emitted scripts are validated according to ``options.typecheck``
    (static preflight by default).  The session's ``tree`` is always the
    latest patched tree; its URIs are stable across rounds wherever
    subtrees were reused.
    """

    #: rounds between exact rebuilds of the cached node-id set
    REBUILD_EVERY = 8

    __slots__ = ("tree", "options", "urigen", "check_aliasing", "_ids", "_pinned")

    def __init__(
        self,
        tree: TNode,
        options: DiffOptions = DEFAULT_OPTIONS,
        urigen: Optional[URIGen] = None,
        check_aliasing: bool = True,
    ) -> None:
        self.tree = tree
        self.options = options
        self.urigen = urigen if urigen is not None else tree.sigs.urigen
        self.check_aliasing = check_aliasing
        self._ids: Optional[set[int]] = _check_source(tree) if check_aliasing else None
        # previous tree versions pinned until the next exact rebuild
        self._pinned: list[TNode] = []

    def diff(
        self, that: TNode, options: Optional[DiffOptions] = None
    ) -> tuple[EditScript, TNode]:
        """Diff the session tree against ``that`` and advance the session
        to the patched tree.  Returns ``(script, patched)`` like
        :func:`diff`."""
        opts = options if options is not None else self.options
        check = self.check_aliasing
        stats = DiffStats() if OBS.enabled else None
        if check:
            dealiased = _dealias_if_needed(that, self._ids)
            if stats is not None and dealiased is not that:
                stats.dealias_rebuilds = 1
            that = dealiased
        script, patched, buf = _diff_prepared(
            self.tree, that, opts, self.urigen, stats
        )
        validate_script(script, self.tree.sigs, opts.typecheck)
        rebuilt_ids = False
        if check:
            if len(self._pinned) >= self.REBUILD_EVERY:
                self._ids = subtree_ids(patched)
                self._pinned.clear()
                rebuilt_ids = True
            else:
                self._pinned.append(self.tree)
                self._ids.update(map(id, buf.fresh))
        if stats is not None:
            m = _metrics()
            m.counter("repro.session.diffs").inc()
            # one fresh SubtreeRegistry generation per round
            m.counter("repro.session.generation_bumps").inc()
            m.counter("repro.session.fresh_nodes").inc(len(buf.fresh))
            if check:
                # id-cache "hit" = the cached id set caught genuine object
                # sharing with a recent version and forced a target rebuild
                if stats.dealias_rebuilds:
                    m.counter("repro.session.id_cache_hits").inc()
                else:
                    m.counter("repro.session.id_cache_misses").inc()
                if rebuilt_ids:
                    m.counter("repro.session.id_cache_rebuilds").inc()
                else:
                    m.counter("repro.session.id_cache_rolls").inc()
        self.tree = patched
        return script, patched
