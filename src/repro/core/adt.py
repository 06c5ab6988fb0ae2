"""Declaring diffable algebraic data types (Section 5).

The Scala implementation of truediff uses a ``@diffable`` macro to derive
the datatype-generic machinery for each case class.  In Python, the
:class:`Grammar` DSL plays the same role: it declares sorts and
constructors, derives signatures into a shared
:class:`~repro.core.signature.SignatureRegistry`, and hands back plain
callables that build :class:`~repro.core.tree.TNode` trees::

    g = Grammar()
    Exp = g.sort("Exp")
    Num = g.constructor("Num", Exp, lits=[("n", LIT_INT)])
    Add = g.constructor("Add", Exp, kids=[("e1", Exp), ("e2", Exp)])
    tree = Add(Num(1), Num(2))

Sequence-valued arguments (``Seq[T]`` in the Scala artifact) are encoded
as cons-lists so that every constructor keeps a fixed arity and the linear
type system of Figure 3 applies unchanged::

    ExpList = g.list_of(Exp)             # declares Cons[Exp] / Nil[Exp]
    tree = ExpList.build([Num(1), Num(2)])

Optional arguments (``T?``) are encoded analogously with ``Some[T]`` /
``None[T]`` via :meth:`Grammar.option_of`.

A decorator front-end :func:`diffable` mirrors the Scala macro's surface
syntax for users who prefer class declarations::

    g = Grammar()

    @g.diffable(sort="Exp")
    class Var:
        name: str          # literal (str/int/float/bool annotations)

    @g.diffable(sort="Exp")
    class Add:
        e1: "Exp"          # kid of sort Exp (string annotations are sorts)
        e2: "Exp"

    t = Add(Var("x"), Var("y"))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence, Union

from .node import Link, Tag
from .signature import Signature, SignatureError, SignatureRegistry
from .tree import TNode
from .types import (
    ANY,
    LIT_ANY,
    LIT_BOOL,
    LIT_FLOAT,
    LIT_INT,
    LIT_STR,
    LitType,
    Type,
    sort as mk_sort,
)

KidSpec = Sequence[tuple[Link, Type]]
LitSpec = Sequence[tuple[Link, LitType]]

_PY_LIT_TYPES = {
    int: LIT_INT,
    str: LIT_STR,
    float: LIT_FLOAT,
    bool: LIT_BOOL,
    object: LIT_ANY,
}


class Constructor:
    """A callable that builds trees for one declared constructor."""

    __slots__ = ("grammar", "sig")

    def __init__(self, grammar: "Grammar", sig: Signature) -> None:
        self.grammar = grammar
        self.sig = sig

    @property
    def tag(self) -> Tag:
        return self.sig.tag

    def __call__(self, *args: Any, **kwargs: Any) -> TNode:
        """Build a node.  Positional arguments are kids followed by
        literals (in declaration order); keywords may name either."""
        n_kids = len(self.sig.kids)
        n_lits = len(self.sig.lits)
        slots: dict[Link, Any] = {}
        order = list(self.sig.kid_links) + list(self.sig.lit_links)
        if len(args) > len(order):
            raise SignatureError(
                f"{self.tag} takes at most {len(order)} arguments, got {len(args)}"
            )
        for link, value in zip(order, args):
            slots[link] = value
        for link, value in kwargs.items():
            if link in slots:
                raise SignatureError(f"{self.tag}: duplicate argument {link!r}")
            if link not in order:
                raise SignatureError(f"{self.tag}: unknown argument {link!r}")
            slots[link] = value
        missing = [l for l in order if l not in slots]
        if missing:
            raise SignatureError(f"{self.tag}: missing arguments {missing}")
        kids = [self._coerce_kid(slots[l]) for l in self.sig.kid_links]
        lits = [slots[l] for l in self.sig.lit_links]
        return TNode(
            self.grammar.sigs, self.sig, kids, lits, self.grammar.urigen.fresh()
        )

    def _coerce_kid(self, value: Any) -> TNode:
        if isinstance(value, TNode):
            return value
        raise SignatureError(f"{self.tag}: kid argument {value!r} is not a tree")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<constructor {self.sig}>"


@dataclass(frozen=True)
class ListSorts:
    """The flat (variadic) encoding of ``Seq[T]``: one ``List[T]`` node
    whose kids are the elements, reachable via index links ``"0"``, ``"1"``,
    ... — the Scala artifact's ``DiffableList``.

    A flat list keeps element reuse local: inserting or removing an
    element replaces only the list node itself while elements are moved,
    whereas a cons encoding (:class:`ConsListSorts`, kept for the ablation
    benchmarks) exposes every suffix as a stealable subtree, which lets
    Step 3 reuse a *shifted* spine and degrade patch conciseness.
    """

    grammar: "Grammar"
    sort: Type
    tag: str

    def build(self, items: Iterable[TNode]) -> TNode:
        """Build a list node over the given elements."""
        sig = self.grammar.sigs[self.tag]
        return TNode(
            self.grammar.sigs, sig, list(items), (), self.grammar.urigen.fresh()
        )

    def elements(self, tree: TNode) -> list[TNode]:
        """The elements of a list node."""
        if tree.tag != self.tag:
            raise SignatureError(f"not a {self.tag} node: {tree.tag}")
        return list(tree.kids)


@dataclass(frozen=True)
class ConsListSorts:
    """The cons-list encoding of ``Seq[T]`` (ablation baseline)."""

    sort: Type
    cons: Constructor
    nil: Constructor

    def build(self, items: Iterable[TNode]) -> TNode:
        """Fold a Python sequence into a cons-list tree."""
        acc = self.nil()
        for item in reversed(list(items)):
            acc = self.cons(item, acc)
        return acc

    def elements(self, tree: TNode) -> list[TNode]:
        """Flatten a cons-list tree back into a Python list."""
        out: list[TNode] = []
        while tree.tag == self.cons.tag:
            out.append(tree.kids[0])
            tree = tree.kids[1]
        if tree.tag != self.nil.tag:
            raise SignatureError(f"malformed cons-list: unexpected tag {tree.tag}")
        return out


@dataclass(frozen=True)
class OptionSorts:
    """The option encoding of ``T?`` for element sort ``T``."""

    sort: Type
    some: Constructor
    none: Constructor

    def build(self, item: Optional[TNode]) -> TNode:
        return self.none() if item is None else self.some(item)

    def get(self, tree: TNode) -> Optional[TNode]:
        if tree.tag == self.none.tag:
            return None
        if tree.tag == self.some.tag:
            return tree.kids[0]
        raise SignatureError(f"malformed option: unexpected tag {tree.tag}")


class Grammar:
    """Declares sorts and constructors for one family of diffable trees.

    All trees built against the same grammar share a
    :class:`~repro.core.signature.SignatureRegistry` (the Σ of the type
    system) and a URI generator, so diffing any two of them is safe.
    """

    def __init__(self, sigs: Optional[SignatureRegistry] = None) -> None:
        self.sigs = sigs if sigs is not None else SignatureRegistry()
        self.constructors: dict[Tag, Constructor] = {}
        self._lists: dict[str, ListSorts] = {}
        self._cons_lists: dict[str, ConsListSorts] = {}
        self._options: dict[str, OptionSorts] = {}

    @property
    def urigen(self):
        return self.sigs.urigen

    # -- declarations -------------------------------------------------------

    def sort(self, name: str, supers: Iterable[Type] = ()) -> Type:
        """Declare a sort, optionally as a subsort of existing sorts."""
        return self.sigs.declare_sort(mk_sort(name), supers)

    def constructor(
        self,
        tag: Tag,
        result: Type,
        kids: KidSpec = (),
        lits: LitSpec = (),
    ) -> Constructor:
        """Declare a constructor and return its build function."""
        sig = Signature(tag, tuple(kids), tuple(lits), result)
        self.sigs.declare(sig)
        ctor = Constructor(self, sig)
        self.constructors[tag] = ctor
        return ctor

    def list_of(self, elem: Type) -> ListSorts:
        """Declare (or fetch) the flat list sort for element sort ``elem``."""
        key = elem.name
        cached = self._lists.get(key)
        if cached is not None:
            return cached
        list_sort = self.sort(f"List[{key}]")
        tag = f"List[{key}]"
        self.sigs.declare(Signature(tag, (), (), list_sort, variadic=elem))
        sorts = ListSorts(self, list_sort, tag)
        self._lists[key] = sorts
        return sorts

    def cons_list_of(self, elem: Type) -> ConsListSorts:
        """Declare (or fetch) the cons-list sorts for element sort ``elem``
        (the encoding the ablation benchmarks compare against)."""
        key = elem.name
        cached = self._cons_lists.get(key)
        if cached is not None:
            return cached
        list_sort = self.sort(f"ConsList[{key}]")
        cons = self.constructor(
            f"Cons[{key}]", list_sort, kids=[("head", elem), ("tail", list_sort)]
        )
        nil = self.constructor(f"Nil[{key}]", list_sort)
        sorts = ConsListSorts(list_sort, cons, nil)
        self._cons_lists[key] = sorts
        return sorts

    def option_of(self, elem: Type) -> OptionSorts:
        """Declare (or fetch) the option sorts for element sort ``elem``."""
        key = elem.name
        cached = self._options.get(key)
        if cached is not None:
            return cached
        opt_sort = self.sort(f"Option[{key}]")
        some = self.constructor(f"Some[{key}]", opt_sort, kids=[("value", elem)])
        none = self.constructor(f"None[{key}]", opt_sort)
        sorts = OptionSorts(opt_sort, some, none)
        self._options[key] = sorts
        return sorts

    # -- building -------------------------------------------------------------

    def build(self, tag: Tag, kids: Sequence[TNode] = (), lits: Sequence[Any] = ()) -> TNode:
        """Build a node by tag with positional kid and literal lists."""
        return TNode.build(self.sigs, tag, kids, lits, self.urigen)

    def parse_tuple(self, data: Union[tuple, str]) -> TNode:
        """Build a tree from the nested-tuple format ``(tag, kids, lits)``
        produced by :meth:`TNode.to_tuple` (URIs are re-generated).

        Iterative post-order: each kid is built, and draws its fresh URI,
        in tuple order before its parent, so deep trees need no recursion.
        """
        stack: list[tuple[Union[tuple, str], bool]] = [(data, False)]
        built: list[TNode] = []
        while stack:
            item, post = stack.pop()
            if isinstance(item, str):
                built.append(self.build(item))
                continue
            tag, kids, lits = item
            if not post:
                stack.append((item, True))
                stack.extend((k, False) for _, k in reversed(kids))
                continue
            if isinstance(tag, tuple):
                tag = tag[0]
            sig = self.sigs[tag]
            at = len(built) - len(kids)
            kid_map = {l: k for (l, _), k in zip(kids, built[at:])}
            del built[at:]
            lit_map = dict(lits)
            built.append(
                self.build(
                    tag,
                    [kid_map[l] for l in sig.kid_links_for(len(kid_map))],
                    [lit_map[l] for l in sig.lit_links],
                )
            )
        return built[0]

    # -- decorator front-end ----------------------------------------------------

    def diffable(self, sort: Union[str, Type], tag: Optional[str] = None):
        """Class-decorator mirror of the Scala ``@diffable`` macro.

        Annotations that are Python primitive types (or their names)
        declare literals; string annotations naming a declared sort (or
        Type annotations) declare kids.  The decorated class is replaced
        by the constructor callable.
        """
        result_sort = self.sort(sort) if isinstance(sort, str) else sort

        def wrap(cls: type) -> Constructor:
            ctor_tag = tag if tag is not None else cls.__name__
            kids: list[tuple[Link, Type]] = []
            lits: list[tuple[Link, LitType]] = []
            for name, ann in getattr(cls, "__annotations__", {}).items():
                resolved = self._resolve_annotation(ann)
                if isinstance(resolved, LitType):
                    lits.append((name, resolved))
                else:
                    kids.append((name, resolved))
            return self.constructor(ctor_tag, result_sort, kids=kids, lits=lits)

        return wrap

    def _resolve_annotation(self, ann: Any) -> Union[Type, LitType]:
        if isinstance(ann, (Type, LitType)):
            return ann
        if isinstance(ann, type) and ann in _PY_LIT_TYPES:
            return _PY_LIT_TYPES[ann]
        if isinstance(ann, str):
            # under `from __future__ import annotations`, a quoted
            # annotation like `e1: "Exp"` arrives as the source text
            # `'"Exp"'` — strip the inner quotes
            ann = ann.strip().strip("\"'")
            by_name = {"int": LIT_INT, "str": LIT_STR, "float": LIT_FLOAT, "bool": LIT_BOOL}
            if ann in by_name:
                return by_name[ann]
            return self.sort(ann)
        raise SignatureError(f"cannot interpret annotation {ann!r}")


def diffable(grammar: Grammar, sort: Union[str, Type], tag: Optional[str] = None):
    """Module-level alias of :meth:`Grammar.diffable`."""
    return grammar.diffable(sort, tag)
