"""Typed binding for CPython's ``ast`` trees (the paper's evaluation runs
on real-world Python documents).

The binding embeds the Python 3.11 abstract grammar (``Python.asdl``) and
derives a truediff :class:`~repro.core.adt.Grammar` from it:

* every ASDL sum/product type becomes a sort;
* every constructor becomes a tagged node signature;
* ``T*`` fields become cons-lists (``List[T]``), ``T?`` fields become
  options (``Option[T]``) — keeping every constructor at fixed arity so
  the linear type system applies unchanged;
* ``identifier`` / ``string`` / ``int`` / ``constant`` fields become
  literals;
* *enum* sorts whose constructors all have no fields (``expr_context``,
  ``operator``, ``boolop``, ``unaryop``, ``cmpop``) are flattened into
  string literals on the parent node, so an operator change is a concise
  ``Update`` edit instead of a node replacement (the same flattening the
  paper's ANTLR binding applies to tokens).

Two fields hold *nullable* list elements in CPython (``Dict.keys`` for
``{**d}`` and ``arguments.kw_defaults``); they are encoded as
``List[Option[expr]]``.

Public API: :func:`parse_python`, :func:`to_tnode`, :func:`from_tnode`,
:func:`unparse_python`, and :func:`python_grammar`.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Optional, Union

from repro.core import Grammar, LIT_ANY, TNode
from repro.core.adt import ListSorts, OptionSorts
from repro.core.signature import Signature
from repro.core.types import LitType, Type

from .asdl import Field, Module, parse_asdl

# The abstract grammar of Python 3.11 (CPython Parser/Python.asdl, with
# location attributes elided — they are irrelevant for structural diffing).
PYTHON_ASDL = """
module Python
{
    mod = Module(stmt* body, type_ignore* type_ignores)
        | Interactive(stmt* body)
        | Expression(expr body)
        | FunctionType(expr* argtypes, expr returns)

    stmt = FunctionDef(identifier name, arguments args,
                       stmt* body, expr* decorator_list, expr? returns,
                       string? type_comment)
         | AsyncFunctionDef(identifier name, arguments args,
                            stmt* body, expr* decorator_list, expr? returns,
                            string? type_comment)
         | ClassDef(identifier name, expr* bases, keyword* keywords,
                    stmt* body, expr* decorator_list)
         | Return(expr? value)
         | Delete(expr* targets)
         | Assign(expr* targets, expr value, string? type_comment)
         | AugAssign(expr target, operator op, expr value)
         | AnnAssign(expr target, expr annotation, expr? value, int simple)
         | For(expr target, expr iter, stmt* body, stmt* orelse, string? type_comment)
         | AsyncFor(expr target, expr iter, stmt* body, stmt* orelse, string? type_comment)
         | While(expr test, stmt* body, stmt* orelse)
         | If(expr test, stmt* body, stmt* orelse)
         | With(withitem* items, stmt* body, string? type_comment)
         | AsyncWith(withitem* items, stmt* body, string? type_comment)
         | Match(expr subject, match_case* cases)
         | Raise(expr? exc, expr? cause)
         | Try(stmt* body, excepthandler* handlers, stmt* orelse, stmt* finalbody)
         | TryStar(stmt* body, excepthandler* handlers, stmt* orelse, stmt* finalbody)
         | Assert(expr test, expr? msg)
         | Import(alias* names)
         | ImportFrom(identifier? module, alias* names, int? level)
         | Global(identifier* names)
         | Nonlocal(identifier* names)
         | Expr(expr value)
         | Pass | Break | Continue

    expr = BoolOp(boolop op, expr* values)
         | NamedExpr(expr target, expr value)
         | BinOp(expr left, operator op, expr right)
         | UnaryOp(unaryop op, expr operand)
         | Lambda(arguments args, expr body)
         | IfExp(expr test, expr body, expr orelse)
         | Dict(expr* keys, expr* values)
         | Set(expr* elts)
         | ListComp(expr elt, comprehension* generators)
         | SetComp(expr elt, comprehension* generators)
         | DictComp(expr key, expr value, comprehension* generators)
         | GeneratorExp(expr elt, comprehension* generators)
         | Await(expr value)
         | Yield(expr? value)
         | YieldFrom(expr value)
         | Compare(expr left, cmpop* ops, expr* comparators)
         | Call(expr func, expr* args, keyword* keywords)
         | FormattedValue(expr value, int conversion, expr? format_spec)
         | JoinedStr(expr* values)
         | Constant(constant value, string? kind)
         | Attribute(expr value, identifier attr, expr_context ctx)
         | Subscript(expr value, expr slice, expr_context ctx)
         | Starred(expr value, expr_context ctx)
         | Name(identifier id, expr_context ctx)
         | List(expr* elts, expr_context ctx)
         | Tuple(expr* elts, expr_context ctx)
         | Slice(expr? lower, expr? upper, expr? step)

    expr_context = Load | Store | Del
    boolop = And | Or
    operator = Add | Sub | Mult | MatMult | Div | Mod | Pow | LShift
             | RShift | BitOr | BitXor | BitAnd | FloorDiv
    unaryop = Invert | Not | UAdd | USub
    cmpop = Eq | NotEq | Lt | LtE | Gt | GtE | Is | IsNot | In | NotIn

    comprehension = (expr target, expr iter, expr* ifs, int is_async)
    excepthandler = ExceptHandler(expr? type, identifier? name, stmt* body)
    arguments = (arg* posonlyargs, arg* args, arg? vararg, arg* kwonlyargs,
                 expr* kw_defaults, arg? kwarg, expr* defaults)
    arg = (identifier arg, expr? annotation, string? type_comment)
    keyword = (identifier? arg, expr value)
    alias = (identifier name, identifier? asname)
    withitem = (expr context_expr, expr? optional_vars)
    match_case = (pattern pattern, expr? guard, stmt* body)

    pattern = MatchValue(expr value)
            | MatchSingleton(constant value)
            | MatchSequence(pattern* patterns)
            | MatchMapping(expr* keys, pattern* patterns, identifier? rest)
            | MatchClass(expr cls, pattern* patterns,
                         identifier* kwd_attrs, pattern* kwd_patterns)
            | MatchStar(identifier? name)
            | MatchAs(pattern? pattern, identifier? name)
            | MatchOr(pattern* patterns)

    type_ignore = TypeIgnore(int lineno, string tag)
}
"""

# Literal base types of ASDL builtins.  Optionals (identifier?, int?, ...)
# additionally admit None.
_LIT_BUILTINS = {"identifier", "string", "int", "constant", "object"}

#: fields whose list *elements* may be None in CPython ASTs
_NULLABLE_LISTS = {("Dict", "keys"), ("arguments", "kw_defaults")}

# CPython ASTs can nest deeply (a long ``a + b + ...`` chain is one level
# per operand).  The converters below are iterative; the stdlib
# ``ast.unparse`` recurses, and Python 3.11 no longer burns C stack on
# Python-to-Python calls, so a generous recursion limit is safe there.
_RECURSION_LIMIT = 1_000_000

#: Tallest tree :func:`unparse_python` hands to ``ast.unparse`` on CPython
#: < 3.11, where every Python call also takes C stack: with the raised
#: limit a deeper tree overflows the C stack (SIGSEGV) instead of raising
#: ``RecursionError``.  On 3.10.13 with 8 MiB stacks, main thread and
#: worker thread alike, ``ast.unparse`` survived 4,500 levels of every
#: deep expression shape tried and crashed between 5,000 and 6,000
#: ``BinOp`` levels; a tree's height is at least its AST depth.
_UNPARSE_MAX_HEIGHT = 2_500 if sys.version_info < (3, 11) else None


def _ensure_recursion_limit() -> None:
    if sys.getrecursionlimit() < _RECURSION_LIMIT:
        sys.setrecursionlimit(_RECURSION_LIMIT)


@dataclass(frozen=True)
class _FieldPlan:
    """Pre-compiled conversion plan for one constructor field."""

    name: str
    kind: str  # 'lit' | 'enum' | 'enum_list' | 'kid' | 'opt' | 'list' | 'opt_list'
    sort_name: str = ""


@dataclass(frozen=True)
class _CtorPlan:
    tag: str
    fields: tuple[_FieldPlan, ...]


# ast -> TNode work items (see PythonGrammar.to_tnode)
_VISIT, _BUILD, _SOME, _NONE, _LIST = range(5)


@dataclass(frozen=True)
class _Build:
    """How :meth:`PythonGrammar.to_tnode` builds one constructor's node:
    its signature, kid count, and for every plain ``kid`` field the kid
    position with the constructor tags admissible there."""

    sig: Signature
    kids: int
    checks: tuple[tuple[int, frozenset[str]], ...]


class PythonGrammar:
    """The derived grammar plus the ast<->TNode conversion tables."""

    def __init__(self) -> None:
        self.module: Module = parse_asdl(PYTHON_ASDL)
        self.grammar = Grammar()
        g = self.grammar
        self.enum_sorts: set[str] = {
            name
            for name, sum_decl in self.module.sums.items()
            if all(not c.fields for c in sum_decl.constructors)
        }
        self.sorts: dict[str, Type] = {}
        for name in self.module.type_names:
            if name not in self.enum_sorts:
                self.sorts[name] = g.sort(name)
        self.lists: dict[str, ListSorts] = {}
        self.options: dict[str, OptionSorts] = {}
        self.plans: dict[str, _CtorPlan] = {}
        self._nullable_lit = LitType("NullableLit", lambda v: True)

        for name, sum_decl in self.module.sums.items():
            if name in self.enum_sorts:
                continue
            for ctor in sum_decl.constructors:
                self._declare(ctor.name, name, ctor.fields)
        for name, prod in self.module.products.items():
            self._declare(name, name, prod.fields)
        self._compile()

    # -- grammar derivation -------------------------------------------------

    def _list_of(self, sort: Type) -> ListSorts:
        key = sort.name
        if key not in self.lists:
            self.lists[key] = self.grammar.list_of(sort)
        return self.lists[key]

    def _option_of(self, sort: Type) -> OptionSorts:
        key = sort.name
        if key not in self.options:
            self.options[key] = self.grammar.option_of(sort)
        return self.options[key]

    def _declare(self, tag: str, result_sort: str, fields: tuple[Field, ...]) -> None:
        kid_spec: list[tuple[str, Type]] = []
        lit_spec: list[tuple[str, LitType]] = []
        plans: list[_FieldPlan] = []
        for f in fields:
            if f.type in _LIT_BUILTINS:
                lit_spec.append((f.name, self._nullable_lit if (f.opt or f.seq) else LIT_ANY))
                plans.append(_FieldPlan(f.name, "lit"))
            elif f.type in self.enum_sorts:
                lit_spec.append((f.name, LIT_ANY))
                plans.append(_FieldPlan(f.name, "enum_list" if f.seq else "enum"))
            else:
                sort = self.sorts[f.type]
                if f.seq:
                    if (tag, f.name) in _NULLABLE_LISTS:
                        opt = self._option_of(sort)
                        lst = self._list_of(opt.sort)
                        kid_spec.append((f.name, lst.sort))
                        plans.append(_FieldPlan(f.name, "opt_list", f.type))
                    else:
                        lst = self._list_of(sort)
                        kid_spec.append((f.name, lst.sort))
                        plans.append(_FieldPlan(f.name, "list", f.type))
                elif f.opt:
                    opt = self._option_of(sort)
                    kid_spec.append((f.name, opt.sort))
                    plans.append(_FieldPlan(f.name, "opt", f.type))
                else:
                    kid_spec.append((f.name, sort))
                    plans.append(_FieldPlan(f.name, "kid", f.type))
        self.grammar.constructor(tag, self.sorts[result_sort], kids=kid_spec, lits=lit_spec)
        self.plans[tag] = _CtorPlan(tag, tuple(plans))

    def _compile(self) -> None:
        """Precompute what the iterative converters need per constructor.

        A kid built from an ``ast`` node carries that node's constructor
        tag, so "is this kid's sort admissible here" is one set lookup
        instead of a subtype query; nodes whose kids all pass are built
        with ``validate=False``.  An ill-sorted kid makes the node build
        with validation on, which raises the same ``SignatureError`` the
        grammar's constructors raise.
        """
        sigs = self.grammar.sigs
        self._admits = admits = {
            name: frozenset(
                tag for tag in self.plans if sigs.is_subtype(sigs[tag].result, sort)
            )
            for name, sort in self.sorts.items()
        }
        self._builds: dict[str, _Build] = {}
        self._locations: dict[str, dict[str, int]] = {}
        for tag, plan in self.plans.items():
            kid_fields = [fp for fp in plan.fields if fp.sort_name]
            checks = tuple(
                (i, admits[fp.sort_name])
                for i, fp in enumerate(kid_fields)
                if fp.kind == "kid"
            )
            self._builds[tag] = _Build(sigs[tag], len(kid_fields), checks)
            # the positions ast.fix_missing_locations (which recurses)
            # gives a node built without any: line 1, column 0 (TryStar is
            # new in CPython 3.11)
            cls = getattr(ast, tag, None)
            self._locations[tag] = {
                a: 1 if a.endswith("lineno") else 0
                for a in (cls._attributes if cls is not None else ())
                if a in ("lineno", "col_offset", "end_lineno", "end_col_offset")
            }

    # -- ast -> TNode ----------------------------------------------------------

    def to_tnode(self, root: ast.AST) -> TNode:
        """Convert a CPython ast node into a diffable TNode.

        Iterative post-order over a work stack: every node, option and
        list node draws its fresh URI after its kids, in the order of the
        recursive definition (fields left to right, each option or list
        node right after its elements)."""
        sigs = self.grammar.sigs
        fresh = self.grammar.urigen.fresh
        plans = self.plans
        builds = self._builds
        admits = self._admits
        built: list[TNode] = []
        stack: list[tuple[Any, ...]] = [(_VISIT, root)]
        while stack:
            item = stack.pop()
            op = item[0]
            if op == _VISIT:
                node = item[1]
                tag = type(node).__name__
                plan = plans.get(tag)
                if plan is None:
                    raise ValueError(f"unsupported ast node type {tag}")
                lits: list[Any] = []
                todo: list[tuple[Any, ...]] = []
                for fp in plan.fields:
                    value = getattr(node, fp.name, None)
                    kind = fp.kind
                    if kind == "lit":
                        lits.append(value)
                    elif kind == "enum":
                        lits.append(type(value).__name__)
                    elif kind == "enum_list":
                        lits.append(tuple(type(v).__name__ for v in value))
                    elif kind == "kid":
                        todo.append((_VISIT, value))
                    elif kind == "opt":
                        opt = self.options[fp.sort_name]
                        if value is None:
                            todo.append((_NONE, opt))
                        else:
                            todo.append((_VISIT, value))
                            todo.append((_SOME, opt, admits[fp.sort_name]))
                    elif kind == "list":
                        count = 0
                        for v in value or ():
                            count += 1
                            todo.append((_VISIT, v))
                        lst = self.lists[fp.sort_name]
                        todo.append((_LIST, lst, count, admits[fp.sort_name]))
                    else:  # opt_list: elements are options, admissible as built
                        opt = self.options[fp.sort_name]
                        count = 0
                        for v in value or ():
                            count += 1
                            if v is None:
                                todo.append((_NONE, opt))
                            else:
                                todo.append((_VISIT, v))
                                todo.append((_SOME, opt, admits[fp.sort_name]))
                        todo.append((_LIST, self.lists[opt.sort.name], count, None))
                stack.append((_BUILD, builds[tag], lits))
                todo.reverse()
                stack.extend(todo)
            elif op == _BUILD:
                b = item[1]
                n = b.kids
                kids = built[-n:] if n else []
                if n:
                    del built[-n:]
                ok = True
                for i, allowed in b.checks:
                    if kids[i].sig.tag not in allowed:
                        ok = False
                        break
                built.append(TNode(sigs, b.sig, kids, item[2], fresh(), validate=not ok))
            elif op == _SOME:
                inner = built[-1]
                built[-1] = TNode(
                    sigs,
                    item[1].some.sig,
                    (inner,),
                    (),
                    fresh(),
                    validate=inner.sig.tag not in item[2],
                )
            elif op == _NONE:
                built.append(TNode(sigs, item[1].none.sig, (), (), fresh(), validate=False))
            else:  # _LIST
                _, lst, n, allowed = item
                elems = built[-n:] if n else []
                if n:
                    del built[-n:]
                ok = True
                if allowed is not None:
                    for e in elems:
                        if e.sig.tag not in allowed:
                            ok = False
                            break
                built.append(TNode(sigs, sigs[lst.tag], elems, (), fresh(), validate=not ok))
        return built[0]

    # -- TNode -> ast ---------------------------------------------------------

    def from_tnode(self, root: TNode) -> ast.AST:
        """Convert a diffable TNode back into a CPython ast node, with the
        positions ``ast.fix_missing_locations`` would give it.

        Iterative post-order: an ast node is constructed once all of its
        kid nodes are, from pending frames ``(cls, kwargs, slots, count)``.
        ``slots`` lists the kid-valued fields in order, each with its
        shape: None for one node, an int for a list of that many nodes,
        or one bool per element (False = a ``None`` element)."""
        plans = self.plans
        locations = self._locations
        out: list[ast.AST] = []
        stack: list[tuple[Optional[TNode], Any]] = [(root, None)]
        while stack:
            tree, frame = stack.pop()
            if tree is None:
                cls, kwargs, slots, count = frame
                vals = out[-count:] if count else []
                if count:
                    del out[-count:]
                at = 0
                for name, shape in slots:
                    if shape is None:
                        kwargs[name] = vals[at]
                        at += 1
                    elif type(shape) is int:
                        kwargs[name] = vals[at : at + shape]
                        at += shape
                    else:
                        elems = []
                        for present in shape:
                            if present:
                                elems.append(vals[at])
                                at += 1
                            else:
                                elems.append(None)
                        kwargs[name] = elems
                out.append(cls(**kwargs))
                continue
            tag = tree.tag
            plan = plans.get(tag)
            if plan is None:
                raise ValueError(f"not a Python ast constructor: {tag}")
            kwargs = dict(locations[tag])
            slots: list[tuple[str, Any]] = []
            pending: list[TNode] = []
            kid_iter = iter(tree.kids)
            lit_iter = iter(tree.lits)
            for fp in plan.fields:
                kind = fp.kind
                if kind == "lit":
                    kwargs[fp.name] = next(lit_iter)
                elif kind == "enum":
                    kwargs[fp.name] = getattr(ast, next(lit_iter))()
                elif kind == "enum_list":
                    kwargs[fp.name] = [getattr(ast, n)() for n in next(lit_iter)]
                elif kind == "kid":
                    slots.append((fp.name, None))
                    pending.append(next(kid_iter))
                elif kind == "opt":
                    inner = self.options[fp.sort_name].get(next(kid_iter))
                    if inner is None:
                        kwargs[fp.name] = None
                    else:
                        slots.append((fp.name, None))
                        pending.append(inner)
                elif kind == "list":
                    elems = self.lists[fp.sort_name].elements(next(kid_iter))
                    slots.append((fp.name, len(elems)))
                    pending.extend(elems)
                else:  # opt_list
                    opt = self.options[fp.sort_name]
                    flags = []
                    for el in self.lists[opt.sort.name].elements(next(kid_iter)):
                        inner = opt.get(el)
                        flags.append(inner is not None)
                        if inner is not None:
                            pending.append(inner)
                    slots.append((fp.name, tuple(flags)))
            stack.append((None, (getattr(ast, tag), kwargs, slots, len(pending))))
            stack.extend((t, None) for t in reversed(pending))
        return out[0]


@lru_cache(maxsize=1)
def python_grammar() -> PythonGrammar:
    """The process-wide Python grammar binding (derived once)."""
    return PythonGrammar()


def to_tnode(node: ast.AST) -> TNode:
    """Convert an ``ast`` node to a diffable tree."""
    return python_grammar().to_tnode(node)


def from_tnode(tree: TNode) -> ast.AST:
    """Convert a diffable tree back to an ``ast`` node."""
    return python_grammar().from_tnode(tree)


def parse_python(source: str, filename: str = "<string>") -> TNode:
    """Parse Python source into a diffable tree."""
    return to_tnode(ast.parse(source, filename=filename))


def unparse_python(tree: TNode) -> str:
    """Render a diffable tree back into Python source text.

    Raises ``RecursionError`` up front, touching nothing, for a tree
    taller than ``ast.unparse`` can take on this interpreter (see
    :data:`_UNPARSE_MAX_HEIGHT`)."""
    if _UNPARSE_MAX_HEIGHT is not None and tree.height > _UNPARSE_MAX_HEIGHT:
        raise RecursionError(
            f"tree of height {tree.height} is too deep for ast.unparse on "
            f"CPython {sys.version_info[0]}.{sys.version_info[1]} "
            f"(at most {_UNPARSE_MAX_HEIGHT})"
        )
    _ensure_recursion_limit()
    return ast.unparse(from_tnode(tree))
