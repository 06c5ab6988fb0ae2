"""Grammar coverage for the Python adapter: every constructor of the
embedded ASDL must be exercised by at least one round-trip."""

from __future__ import annotations

import ast

import pytest

from repro.adapters.pyast import (
    PYTHON_ASDL,
    from_tnode,
    parse_python,
    python_grammar,
    to_tnode,
    unparse_python,
)
from repro.adapters.asdl import parse_asdl
from repro.core import TNode

# one source file that tries to use everything
KITCHEN_SINK = '''
import os, sys as system
from os import path as p, sep
from . import sibling

GLOBAL: int = 0

async def agen(x: int = 1, /, y: str = "d", *args: int, kw: bool = False, **rest) -> int:
    global GLOBAL
    await one()
    async with ctx() as c:
        pass
    async for item in aiter():
        yield item
    value = yield
    got = yield from subgen()

@decorator(arg)
class Klass(Base, metaclass=Meta):
    """doc"""
    attr: list[int] = []

    def method(self):
        nonlocal_demo()
        return self

def nonlocal_demo():
    captured = 1
    def inner():
        nonlocal captured
        captured += 1
    inner()

def control_flow(n):
    with open("f") as fh, lock:
        literal_set = {1, 2, 3}
    while n > 0:
        n -= 1
        if n == 3:
            continue
        elif n == 2:
            break
    else:
        n = -1
    for i in range(3):
        pass
    else:
        pass
    try:
        assert n >= 0, "negative"
        del n
        raise ValueError("x") from None
    except (TypeError, ValueError) as exc:
        print(exc)
    except Exception:
        raise
    else:
        pass
    finally:
        pass
    try:
        pass
    except* OSError:
        pass

def expressions():
    a = 1 + 2 - 3 * 4 / 5 // 6 % 7 ** 8
    b = 1 @ matrix
    c = 1 << 2 >> 3 | 4 ^ 5 & ~6
    d = not True or False and None
    e = +x if cond else -y
    f = lambda q, *, r=2: q + r
    g = [i for i in range(3) if i]
    h = {k: v for k, v in d.items()}
    i = {s for s in "abc"}
    j = (c async for c in agen())
    k = a < b <= c > d >= e == f != g
    l = a is b is not c in d not in e
    m = f"{a!s:>10} {b=} {c:{width}}"
    n = (walrus := 5)
    o = obj.attr.nested
    q = seq[1:2:3], seq[..., None], seq[a, b]
    *starred, = [1]
    s = {**mapping, "k": 1}
    t = (1, 2.5, 3j, True, None, b"bytes", "str")
    u = [*list1, *list2]
    v = func(*args, kw=1, **kwargs)
    return (a, b)

def matcher(x):
    match x:
        case 1 | 2:
            pass
        case [a, b, *rest] if a:
            pass
        case {"k": v, **others}:
            pass
        case Point(0, y=1):
            pass
        case str() as s:
            pass
        case None:
            pass
        case _:
            pass
'''


def all_declared_constructors() -> set[str]:
    mod = parse_asdl(PYTHON_ASDL)
    out: set[str] = set()
    enum_sorts = {
        name
        for name, s in mod.sums.items()
        if all(not c.fields for c in s.constructors)
    }
    for name, s in mod.sums.items():
        if name in enum_sorts:
            continue  # flattened into literals
        out.update(c.name for c in s.constructors)
    out.update(mod.products)
    return out


def test_kitchen_sink_round_trips():
    tree = parse_python(KITCHEN_SINK)
    assert ast.dump(ast.parse(unparse_python(tree))) == ast.dump(
        ast.parse(KITCHEN_SINK)
    )


def test_all_constructors_covered():
    used: set[str] = set()
    for n in parse_python(KITCHEN_SINK).iter_subtree():
        used.add(n.tag)
    # extra parse modes cover the non-Module mod constructors
    g = python_grammar()
    used.update(
        n.tag for n in g.to_tnode(ast.parse("x\n", mode="single")).iter_subtree()
    )
    used.update(
        n.tag for n in g.to_tnode(ast.parse("x + 1", mode="eval")).iter_subtree()
    )
    used.update(
        n.tag
        for n in g.to_tnode(
            ast.parse("(int, str) -> bool", mode="func_type")
        ).iter_subtree()
    )
    used.update(
        n.tag
        for n in g.to_tnode(
            ast.parse("x = 1  # type: ignore\n", type_comments=True)
        ).iter_subtree()
    )
    declared = all_declared_constructors()
    missing = declared - used
    assert not missing, f"constructors never exercised: {sorted(missing)}"


@pytest.mark.parametrize(
    "mode,source",
    [
        ("single", "print(1)\n"),
        ("eval", "a + b * 2"),
        ("func_type", "(int, str) -> list[int]"),
    ],
)
def test_other_parse_modes_round_trip(mode, source):
    node = ast.parse(source, mode=mode)
    t = to_tnode(node)
    assert ast.dump(from_tnode(t)) == ast.dump(ast.fix_missing_locations(node))


def test_type_comments_round_trip():
    node = ast.parse("x = 1  # type: int\n", type_comments=True)
    t = to_tnode(node)
    assert ast.dump(from_tnode(t)) == ast.dump(node)


# -- the iterative converters equal the recursive definitions -------------


def _convert_rec(g, node):
    """The recursive ast -> TNode definition (validating constructors
    throughout) that the iterative converter replaced."""
    tag = type(node).__name__
    plan = g.plans.get(tag)
    if plan is None:
        raise ValueError(f"unsupported ast node type {tag}")
    kids, lits = [], []
    for fp in plan.fields:
        value = getattr(node, fp.name, None)
        if fp.kind == "lit":
            lits.append(value)
        elif fp.kind == "enum":
            lits.append(type(value).__name__)
        elif fp.kind == "enum_list":
            lits.append(tuple(type(v).__name__ for v in value))
        elif fp.kind == "kid":
            kids.append(_convert_rec(g, value))
        elif fp.kind == "opt":
            opt = g.options[fp.sort_name]
            kids.append(opt.build(None if value is None else _convert_rec(g, value)))
        elif fp.kind == "list":
            lst = g.lists[fp.sort_name]
            kids.append(lst.build([_convert_rec(g, v) for v in value or []]))
        else:
            opt = g.options[fp.sort_name]
            lst = g.lists[opt.sort.name]
            kids.append(
                lst.build(
                    [opt.build(None if v is None else _convert_rec(g, v)) for v in value or []]
                )
            )
    return TNode(g.grammar.sigs, g.grammar.sigs[tag], kids, lits, g.grammar.urigen.fresh())


def _restore_rec(g, tree):
    """The recursive TNode -> ast definition (before positions)."""
    kwargs = {}
    kid_iter, lit_iter = iter(tree.kids), iter(tree.lits)
    for fp in g.plans[tree.tag].fields:
        if fp.kind == "lit":
            kwargs[fp.name] = next(lit_iter)
        elif fp.kind == "enum":
            kwargs[fp.name] = getattr(ast, next(lit_iter))()
        elif fp.kind == "enum_list":
            kwargs[fp.name] = [getattr(ast, n)() for n in next(lit_iter)]
        elif fp.kind == "kid":
            kwargs[fp.name] = _restore_rec(g, next(kid_iter))
        elif fp.kind == "opt":
            inner = g.options[fp.sort_name].get(next(kid_iter))
            kwargs[fp.name] = None if inner is None else _restore_rec(g, inner)
        elif fp.kind == "list":
            elems = g.lists[fp.sort_name].elements(next(kid_iter))
            kwargs[fp.name] = [_restore_rec(g, el) for el in elems]
        else:
            opt = g.options[fp.sort_name]
            kwargs[fp.name] = [
                None if opt.get(el) is None else _restore_rec(g, opt.get(el))
                for el in g.lists[opt.sort.name].elements(next(kid_iter))
            ]
    return getattr(ast, tree.tag)(**kwargs)


def _snapshot(tree):
    """Every node's tag, literals, hashes and URI (relative to the first
    URI drawn), in pre-order."""
    nodes = list(tree.iter_subtree())
    first = min(n.uri for n in nodes)
    return [
        (n.tag, n.lits, n.structure_hash, n.literal_hash, n.uri - first)
        for n in nodes
    ]


def _modules():
    import argparse
    import dataclasses

    yield ast.parse(KITCHEN_SINK)
    yield ast.parse("x = 1  # type: int\n", type_comments=True)
    yield ast.parse("(int, str) -> list[int]", mode="func_type")
    for mod in (argparse, dataclasses, ast):
        with open(mod.__file__, encoding="utf8") as fh:
            yield ast.parse(fh.read())


def test_iterative_converters_equal_recursive_definitions():
    g = python_grammar()
    for module in _modules():
        tree = to_tnode(module)
        assert _snapshot(tree) == _snapshot(_convert_rec(g, module))
        restored = from_tnode(tree)
        reference = ast.fix_missing_locations(_restore_rec(g, tree))
        assert ast.dump(restored, include_attributes=True) == ast.dump(
            reference, include_attributes=True
        )


@pytest.mark.parametrize(
    "node",
    [
        ast.Module(body=[ast.Name(id="x", ctx=ast.Load())], type_ignores=[]),
        ast.Expr(value=ast.Pass()),
        ast.Return(value=ast.Pass()),
        ast.Module(body=[ast.If(test=ast.Pass(), body=[], orelse=[])], type_ignores=[]),
        ast.Dict(keys=[None, ast.Pass()], values=[ast.Constant(1), ast.Constant(2)]),
    ],
    ids=["list-element", "kid", "option", "nested-kid", "option-list"],
)
def test_ill_sorted_ast_raises_signature_error(node):
    from repro.core import SignatureError

    with pytest.raises(SignatureError) as reference:
        _convert_rec(python_grammar(), node)
    with pytest.raises(SignatureError) as got:
        to_tnode(node)
    assert str(got.value) == str(reference.value)
