"""Each whole-program analysis is stored on a program by one module.

A program's memo (see ``syntax._analyses``) holds one entry per analysis,
and the module that makes an analysis is the only one that writes its
entry: ``scope`` (the scope walk's record) in ``syntax``, ``plan`` (the
growth index) and ``lifted`` (the last lift output) in ``lifter``, and
``run`` (a completed run) in ``machine``.  So a change to an entry's shape
touches one module.  These tests read the package's source: a write is a
subscript assignment or deletion, or a ``setdefault``, ``update`` or
``pop`` call, on ``_analyses(...)`` or on a name assigned from it in the
same function; the scope walk's record is read through ``syntax._scope``,
so no other module names the ``scope`` entry at all.
"""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "liftlab"

OWNERS = {"scope": {"syntax"}, "plan": {"lifter"}, "lifted": {"lifter"}, "run": {"machine"}}
_WRITING_METHODS = {"setdefault", "update", "pop", "popitem", "clear", "__setitem__", "__delitem__"}


def _is_memo_call(node) -> bool:
    return isinstance(node, ast.Call) and (
        (isinstance(node.func, ast.Name) and node.func.id == "_analyses")
        or (isinstance(node.func, ast.Attribute) and node.func.attr == "_analyses")
    )


def _key(node) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _own_nodes(scope):
    """The nodes of ``scope``'s body outside the functions nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        n = stack.pop()
        yield n
        if not isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(n))


def memo_uses(sources: dict[str, str]) -> tuple[dict, dict]:
    """The modules that write, and that name at all, each memo key: two
    dicts from key to a set of module names.  A write whose key is not a
    string constant is recorded under ``None``.  A nested function sees
    the names its enclosing ones assigned from ``_analyses``."""
    writes: dict = defaultdict(set)
    names: dict = defaultdict(set)
    for module, text in sources.items():
        stack = [(ast.parse(text), frozenset())]
        while stack:
            scope, outer = stack.pop()
            nodes = list(_own_nodes(scope))
            aliases = outer | {
                t.id
                for n in nodes
                if isinstance(n, ast.Assign) and _is_memo_call(n.value)
                for t in n.targets
                if isinstance(t, ast.Name)
            }
            stack += [
                (n, aliases) for n in nodes if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]

            def is_memo(node) -> bool:
                return _is_memo_call(node) or (isinstance(node, ast.Name) and node.id in aliases)

            for n in nodes:
                if isinstance(n, ast.Subscript) and is_memo(n.value):
                    key = _key(n.slice)
                    names[key].add(module)
                    if isinstance(n.ctx, (ast.Store, ast.Del)):
                        writes[key].add(module)
                elif (
                    isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Attribute)
                    and is_memo(n.func.value)
                ):
                    keys = [_key(n.args[0])] if n.args else []
                    keys += [k.arg for k in n.keywords]
                    for key in keys or [None]:
                        names[key].add(module)
                        if n.func.attr in _WRITING_METHODS:
                            writes[key].add(module)
                elif isinstance(n, ast.Compare) and any(is_memo(c) for c in n.comparators):
                    names[_key(n.left)].add(module)
    return dict(writes), dict(names)


def package_sources() -> dict[str, str]:
    return {f.stem: f.read_text(encoding="utf-8") for f in sorted(SRC.glob("*.py"))}


def test_each_memo_key_is_written_by_one_module():
    writes, names = memo_uses(package_sources())
    assert writes == OWNERS
    # The scope walk's record is syntax's alone: no other module even
    # reads the entry.
    assert names["scope"] == {"syntax"}


def test_the_guard_finds_every_kind_of_write():
    text = '''
def f(p):
    _analyses(p)["a"] = 1
    memo = _analyses(p)
    memo["b"] = memo["c"] = 2
    del memo["d"]
    memo.setdefault("e", 3)
    memo.update(g=4)
    memo.pop("h", None)
    x = memo.get("i")
    y = "j" in memo
    z = syntax._analyses(p)["k"]


    def inner():
        memo["l"] = 5


def g(p, memo):
    memo["not a memo"] = 6
    _analyses(p)[p.key] = 7
'''
    writes, names = memo_uses({"m": text})
    assert set(writes) == {"a", "b", "c", "d", "e", "g", "h", "l", None}
    assert set(names) == set(writes) | {"i", "j", "k"}
