"""No function in ``src/liftlab`` recurses, directly or through others.

Every stage walks its input on an explicit stack, so a program of any
nesting depth runs at the default recursion limit and no input ends in a
``RecursionError``.  This guard builds the package's static call graph
from the source and asserts that it has no cycle, so a recursive helper
cannot come back unnoticed.

A callee is named by its qualified name, ``module.Class.method`` or
``module.function``.  ``self.f(...)`` is a method of the enclosing class,
so ``_ScopeWalk.expr`` and ``_Parser.expr`` stay distinct; a bare name is
a function nested in an enclosing one, a module-level function or class
(a class stands for its ``__init__``), or a name imported from another
liftlab module.  ``super()`` calls and calls on other objects are not
followed.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "liftlab"
REFERENCE = Path(__file__).resolve().parent / "reference.py"


class _Graph(ast.NodeVisitor):
    """Caller -> callees of one module, under qualified names."""

    def __init__(self, module: str, tree: ast.Module, edges: dict[str, set[str]]):
        self.module = module
        self.edges = edges
        self.imports: dict[str, str] = {}  # local name -> qualified name
        self.top: set[str] = set()  # module-level functions and classes
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for a in node.names:
                    self.imports[a.asname or a.name] = f"{node.module}.{a.name}"
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                self.top.add(node.name)
        self.scopes: list[tuple[str, ast.AST]] = []  # enclosing (qualname, node)

    def qualname(self, name: str) -> str:
        return ".".join([self.module, *[q for q, _ in self.scopes], name])

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.scopes.append((node.name, node))
        self.generic_visit(node)
        self.scopes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        caller = self.qualname(node.name)
        self.edges.setdefault(caller, set())
        self.scopes.append((node.name, node))
        for n in self.own_nodes(node):
            if isinstance(n, ast.Call):
                callee = self.callee(n.func)
                if callee is not None:
                    self.edges[caller].add(callee)
        for n in node.body:
            self.visit(n)
        self.scopes.pop()

    @staticmethod
    def own_nodes(fn: ast.FunctionDef):
        """The nodes of ``fn``'s body, not those of functions nested in it."""
        stack = list(fn.body)
        while stack:
            n = stack.pop()
            yield n
            if not isinstance(n, (ast.FunctionDef, ast.ClassDef)):
                stack.extend(ast.iter_child_nodes(n))

    def callee(self, func: ast.expr) -> str | None:
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            if func.value.id != "self":
                return None  # obj.f()
            classes = [q for q, n in self.scopes if isinstance(n, ast.ClassDef)]
            return f"{self.module}.{classes[-1]}.{func.attr}" if classes else None
        if not isinstance(func, ast.Name):
            return None  # super().f(), f()(...)
        name = func.id
        for i in range(len(self.scopes), 0, -1):
            # a function nested in this one or in an enclosing one
            _, n = self.scopes[i - 1]
            if isinstance(n, ast.FunctionDef) and any(
                isinstance(c, ast.FunctionDef) and c.name == name for c in n.body
            ):
                return ".".join([self.module, *[s for s, _ in self.scopes[:i]], name])
        if name in self.top:
            return f"{self.module}.{name}"
        return self.imports.get(name)


def call_graph(sources: dict[str, str]) -> dict[str, set[str]]:
    """The call graph of modules given as name -> source text.  A class
    called by name stands for its ``__init__``."""
    edges: dict[str, set[str]] = {}
    for module, text in sources.items():
        tree = ast.parse(text)
        _Graph(module, tree, edges).visit(tree)
    return {
        caller: {c if c in edges else f"{c}.__init__" for c in callees}
        for caller, callees in edges.items()
    }


def cyclic(edges: dict[str, set[str]]) -> set[str]:
    """The functions that can reach themselves through the graph."""
    out = set()
    for start in edges:
        seen: set[str] = set()
        stack = list(edges[start])
        while stack:
            f = stack.pop()
            if f == start:
                out.add(start)
                break
            if f not in seen:
                seen.add(f)
                stack.extend(edges.get(f, ()))
    return out


def package_sources() -> dict[str, str]:
    return {f.stem: f.read_text(encoding="utf-8") for f in sorted(SRC.glob("*.py"))}


def test_no_function_in_the_package_recurses():
    edges = call_graph(package_sources())
    assert len(edges) > 100
    assert cyclic(edges) == set()


def test_the_call_graph_resolves_methods_imports_and_nested_functions():
    edges = call_graph(package_sources())
    # self.f is a method of the enclosing class.
    assert "syntax._Parser.binding" in edges["syntax._Parser.expr"]
    assert "syntax._ScopeWalk.bind" in edges["syntax._ScopeWalk.expr"]
    assert "syntax._ScopeWalk.expr" not in edges["syntax._Parser.expr"]
    # a name imported from another liftlab module, and a module-level one
    assert "machine._run_frames" in edges["machine.evaluate"]
    assert "syntax._scope" in edges["machine.evaluate"]
    assert "syntax._Parser.__init__" in edges["syntax.parse"]


def test_the_guard_finds_the_recursive_descent_parser():
    # The reference parser is the recursive descent the package's parser
    # replaced: the guard must name each function on its cycle.
    edges = call_graph({"reference": REFERENCE.read_text(encoding="utf-8")})
    names = {f.rsplit(".", 1)[1] for f in cyclic(edges) if f.startswith("reference.Parser.")}
    assert names == {"expr", "let_expr", "bind", "rhs", "case_expr"}
    # direct recursion and a nested function calling itself
    assert "reference.free_vars" in cyclic(edges)
    assert "reference.preorder.visit" in cyclic(edges)
