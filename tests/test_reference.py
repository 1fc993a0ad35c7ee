"""The reference in ``reference.py`` stays independent of what it checks.

A cross-check is only as strong as the independence of its second
implementation (McKeeman, "Differential Testing for Software", 1998), so
the reference may import nothing from liftlab but AST types, and criterion
4's comparison must catch a slot rule the growth index and the reference do
not share.
"""

import ast
import random
import sys
from pathlib import Path

from liftlab import analysis, skeleton

from conftest import PROGRAMS_DIR, load_program
from test_acceptance import estimator_mismatches

REFERENCE = Path(__file__).resolve().parent / "reference.py"

AST_TYPES = frozenset(
    {
        "App",
        "Atom",
        "AtomExpr",
        "BindGroup",
        "Cardinality",
        "Case",
        "Expr",
        "Lambda",
        "Let",
        "Lit",
        "PrimApp",
        "Program",
        "Rhs",
        "Thunk",
        "TopBind",
        "Var",
    }
)


def forbidden_imports(source: str) -> list[str]:
    """Every import in ``source`` other than the standard library and AST
    types from ``liftlab.syntax``; any other module could reach liftlab."""
    bad = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            bad += [a.name for a in node.names if a.name.split(".")[0] not in sys.stdlib_module_names]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if module == "liftlab.syntax":
                bad += [f"{module}.{a.name}" for a in node.names if a.name not in AST_TYPES]
            elif module.split(".")[0] not in sys.stdlib_module_names:
                bad.append(module)
    return bad


def test_reference_imports_only_ast_types():
    assert forbidden_imports(REFERENCE.read_text(encoding="utf-8")) == []


def test_forbidden_imports_are_found():
    assert forbidden_imports("import math\nfrom itertools import chain\n") == []
    assert forbidden_imports("from liftlab.syntax import Let, walk\n") == ["liftlab.syntax.walk"]
    assert forbidden_imports("from liftlab.analysis import free_vars\n") == ["liftlab.analysis"]
    assert forbidden_imports("import liftlab.skeleton\n") == ["liftlab.skeleton"]
    assert forbidden_imports("from conftest import load_inline\n") == ["conftest"]
    assert forbidden_imports("from . import syntax\n") == ["."]


def test_criterion_4_sees_a_slot_rule_that_keeps_the_binder(monkeypatch):
    # Only a recursive group's closure captures its own binder, and the
    # random corpus has none, so this runs on programs/, loaded afresh so
    # that nothing analysed under the replaced rule is memoised on the
    # programs other tests read.
    def keeps_binder(binder, free, top_names):
        return free - top_names

    programs = [load_program(f.stem) for f in sorted(PROGRAMS_DIR.glob("*.stg"))]
    assert estimator_mismatches(programs, random.Random(424242))[1] == 0
    # skeleton imported the name, so it is replaced where it is read too.
    monkeypatch.setattr(analysis, "closure_slots", keeps_binder)
    monkeypatch.setattr(skeleton, "closure_slots", keeps_binder)
    assert estimator_mismatches(programs, random.Random(424242))[1] > 0
