"""Reference analyses the tests check liftlab against.

Each is written from README's cost model as a plain recursion over the AST.
Nothing here imports from liftlab but the AST types of ``liftlab.syntax``,
so a cross-check against these functions cannot share a bug with the
free-variable scan, the closure slot rule or the growth index it checks
(``test_reference_imports_only_ast_types`` holds that rule).
"""

import math

from liftlab.syntax import App, AtomExpr, Case, Lambda, Let, Lit, PrimApp, Thunk, Var


def free_vars(node, bound=frozenset()):
    """Names occurring free in an expression or right-hand side, less ``bound``."""
    if isinstance(node, Lambda):
        return free_vars(node.body, bound | set(node.params))
    if isinstance(node, Thunk):
        return free_vars(node.body, bound)
    if isinstance(node, AtomExpr):
        a = node.atom
        return frozenset() if isinstance(a, Lit) or a.name in bound else {a.name}
    if isinstance(node, App):
        out = set() if node.head in bound else {node.head}
        for a in node.args:
            if isinstance(a, Var) and a.name not in bound:
                out.add(a.name)
        return frozenset(out)
    if isinstance(node, PrimApp):
        return frozenset(
            a.name for a in node.args if isinstance(a, Var) and a.name not in bound
        )
    if isinstance(node, Let):
        inner = bound | {name for name, _ in node.group.binds}
        out = set(free_vars(node.body, inner))
        for _, rhs in node.group.binds:
            out |= free_vars(rhs, inner)
        return frozenset(out)
    if isinstance(node, Case):
        out = set(free_vars(node.scrutinee, bound))
        for _, body in node.alts:
            out |= free_vars(body, bound)
        dname, dbody = node.default
        out |= free_vars(dbody, bound | {dname})
        return frozenset(out)
    raise AssertionError(node)


def closure_slot_fvs(binder, rhs, top_names):
    """The variables a closure for ``binder = rhs`` captures: the right-hand
    side's free variables minus itself and minus top-level names."""
    return free_vars(rhs) - {binder} - top_names


def recursive(group):
    """Whether one of the group's binders occurs free in one of its
    right-hand sides."""
    names = {name for name, _ in group.binds}
    return any(names & free_vars(rhs) for _, rhs in group.binds)


def scaled(n, rhs):
    # A region entered at least once keeps its negative growth; one entered
    # at most once keeps its positive growth; one entered unboundedly often
    # turns positive growth infinite; one never entered contributes nothing.
    # A thunk is entered at most once, a lambda as annotated.
    lo, hi = (0, 1) if isinstance(rhs, Thunk) else (rhs.card.min_entries, rhs.card.max_entries)
    if n < 0:
        return n if lo == 1 else 0
    if hi == 0 or n == 0:
        return 0
    return n if hi == 1 else math.inf


def direct_growth(added, removed, e, top_names):
    """Net words per evaluation of ``e`` when every closure that captures a
    ``removed`` variable drops the removed ones and captures the ``added``
    ones it lacks; each right-hand side's words are scaled by its entry
    bounds, and a ``case`` counts its worst branch."""
    if isinstance(e, (AtomExpr, App, PrimApp)):
        return 0
    if isinstance(e, Let):
        total = direct_growth(added, removed, e.body, top_names)
        for name, rhs in e.group.binds:
            slots = closure_slot_fvs(name, rhs, top_names)
            if slots & removed:
                total += len(added - slots) - len(slots & removed)
            total += scaled(direct_growth(added, removed, rhs.body, top_names), rhs)
        return total
    if isinstance(e, Case):
        branches = [direct_growth(added, removed, body, top_names) for _, body in e.alts]
        branches.append(direct_growth(added, removed, e.default[1], top_names))
        return direct_growth(added, removed, e.scrutinee, top_names) + max(branches)
    raise AssertionError(e)


def bound_names(p):
    """Every binder and parameter, each listed just before the expression it
    scopes over: top-level names and params before their body, a let binder
    and its params before its right-hand side, a default binder after the
    scrutinee and alternatives."""
    names = []
    stack = [p.main]
    for tb in reversed(p.top_binds):
        stack += [tb.body, *reversed(tb.params), tb.name]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            names.append(item)
        elif isinstance(item, Let):
            stack.append(item.body)
            for name, rhs in reversed(item.group.binds):
                stack.append(rhs.body)
                if isinstance(rhs, Lambda):
                    stack += reversed(rhs.params)
                stack.append(name)
        elif isinstance(item, Case):
            before = [item.scrutinee, *[body for _, body in item.alts]]
            stack += [item.default[1], item.default[0], *reversed(before)]
    return names


def occurrence_facts(p):
    """Per let binder of ``p``: whether it occurs as an argument (a non-head
    atom of an application or primop) and whether it is a known function
    (bound to a lambda)."""
    known = {}
    arguments = set()

    def visit(e):
        if isinstance(e, Let):
            for name, rhs in e.group.binds:
                known[name] = isinstance(rhs, Lambda)
                visit(rhs.body)
            visit(e.body)
        elif isinstance(e, Case):
            visit(e.scrutinee)
            for _, body in e.alts:
                visit(body)
            visit(e.default[1])
        elif isinstance(e, (App, PrimApp)):
            arguments.update(a.name for a in e.args if isinstance(a, Var))

    for tb in p.top_binds:
        visit(tb.body)
    visit(p.main)
    return {name: (name in arguments, k) for name, k in known.items()}
