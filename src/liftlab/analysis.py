"""Free-variable, occurrence, and binding-group analyses."""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    App,
    AtomExpr,
    BindGroup,
    Cardinality,
    Case,
    Expr,
    Lambda,
    Let,
    PrimApp,
    Program,
    Rhs,
    THUNK_CARD,
    Thunk,
    TopBind,
    Var,
    map_subexprs,
    occurrences,
    program_nodes,
)


def free_vars(node: Expr | Rhs) -> frozenset[str]:
    """Variables occurring free in an expression or right-hand side.

    Group binders are treated as bound in all right-hand sides of their let
    (candidate-recursive scoping).  Top-level names are *not* filtered here;
    callers that need closure contents use :func:`closure_slot_fvs`.
    """
    if isinstance(node, Lambda):
        return free_vars(node.body) - frozenset(node.params)
    if isinstance(node, Thunk):
        return free_vars(node.body)
    if isinstance(node, (AtomExpr, App, PrimApp)):
        return frozenset(occurrences(node))
    if isinstance(node, Let):
        acc = free_vars(node.body)
        for _, rhs in node.group.binds:
            acc |= free_vars(rhs)
        return acc - frozenset(node.group.binders())
    if isinstance(node, Case):
        acc = free_vars(node.scrutinee)
        for _, body in node.alts:
            acc |= free_vars(body)
        dname, dbody = node.default
        return acc | (free_vars(dbody) - {dname})
    raise AssertionError(node)


def closure_slot_fvs(
    binder: str, rhs: Rhs, top_names: frozenset[str]
) -> frozenset[str]:
    """Variables a closure allocated for ``binder`` actually stores.

    Self-references go through the closure pointer and top-level names need
    no slot, so both are excluded.
    """
    return free_vars(rhs) - {binder} - top_names


def cardinality(rhs: Rhs) -> Cardinality:
    """Entry bounds per allocation: a thunk is entered at most once."""
    if isinstance(rhs, Thunk):
        return THUNK_CARD
    return rhs.card


# ---------------------------------------------------------------------------
# Occurrence facts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BinderFacts:
    occurs_as_argument: bool
    is_known_function: bool


def occurrence_facts(p: Program) -> dict[str, BinderFacts]:
    """Per let-bound binder: argument occurrences and known-function shape.

    A binder occurs as an argument when it appears in a non-head atom
    position of an application or primop.  Case scrutinee variables count as
    head-position uses.
    """
    known: dict[str, bool] = {}
    as_arg: set[str] = set()
    for e in program_nodes(p):
        if isinstance(e, Let):
            for name, rhs in e.group.binds:
                known[name] = isinstance(rhs, Lambda)
        elif isinstance(e, (App, PrimApp)):
            for a in e.args:
                if isinstance(a, Var) and a.name in known:
                    as_arg.add(a.name)
    return {
        name: BinderFacts(occurs_as_argument=name in as_arg, is_known_function=k)
        for name, k in known.items()
    }


# ---------------------------------------------------------------------------
# SCC splitting of binding groups
# ---------------------------------------------------------------------------


def _scc_components(
    binds: tuple[tuple[str, Rhs], ...]
) -> list[list[tuple[str, Rhs]]]:
    """Tarjan over the intra-group reference graph, sinks popped first."""
    names = [name for name, _ in binds]
    index_of = {name: i for i, name in enumerate(names)}
    succs: list[list[int]] = []
    for _, rhs in binds:
        fvs = free_vars(rhs)
        succs.append([index_of[n] for n in names if n in fvs])

    n = len(binds)
    index = [0] * n
    low = [0] * n
    on_stack = [False] * n
    visited = [False] * n
    stack: list[int] = []
    counter = [0]
    comps: list[list[int]] = []

    def dfs(v: int) -> None:
        visited[v] = True
        counter[0] += 1
        index[v] = low[v] = counter[0]
        stack.append(v)
        on_stack[v] = True
        for w in succs[v]:
            if not visited[w]:
                dfs(w)
                low[v] = min(low[v], low[w])
            elif on_stack[w]:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            comp = []
            while True:
                w = stack.pop()
                on_stack[w] = False
                comp.append(w)
                if w == v:
                    break
            comps.append(sorted(comp))

    for v in range(n):
        if not visited[v]:
            dfs(v)
    return [[binds[i] for i in comp] for comp in comps]


def _group_is_recursive(binds: list[tuple[str, Rhs]]) -> bool:
    if len(binds) > 1:
        return True
    name, rhs = binds[0]
    return name in free_vars(rhs)


def split_groups(p: Program) -> Program:
    """Decompose every let group into minimal strongly connected components.

    Components are emitted as nested lets, dependencies outermost, and each
    group's ``recursive`` flag is made accurate.  Semantics and allocation
    totals are preserved.
    """

    def split_expr(e: Expr) -> Expr:
        e = map_subexprs(e, split_expr)
        if not isinstance(e, Let):
            return e
        result = e.body
        # Tarjan pops dependencies first; wrap in reverse so they end up
        # outermost and stay in scope for their dependents.
        for comp in reversed(_scc_components(e.group.binds)):
            result = Let(BindGroup(_group_is_recursive(comp), tuple(comp)), result)
        return result

    tops = tuple(
        TopBind(tb.name, tb.params, split_expr(tb.body)) for tb in p.top_binds
    )
    return Program(tops, split_expr(p.main))
