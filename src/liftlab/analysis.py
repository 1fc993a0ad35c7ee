"""Free-variable, occurrence, and binding-group analyses."""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    AtomExpr,
    BindGroup,
    Cardinality,
    Case,
    Expr,
    Lambda,
    Let,
    Program,
    Rhs,
    THUNK_CARD,
    Thunk,
    TopBind,
    Var,
    map_subexprs,
    occurrences,
    program_nodes,
    walk,
)


def free_var_table(roots: list[Expr | Rhs]) -> dict[int, frozenset[str]]:
    """Free variables of every node and right-hand side under ``roots``,
    keyed by ``id``; built bottom-up over :func:`walk` without recursion.

    Group binders are treated as bound in all right-hand sides of their let
    (candidate-recursive scoping).  Top-level names are *not* filtered here;
    callers that need closure contents use :func:`closure_slot_fvs`.
    """
    table: dict[int, frozenset[str]] = {}
    exprs = [r.body if isinstance(r, (Lambda, Thunk)) else r for r in roots]
    for e in reversed(list(walk(*exprs))):
        if isinstance(e, Let):
            fvs = table[id(e.body)].union(*[_rhs_fvs(r, table) for _, r in e.group.binds])
            table[id(e)] = fvs.difference([name for name, _ in e.group.binds])
        elif isinstance(e, Case):
            fvs = table[id(e.scrutinee)]
            for _, body in e.alts:
                fvs = fvs | table[id(body)]
            dname, dbody = e.default
            table[id(e)] = fvs | table[id(dbody)].difference((dname,))
        else:
            table[id(e)] = frozenset(occurrences(e))
    for r in roots:
        if isinstance(r, (Lambda, Thunk)):
            _rhs_fvs(r, table)
    return table


def _rhs_fvs(rhs: Rhs, table: dict[int, frozenset[str]]) -> frozenset[str]:
    fvs = table[id(rhs.body)]
    if isinstance(rhs, Lambda):
        fvs = fvs.difference(rhs.params)
    table[id(rhs)] = fvs
    return fvs


def free_vars(node: Expr | Rhs) -> frozenset[str]:
    """Variables occurring free in an expression or right-hand side; see
    :func:`free_var_table`."""
    return free_var_table([node])[id(node)]


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
    return scan_program(p)[1]


def scan_program(
    p: Program,
) -> tuple[list[Expr], dict[str, BinderFacts], set[str]]:
    """One walk over ``p``: its :func:`program_nodes`, its
    :func:`occurrence_facts`, and the set of its :func:`bound_names`."""
    nodes: list[Expr] = []
    known: dict[str, bool] = {}
    as_arg: set[str] = set()
    names = {name for tb in p.top_binds for name in (tb.name, *tb.params)}
    for e in program_nodes(p):
        nodes.append(e)
        t = type(e)
        if t is Let:
            for name, rhs in e.group.binds:
                known[name] = type(rhs) is Lambda
                names.add(name)
                if known[name]:
                    names.update(rhs.params)
        elif t is Case:
            names.add(e.default[0])
        elif t is not AtomExpr:  # App or PrimApp
            for a in e.args:
                if type(a) is Var and a.name in known:
                    as_arg.add(a.name)
    facts = {
        name: BinderFacts(occurs_as_argument=name in as_arg, is_known_function=k)
        for name, k in known.items()
    }
    return nodes, facts, names


# ---------------------------------------------------------------------------
# SCC splitting of binding groups
# ---------------------------------------------------------------------------


def _scc_components(
    names: tuple[str, ...], fvs: list[frozenset[str]]
) -> list[list[int]]:
    """Tarjan over the intra-group reference graph, sinks popped first."""
    index_of = {name: i for i, name in enumerate(names)}
    succs = [sorted(index_of[v] for v in vs if v in index_of) for vs in fvs]

    n = len(names)
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
    return comps


def split_groups(p: Program) -> Program:
    """Decompose every let group into minimal strongly connected components.

    Components are emitted as nested lets, dependencies outermost, and each
    group's ``recursive`` flag is made accurate.  Semantics and allocation
    totals are preserved.
    """
    table: dict[int, frozenset[str]] = {}

    def split_expr(e: Expr) -> Expr:
        if not isinstance(e, Let):
            return map_subexprs(e, split_expr)
        rhss = [rhs for _, rhs in e.group.binds]
        if id(rhss[0]) not in table:  # outer lets first: each node once
            table.update(free_var_table(rhss))
        names = e.group.binders()
        fvs = [table[id(rhs)] for rhs in rhss]
        split = map_subexprs(e, split_expr)
        result = split.body
        # Tarjan pops dependencies first; wrap in reverse so they end up
        # outermost and stay in scope for their dependents.
        for comp in reversed(_scc_components(names, fvs)):
            recursive = len(comp) > 1 or names[comp[0]] in fvs[comp[0]]
            binds = tuple(split.group.binds[i] for i in comp)
            result = Let(BindGroup(recursive, binds), result)
        return result

    tops = tuple(
        TopBind(tb.name, tb.params, split_expr(tb.body)) for tb in p.top_binds
    )
    return Program(tops, split_expr(p.main))
