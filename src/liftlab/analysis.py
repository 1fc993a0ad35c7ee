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


def free_var_table(
    roots: list[Expr | Rhs], nodes: list[Expr] | None = None
) -> dict[int, frozenset[str]]:
    """Free variables of every node and right-hand side under ``roots``,
    keyed by ``id``; built bottom-up over ``nodes``, the :func:`walk` of the
    roots (of a right-hand side, its body), without recursion.

    Group binders are treated as bound in all right-hand sides of their let.
    Top-level names are *not* filtered here; callers that need closure
    contents use :func:`closure_slots`.
    """
    table: dict[int, frozenset[str]] = {}
    if nodes is None:
        nodes = list(walk(*[r.body if isinstance(r, (Lambda, Thunk)) else r for r in roots]))
    for e in reversed(nodes):
        t = type(e)
        if t is Let:
            fvs = table[id(e.body)]
            for _, rhs in e.group.binds:
                rhs_fvs = table[id(rhs.body)]
                if type(rhs) is Lambda:
                    rhs_fvs = rhs_fvs.difference(rhs.params)
                table[id(rhs)] = rhs_fvs
                fvs = fvs | rhs_fvs
            table[id(e)] = fvs.difference(e.group.binders())
        elif t is Case:
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


def _rhs_fvs(rhs: Rhs, table: dict[int, frozenset[str]]) -> None:
    # A right-hand-side root's entry; the loop fills those under a let.
    fvs = table[id(rhs.body)]
    table[id(rhs)] = fvs.difference(rhs.params) if isinstance(rhs, Lambda) else fvs


def free_vars(node: Expr | Rhs) -> frozenset[str]:
    """Variables occurring free in an expression or right-hand side; see
    :func:`free_var_table`."""
    return free_var_table([node])[id(node)]


def closure_slots(
    binder: str, free: frozenset[str], top_names: frozenset[str]
) -> frozenset[str]:
    """The variables a closure for ``binder`` stores, of the free variables
    ``free`` of its right-hand side: self-references go through the closure
    pointer and top-level names need no slot.  The skeletons' closures and
    the interpreter's charged words both follow this one rule."""
    return free - {binder} - top_names


def closure_slot_fvs(
    binder: str, rhs: Rhs, top_names: frozenset[str]
) -> frozenset[str]:
    """The :func:`closure_slots` of ``binder`` bound to ``rhs``."""
    return closure_slots(binder, free_vars(rhs), top_names)


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


def _scc_components(names: tuple[str, ...], fvs: list[frozenset[str]]) -> list[list[int]]:
    """Tarjan over the intra-group reference graph, sinks popped first; its
    search runs on an explicit stack of (member, next successor's index)."""
    index_of = {name: i for i, name in enumerate(names)}
    succs = [sorted(index_of[v] for v in vs if v in index_of) for vs in fvs]
    n = len(names)
    # Visit numbers count from 1.  0 is unvisited; n + 1, above every low
    # link, marks a member already in a component.
    index, low = [0] * n, [0] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        path = [] if index[root] else [(root, 0)]
        while path:
            v, i = path.pop()
            if i:  # back from its successor i - 1
                low[v] = min(low[v], low[succs[v][i - 1]])
            else:
                counter += 1
                index[v] = low[v] = counter
                stack.append(v)
            while i < len(succs[v]):
                w = succs[v][i]
                i += 1
                if not index[w]:
                    path += [(v, i), (w, 0)]
                    break
                low[v] = min(low[v], index[w])
            else:
                if low[v] == index[v]:
                    comp = [stack.pop()]
                    while comp[-1] != v:
                        comp.append(stack.pop())
                    for w in comp:
                        index[w] = n + 1
                    comps.append(sorted(comp))
    return comps


def split_groups(p: Program) -> Program:
    """Decompose every let group into minimal strongly connected components.

    Components are emitted as nested lets, dependencies outermost.
    Semantics and allocation totals are preserved.  One bottom-up loop over
    the program's nodes, with one :func:`free_var_table`, and no recursion.
    """
    roots = [tb.body for tb in p.top_binds] + [p.main]
    nodes = list(walk(*roots))
    if all(len(e.group.binds) < 2 for e in nodes if type(e) is Let):
        return p  # every group is its only component
    fvs = free_var_table(roots, nodes)
    # Over the nodes reversed, children come before their parent, the first
    # child last, so they pop off ``results`` in child order.
    results: list[Expr] = []
    for e in reversed(nodes):
        new = map_subexprs(e, lambda _: results.pop())
        if type(e) is Let:
            rhs_fvs = [fvs[id(rhs)] for _, rhs in e.group.binds]
            binds, new = new.group.binds, new.body
            # Tarjan pops dependencies first; wrap in reverse so they end up
            # outermost and stay in scope for their dependents.
            for comp in reversed(_scc_components(e.group.binders(), rhs_fvs)):
                new = Let(BindGroup(tuple([binds[i] for i in comp])), new)
        results.append(new)
    tops = tuple([TopBind(tb.name, tb.params, results.pop()) for tb in p.top_binds])
    return Program(tops, results.pop())
