"""Free-variable, occurrence, and binding-group analyses; free variables
are kept per right-hand side and need globally unique names.  One walk,
:func:`scan`, finds the nodes, occurrence facts, names and free variables
together.  It stores each right-hand side's free variables on the node
itself, where :func:`free_vars` reads them, as GHC's ``GHC.Stg.FVs``
annotates each STG closure, so a subtree two programs share brings them
along; the rest of a whole program's scan is memoised on the program
object (see :func:`~liftlab.syntax._analyses`)."""

from __future__ import annotations

from typing import NamedTuple

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
    _analyses,
    program_nodes,
    subexprs,
    with_subexprs,
)


def closure_slots(
    binder: str, free: frozenset[str], top_names: frozenset[str]
) -> frozenset[str]:
    """The variables a closure for ``binder`` stores, of the free variables
    ``free`` of its right-hand side: self-references go through the closure
    pointer and top-level names need no slot.  The skeletons' closures and
    the interpreter's charged words both follow this one rule."""
    return free - {binder} - top_names


def cardinality(rhs: Rhs) -> Cardinality:
    """Entry bounds per allocation: a thunk is entered at most once."""
    if isinstance(rhs, Thunk):
        return THUNK_CARD
    return rhs.card


# ---------------------------------------------------------------------------
# The scan: occurrence facts, names and free variables in one walk
# ---------------------------------------------------------------------------


class BinderFacts(NamedTuple):
    occurs_as_argument: bool
    is_known_function: bool


class Scan(NamedTuple):
    """What one pre-order walk finds under its roots (see :func:`scan`)."""

    nodes: list[Expr]  # every node, in :func:`~liftlab.syntax.walk` order
    facts: dict[str, BinderFacts]  # per let binder
    names: frozenset[str]  # every binder and parameter name


def scan(roots: list[Expr | Rhs]) -> Scan:
    """One walk without recursion over ``roots``: their nodes in pre-order,
    the :class:`BinderFacts` of every let binder, every binder and parameter
    name; and it stores the free variables of every right-hand side under
    them (and of each root that is one) on that right-hand side, for
    :func:`free_vars`.

    A binder occurs as an argument when it appears in a non-head atom
    position of an application or primop.  Case scrutinee variables count as
    head-position uses.

    Names must be globally unique, as :func:`~liftlab.syntax.freshen` makes
    them and :func:`~liftlab.syntax.validate` checks, so a right-hand side's
    free variables are the names it mentions less its parameters and the
    binders inside it, two sets kept per open right-hand side.  Group
    binders count as free in their own right-hand sides.  Top-level names
    are *not* filtered here; callers that need closure contents use
    :func:`closure_slots`.
    """
    nodes: list[Expr] = []
    known: dict[str, bool] = {}
    as_arg: set[str] = set()
    names: set[str] = set()  # besides the let binders, the keys of known
    mentioned: set[str] = set()  # names occurring in the open right-hand side
    bound: set[str] = set()  # binders inside it
    outer: list[tuple] = []  # per enclosing open one: (rhs, mentioned, bound)
    # Nodes, right-hand sides, which open one, and None, which closes it.
    stack: list = list(reversed(roots))
    while stack:
        e = stack.pop()
        t = type(e)
        if t is AtomExpr:
            nodes.append(e)
            if type(e.atom) is Var:
                mentioned.add(e.atom.name)
        elif t is App or t is PrimApp:
            nodes.append(e)
            if t is App:
                mentioned.add(e.head)
            for a in e.args:
                if type(a) is Var:
                    mentioned.add(a.name)
                    if a.name in known:
                        as_arg.add(a.name)
        elif t is Let:
            nodes.append(e)
            stack.append(e.body)
            for name, rhs in reversed(e.group.binds):
                known[name] = type(rhs) is Lambda
                bound.add(name)
                stack.append(rhs)
        elif t is Case:
            nodes.append(e)
            bound.add(e.default[0])
            names.add(e.default[0])
            stack.append(e.default[1])
            stack.extend([body for _, body in reversed(e.alts)])
            stack.append(e.scrutinee)
        elif e is None:
            rhs, enclosing, enclosing_bound = outer.pop()
            mentioned -= bound
            if type(rhs) is Lambda:
                mentioned.difference_update(rhs.params)
            rhs.__dict__["_free"] = fvs = frozenset(mentioned)
            mentioned, bound = enclosing, enclosing_bound
            mentioned |= fvs
        else:  # a right-hand side opens
            outer.append((e, mentioned, bound))
            mentioned, bound = set(), set()
            if type(e) is Lambda:
                names.update(e.params)
            stack += (None, e.body)
    facts = {
        name: BinderFacts(occurs_as_argument=name in as_arg, is_known_function=k)
        for name, k in known.items()
    }
    return Scan(nodes, facts, frozenset(names.union(known)))


def free_vars(rhs: Rhs) -> frozenset[str]:
    """The free variables of ``rhs``, as the last :func:`scan` over it
    stored them in the frozen instance's ``__dict__``, which ``==``,
    ``hash`` and ``repr`` do not read; a right-hand side nobody has scanned
    is scanned here."""
    fvs = rhs.__dict__.get("_free")
    if fvs is None:
        scan([rhs])
        fvs = rhs.__dict__["_free"]
    return fvs


def scan_program(p: Program) -> Scan:
    """The :func:`scan` of ``p``'s top-level bodies and ``main``, its names
    with the top-level names and parameters, made once per program object
    (see :func:`~liftlab.syntax._analyses`)."""
    memo = _analyses(p)
    s = memo.get("scan")
    if s is None:
        s = scan([tb.body for tb in p.top_binds] + [p.main])
        tops = [name for tb in p.top_binds for name in (tb.name, *tb.params)]
        s = memo["scan"] = s._replace(names=s.names.union(tops))
    return s


def _binder_names(p: Program) -> list[str]:
    """Every let binder and top-level name of ``p``, sorted once each: the
    interpreter's stats rows.  Made once per program object from the scan,
    whose facts name every let binder."""
    memo = _analyses(p)
    names = memo.get("binders")
    if names is None:
        names = memo["binders"] = sorted({*scan_program(p).facts, *[tb.name for tb in p.top_binds]})
    return names


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
    Semantics and allocation totals are preserved.  Tarjan runs only on
    groups of two or more members, over the free variables that
    :func:`scan_program` stores, so names must be globally unique.  One
    bottom-up loop without recursion rebuilds what holds a split and shares
    every other subtree; with no split, the result is ``p`` itself, which
    keeps the scan read here for the lifter and the interpreter.  A split
    only regroups binders, so a new result gets ``p``'s occurrence facts
    and names, and each right-hand side it rebuilds the free variables of
    the one it replaces.
    """
    nodes, facts, used = scan_program(p)
    splits: dict[int, list[list[int]]] = {}
    for e in nodes:
        if type(e) is Let and len(e.group.binds) > 1:
            comps = _scc_components(e.group.binders(), [free_vars(rhs) for _, rhs in e.group.binds])
            if len(comps) > 1:
                splits[id(e)] = comps
    if not splits:
        return p  # every group is its only component
    # Over the nodes reversed, children come before their parent, the first
    # child last, so they pop off ``results`` in child order.
    results: list[Expr] = []
    for e in reversed(nodes):
        t = type(e)
        if t is Let or t is Case:
            new = with_subexprs(e, [results.pop() for _ in subexprs(e)])
            if t is Let:
                for (_, rhs), (_, new_rhs) in zip(e.group.binds, new.group.binds):
                    if new_rhs is not rhs:
                        new_rhs.__dict__["_free"] = free_vars(rhs)
                comps = splits.get(id(e))
                if comps is not None:
                    binds, new = new.group.binds, new.body
                    # Tarjan pops dependencies first; wrap in reverse so they
                    # end up outermost and stay in scope for their dependents.
                    for comp in reversed(comps):
                        new = Let(BindGroup(tuple([binds[i] for i in comp])), new)
            e = new
        results.append(e)
    tops = [
        tb if tb.body is body else TopBind(tb.name, tb.params, body)
        for tb, body in zip(p.top_binds, reversed(results))
    ]
    q = Program(tuple(tops), results[0])
    _analyses(q)["scan"] = Scan(list(program_nodes(q)), facts, used)
    return q
