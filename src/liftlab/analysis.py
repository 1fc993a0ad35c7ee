"""Free-variable, occurrence, and binding-group analyses; free variables
are kept per right-hand side and need globally unique names.  The scope
walk behind :func:`~liftlab.syntax.freshen` finds the nodes, occurrence
facts, names and free variables of a program, and splits its let groups,
in the pass that makes its names unique, so :func:`scan_program` and
:func:`split_groups` read what it stored.  :func:`scan` finds the same in
one walk for what no scope walk has seen: a right-hand side
:func:`free_vars` scans lazily, and a program such as a lift output or a
copy.  Each right-hand side's free variables are stored on the node
itself, where :func:`free_vars` reads them, as GHC's ``GHC.Stg.FVs``
annotates each STG closure, so a subtree two programs share brings them
along; the rest of a whole program's scan is memoised on the program
object (see :func:`~liftlab.syntax._analyses`)."""

from __future__ import annotations

from .syntax import (
    App,
    AtomExpr,
    BinderFacts,
    Cardinality,
    Case,
    Expr,
    Lambda,
    Let,
    PrimApp,
    Program,
    Rhs,
    Scan,
    THUNK_CARD,
    Thunk,
    Var,
    _analyses,
    _scope,
)


def closure_slots(
    binder: str, free: frozenset[str], top_names: frozenset[str]
) -> frozenset[str]:
    """The variables a closure for ``binder`` stores, of the free variables
    ``free`` of its right-hand side: self-references go through the closure
    pointer and top-level names need no slot.  The growth index's slots and
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
    """The scan of ``p``'s top-level bodies and ``main``, its names with the
    top-level names and parameters: the one its scope walk stored, when a
    walk has seen ``p`` and renamed nothing, and otherwise their
    :func:`scan`, made once per program object (see
    :func:`~liftlab.syntax._analyses`)."""
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


def split_groups(p: Program) -> Program:
    """Decompose every let group into minimal strongly connected components.

    Components are emitted as nested lets, dependencies outermost.
    Semantics and allocation totals are preserved.  The scope walk behind
    :func:`~liftlab.syntax.freshen` and :func:`~liftlab.syntax.validate`
    makes the split, over the free variables it stores, once per program
    object, so this reads it: ``p`` itself when no group splits, and
    otherwise a new program that shares every subtree holding no split and
    carries the same scan of its own nodes.  Free variables need globally
    unique names, so a program whose walk renames raises ``ValueError``.
    """
    _scope(p)
    memo = _analyses(p)
    if "split" not in memo:
        raise ValueError("split_groups needs globally unique names: freshen the program first")
    return memo["split"] or p
