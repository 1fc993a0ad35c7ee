"""Free-variable, occurrence, and binding-group analyses; free variables
are kept per right-hand side and need globally unique names.  The scope
walk behind :func:`~liftlab.syntax.freshen` is the one scan: it finds the
occurrence facts, names and free variables of a program, and splits its
let groups, in the pass that makes its names unique, so
:func:`scan_program` and :func:`split_groups` read what it stored, and a
program it has not seen is walked when they ask.  Each right-hand side's
free variables are stored on the node itself, where :func:`free_vars`
reads them, as GHC's ``GHC.Stg.FVs`` annotates each STG closure, so a
subtree two programs share brings them along; a lift stores them on each
right-hand side it rebuilds (see :func:`~liftlab.lifter.apply_lifts`).
The rest of a whole program's scan is memoised on the program object
(see :func:`~liftlab.syntax._analyses`)."""

from __future__ import annotations

from .syntax import (
    Cardinality,
    Program,
    Rhs,
    Scan,
    THUNK_CARD,
    Thunk,
    _analyses,
    _scope,
    _walk_scope,
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


def free_vars(rhs: Rhs) -> frozenset[str]:
    """The free variables of ``rhs``, as the scope walk or the lift that
    made it stored them in the frozen instance's ``__dict__``, which
    ``==``, ``hash`` and ``repr`` do not read.  Raises ``ValueError`` for a
    right-hand side that neither has seen."""
    fvs = rhs.__dict__.get("_free")
    if fvs is None:
        raise ValueError(
            "no free variables stored on this right-hand side: scan_program the program holding it"
        )
    return fvs


def scan_program(p: Program) -> Scan:
    """The scan of ``p``'s top-level bodies and ``main`` (occurrence facts,
    and names with the top-level names and parameters) that its scope
    walk stored, made once per program object (see
    :func:`~liftlab.syntax._analyses`).  A program no walk has scanned (a
    copy, or a lift output, whose clean mark holds no scan) is walked here.
    Free variables need globally unique names, so a program whose walk
    renames raises ``ValueError``."""
    memo = _analyses(p)
    s = memo.get("scan")
    if s is None:
        if _scope(p)[2] is not None:  # the walk renamed
            raise ValueError("scan_program needs globally unique names: freshen the program first")
        s = memo.get("scan")
        if s is None:  # a lift output's clean mark holds no scan
            _walk_scope(p)
            s = memo["scan"]
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
    carries ``p``'s very scan.  Free variables need globally unique names,
    so a program whose walk renames raises ``ValueError``.
    """
    _scope(p)
    memo = _analyses(p)
    if "split" not in memo:
        raise ValueError("split_groups needs globally unique names: freshen the program first")
    return memo["split"] or p
