"""Allocation skeletons and the closure-growth estimate.

A skeleton abstracts an expression down to what matters for allocation:
which closures exist, each with the variables it stores (the
:func:`~liftlab.analysis.closure_slots` of its right-hand side's
:func:`~liftlab.analysis.free_var_table` entry, the rule the interpreter
charges by), how regions are sequenced or branch against each other, and
how often right-hand-side regions are entered per allocation.
``closure_growth`` evaluates the net heap effect, in words, of adding one
variable set to and removing another from every closure that mentions a
removed variable.  Results live in the integers extended with infinity:
positive growth in a region that may be entered arbitrarily often is
infinite.

``closure_growth_direct`` computes the same quantity by direct recursion
over the expression tree; it exists as an independent cross-check for the
skeleton route and both must agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

from .analysis import cardinality, closure_slot_fvs, closure_slots, free_var_table
from .syntax import (
    App,
    AtomExpr,
    Cardinality,
    Case,
    Expr,
    INF,
    Lambda,
    Let,
    PrimApp,
    walk,
)

GrowthValue = int | float  # int, or INF


@dataclass(frozen=True)
class Nil:
    captured = frozenset()  # see Seq.captured; not a field


@dataclass(frozen=True)
class Closure:
    fvs: frozenset[str]


@dataclass(frozen=True)
class Seq:
    left: "Skeleton"
    right: "Skeleton"
    # Set on let and case nodes by skeleton_table: the union of the closure
    # slot sets beneath, so closure_growth can skip subtrees it cannot change.
    captured: frozenset[str] | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Alt:
    left: "Skeleton"
    right: "Skeleton"


@dataclass(frozen=True)
class Scaled:
    card: Cardinality
    inner: "Skeleton"


Skeleton = Nil | Closure | Seq | Alt | Scaled

NIL = Nil()

_OPEN, _MAX = object(), object()  # _growth's region markers


def skeleton_table(
    roots: list[Expr],
    top_names: frozenset[str],
    nodes: list[Expr] | None = None,
) -> dict[int, Skeleton]:
    """The allocation skeleton of every node under ``roots``, keyed by ``id``.

    Atoms and applications do not allocate.  A let contributes one closure
    per binding followed by the entry-scaled region of its body, and each of
    its right-hand sides maps to that binding's part, ``Seq(Closure(slots),
    region)`` with the :func:`closure_slots` of its :func:`free_var_table`
    entry; case sequences the scrutinee before the branch choice.  Built in
    one bottom-up loop without recursion; parents share children by
    reference.  ``nodes`` is ``list(walk(*roots))``, for a caller that has
    already walked.
    """
    if nodes is None:
        nodes = list(walk(*roots))
    fvs = free_var_table(roots, nodes)
    table: dict[int, Skeleton] = {}
    for e in reversed(nodes):
        t = type(e)
        if t is Let:
            body = table[id(e.body)]
            captured = body.captured
            parts = []
            for name, rhs in e.group.binds:
                inner = table[id(rhs.body)]
                slots = closure_slots(name, fvs[id(rhs)], top_names)
                captured = captured.union(slots, inner.captured)
                table[id(rhs)] = part = Seq(Closure(slots), Scaled(cardinality(rhs), inner))
                parts.append(part)
            table[id(e)] = Seq(reduce(Seq, parts), body, captured)
        elif t is Case:
            scrut = table[id(e.scrutinee)]
            branches = [table[id(body)] for _, body in e.alts]
            branches.append(table[id(e.default[1])])
            captured = scrut.captured.union(*[b.captured for b in branches])
            table[id(e)] = Seq(scrut, reduce(Alt, branches), captured)
        else:
            table[id(e)] = NIL
    return table


def skeletonize(e: Expr, top_names: frozenset[str]) -> Skeleton:
    """The allocation skeleton of an expression; see :func:`skeleton_table`."""
    return skeleton_table([e], top_names)[id(e)]


def _scale(n: GrowthValue, card: Cardinality) -> GrowthValue:
    # Negative growth may only be counted as often as the region is surely
    # entered; positive growth as often as it possibly is.  A region that is
    # never entered contributes nothing, even to an infinite inner value.
    if n < 0:
        return n if card.min_entries == 1 else 0
    if card.max_entries == 0:
        return 0
    if card.max_entries == 1:
        return n
    return 0 if n == 0 else INF


def _closure_delta(
    fvs: frozenset[str], added: frozenset[str], removed: frozenset[str]
) -> GrowthValue:
    hits = len(fvs & removed)
    if hits == 0:
        return 0
    return len(added - fvs) - hits


def closure_growth(
    added: frozenset[str], removed: frozenset[str], skel: Skeleton
) -> GrowthValue:
    """Net word change over a skeleton; ``added`` and ``removed`` must be disjoint."""
    if added & removed:
        raise ValueError("added and removed variable sets overlap")
    return _growth(added, removed, skel)


def _growth(
    added: frozenset[str], removed: frozenset[str], skel: Skeleton
) -> GrowthValue:
    # An explicit stack, so a deep skeleton cannot exhaust the host stack.
    # ``values[-1]`` sums the innermost open region: a Scaled inner part or
    # one branch of an Alt.  Each region is closed by the marker pushed
    # below it: its Cardinality, _OPEN (the left branch is done, open the
    # right one) or _MAX (both branches are done).  Sums are exact in any
    # order, because values are integers or +INF.
    values: list[GrowthValue] = [0]
    stack: list = [skel]
    while stack:
        s = stack.pop()
        t = type(s)
        if t is Seq:
            if s.captured is None or not s.captured.isdisjoint(removed):
                stack += (s.right, s.left)
        elif t is Closure:
            values[-1] += _closure_delta(s.fvs, added, removed)
        elif t is Scaled:
            stack += (s.card, s.inner)
            values.append(0)
        elif t is Cardinality:
            inner = values.pop()
            values[-1] += _scale(inner, s)
        elif t is Alt:
            stack += (_MAX, s.right, _OPEN, s.left)
            values.append(0)
        elif s is _OPEN:
            values.append(0)
        elif s is _MAX:
            right = values.pop()
            left = values.pop()
            values[-1] += max(left, right)
        elif t is not Nil:
            raise AssertionError(s)
    return values[0]


def closure_growth_direct(
    added: frozenset[str],
    removed: frozenset[str],
    e: Expr,
    top_names: frozenset[str],
) -> GrowthValue:
    """Reference recursion over the expression tree; oracle for ``closure_growth``."""
    if added & removed:
        raise ValueError("added and removed variable sets overlap")
    return _direct(added, removed, e, top_names)


def _direct(added, removed, e, top_names) -> GrowthValue:
    if isinstance(e, (AtomExpr, App, PrimApp)):
        return 0
    if isinstance(e, Let):
        total: GrowthValue = 0
        for name, rhs in e.group.binds:
            fvs = closure_slot_fvs(name, rhs, top_names)
            total += _closure_delta(fvs, added, removed)
            total += _scale(
                _direct(added, removed, rhs.body, top_names), cardinality(rhs)
            )
        return total + _direct(added, removed, e.body, top_names)
    if isinstance(e, Case):
        branches = [_direct(added, removed, body, top_names) for _, body in e.alts]
        branches.append(_direct(added, removed, e.default[1], top_names))
        return _direct(added, removed, e.scrutinee, top_names) + max(branches)
    raise AssertionError(e)


def skeleton_sexpr(skel: Skeleton) -> str:
    """Debug rendering, e.g. ``(seq (closure f x) (scaled {0,*} nil))``;
    built on an explicit stack, so a deep skeleton renders at any
    recursion limit."""
    out: list[str] = []
    stack: list = [skel]  # skeletons still to render and closing text
    while stack:
        s = stack.pop()
        t = type(s)
        if t is str:
            out.append(s)
        elif t is Nil:
            out.append("nil")
        elif t is Closure:
            out.append("(closure" + "".join([" " + v for v in sorted(s.fvs)]) + ")")
        elif t is Seq or t is Alt:
            out.append("(seq " if t is Seq else "(alt ")
            stack += (")", s.right, " ", s.left)
        elif t is Scaled:
            out.append(f"(scaled {s.card} ")
            stack += (")", s.inner)
        else:
            raise AssertionError(s)
    return "".join(out)
