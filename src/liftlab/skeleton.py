"""The closure-growth estimate, over the expression tree and one index.

``closure_growth`` evaluates the net heap effect, in words, of adding one
variable set to and removing another from every closure that captures a
removed variable.  Results live in the integers extended with infinity:
positive growth in a region that may be entered arbitrarily often is
infinite.  It walks the expression tree itself, with a program's
:class:`GrowthIndex`: each right-hand side's closure slots (the
:func:`~liftlab.analysis.closure_slots` of its
:func:`~liftlab.analysis.free_vars`, the rule the interpreter charges by),
each let and case node's pre-order interval, and per variable the sorted
positions of the lets with a closure capturing it, so one ``bisect`` tells
whether a subtree holds a closure the change can touch.  :func:`growth_index`
builds it in a pass of its own, as in GHC's ``GHC.Stg.Lift.Analysis``.

The tests check ``closure_growth`` against a direct recursion over the
expression tree, and the index against a loop over a pre-order list, both
written independently in ``tests/reference.py``; each pair must agree.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple

from .analysis import cardinality, closure_slots, free_vars
from .syntax import Cardinality, Case, Expr, INF, Lambda, Let, Program, Rhs, Thunk

GrowthValue = int | float  # int, or INF

_OPEN = object()  # closure_growth's marker: a branch of a case opens


class GrowthIndex(NamedTuple):
    """What :func:`closure_growth` and the lifter read of one program
    besides its tree, its nodes numbered as :func:`growth_index` visits them."""

    slots: dict[int, frozenset[str]]  # per right-hand side, by id: its closure's slots
    spans: dict[int, tuple[int, int]]  # per let and case, by id: (position, subtree end)
    capturers: dict[str, list[int]]  # per variable: the lets with a closure storing it, ascending
    lets: list[Let]  # every let, in pre-order


def growth_index(p: Program) -> GrowthIndex:
    """The index of ``p``, in one pre-order pass on an explicit stack: the
    top-level bodies, then ``main``; a let before its right-hand sides'
    bodies and then its body, a case before its scrutinee, its
    alternatives and then its default.  Names must be globally unique.  A
    node object found in two places keeps its first place's interval,
    whose subtree is the same."""
    top_names = p.top_names()
    slots: dict[int, frozenset[str]] = {}
    spans: dict[int, tuple[int, int]] = {}
    capturers: dict[str, list[int]] = {}
    lets: list[Let] = []
    # Nodes to visit, and (node, position) pairs that close a let or a case
    # once its subtree is numbered.
    stack: list = [p.main, *[tb.body for tb in reversed(p.top_binds)]]
    i = 0  # the next node's position
    while stack:
        e = stack.pop()
        t = type(e)
        if t is tuple:
            spans.setdefault(id(e[0]), (e[1], i))
            continue
        if t is Let:
            lets.append(e)
            binds = e.group.binds
            for name, rhs in binds:
                slots[id(rhs)] = s = closure_slots(name, free_vars(rhs), top_names)
                for v in s:
                    at = capturers.get(v)
                    if at is None:
                        capturers[v] = [i]
                    elif at[-1] != i:
                        at.append(i)
            stack += ((e, i), e.body)
            stack += [rhs.body for _, rhs in reversed(binds)]
        elif t is Case:
            stack += ((e, i), e.default[1])
            stack += [body for _, body in reversed(e.alts)]
            stack.append(e.scrutinee)
        i += 1
    return GrowthIndex(slots, spans, capturers, lets)


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


def closure_growth(
    added: frozenset[str], removed: frozenset[str], e: Expr | Rhs, index: GrowthIndex
) -> GrowthValue:
    """Net word change under ``e`` when every closure that captures a
    ``removed`` variable drops the removed ones and captures the ``added``
    ones it lacks: a let adds each binding's closure delta, then its
    entry-scaled right-hand-side region, then its body; a case adds its
    scrutinee, then its worst branch.  For a right-hand side ``e``, the
    growth of its entry-scaled region, without its own closure.  ``e`` is a
    node of the program that ``index`` describes; ``added`` and ``removed``
    must be disjoint."""
    if not added.isdisjoint(removed):
        raise ValueError("added and removed variable sets overlap")
    lists = list(filter(None, map(index.capturers.get, removed)))
    slots, spans = index.slots, index.spans
    # An explicit stack, so a deep tree cannot exhaust the host stack;
    # ``values[-1]`` sums the innermost open region, a right-hand side's
    # or a case branch's, which the marker pushed below it closes: its
    # Cardinality, or the count of the case's branches.  Sums are exact in
    # any order, as values are integers or +INF.  A let or case is skipped
    # when no let in its interval stores a removed variable.
    values: list[GrowthValue] = [0]
    stack: list = [e]
    while stack:
        e = stack.pop()
        t = type(e)
        if t is Let or t is Case:
            pos, end = spans[id(e)]
            for at in lists:
                k = bisect_left(at, pos)
                if k < len(at) and at[k] < end:
                    break
            else:
                continue
            if t is Let:
                stack.append(e.body)
                for _, rhs in e.group.binds:
                    fvs = slots[id(rhs)]
                    hits = len(fvs & removed)
                    if hits:
                        values[-1] += len(added - fvs) - hits
                    stack.append(rhs)
            else:
                branches = [body for _, body in e.alts]
                branches.append(e.default[1])
                stack.append(len(branches))
                for body in reversed(branches):
                    stack += (body, _OPEN)
                stack.append(e.scrutinee)
        elif t is Lambda or t is Thunk:
            body = e.body
            if type(body) is Let or type(body) is Case:  # a leaf's region allocates nothing
                stack += (cardinality(e), body)
                values.append(0)
        elif t is Cardinality:
            inner = values.pop()
            values[-1] += _scale(inner, e)
        elif e is _OPEN:
            values.append(0)
        elif t is int:
            worst = max(values[-e:])
            del values[-e:]
            values[-1] += worst
    return values[0]


def skeleton_sexpr(e: Expr, index: GrowthIndex) -> str:
    """The allocation structure of ``e`` as ``dump-skeleton`` prints it,
    e.g. ``(seq (seq (closure f) (scaled {0,*} nil)) nil)``: ``nil`` for an
    atom or application; for a let, one ``(seq (closure SLOTS) (scaled CARD
    BODY))`` per binding and then its body; for a case, its scrutinee and
    then its branches; each sequence chained as left-nested ``seq`` pairs
    and the branches as left-nested ``alt`` pairs.  Built on an explicit
    stack, so a deep tree renders at any recursion limit."""
    out: list[str] = []
    stack: list = [e]  # nodes still to render and text
    while stack:
        e = stack.pop()
        t = type(e)
        if t is str:
            out.append(e)
        elif t is Let:
            binds = e.group.binds
            out.append("(seq " * len(binds))
            stack += (")", e.body, " ")
            for _, rhs in reversed(binds[1:]):
                stack += (")", rhs, " ")
            stack.append(binds[0][1])
        elif t is Case:
            branches = [body for _, body in e.alts]
            branches.append(e.default[1])
            stack.append(")")
            for body in reversed(branches[1:]):
                stack += (")", body, " ")
            stack += (branches[0], " (alt" * (len(branches) - 1) + " ", e.scrutinee)
            out.append("(seq ")
        elif t is Lambda or t is Thunk:
            fvs = "".join([" " + v for v in sorted(index.slots[id(e)])])
            out.append(f"(seq (closure{fvs}) (scaled {cardinality(e)} ")
            stack += ("))", e.body)
        else:
            out.append("nil")
    return "".join(out)
