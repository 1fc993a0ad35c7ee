"""Lifting decisions and the lifting transformation.

A let-bound group is either moved wholly to top level or left alone.  Five
rejection checks run in a fixed order, cheapest first:

  C5  a member is updatable (a thunk); lifting would destroy sharing
  C1  a member occurs in argument position; the rewrite would break ANF
  C4  the required set contains a known function; its calls would become
      unknown calls
  C3  the lifted arity would exceed the calling convention's register budget
  C2  the estimated net effect on heap allocation is positive

When a group is lifted, its members become new top-level definitions with
their required set prepended as parameters (in lexicographic order, with
fresh names of each member's own), and every occurrence becomes a head
application carrying the required set.

Lifting is split into analysis and application, as in GHC's
``GHC.Stg.Lift.Analysis`` and ``GHC.Stg.Lift``.  :func:`plan_lifts` reads
only the program: its scan (occurrence facts and used names, from the
scope walk, which stores each right-hand side's free variables on it)
and its :class:`~liftlab.skeleton.GrowthIndex` (closure slots, subtree
intervals, capturing lets and the lets), from a pass of its own over the
program.  :func:`apply_lifts` does the per-call work on a plan:
required sets, decisions (or the forced sites), fresh names, and two
loops without recursion, a decision pass in pre-order that decides each
group and rewrites each leaf and a rewrite pass over the same order
reversed that builds the new definitions and rebuilds, by its own type,
each let and case whose children changed, sharing the rest with the
input.  The rewrite pass also builds, bottom-up from its new children,
the free variables of each node inside a kept right-hand side, and
stores them on each right-hand side it rebuilds, so no output needs a
scan of its own.  A group no closure captures changes no closure's
slots, which the index's capturing lets tell without a walk, so its
prediction is its own closures' words alone and only the others call
:func:`~liftlab.skeleton.closure_growth`.  ``lift_program`` is the two
in a row; the oracle plans once and applies the plan to every subset,
collecting no decisions.  The scan and the index are memoised on the
program (see :func:`~liftlab.syntax._analyses`), so
:func:`lift_program`, :func:`liftable_sites` and the oracle on one
program object scan it and index it once between them.  Lifting nothing
returns the input itself, and :func:`lift_program` memoises any other
output, keyed by the groups it lifted, for the oracle's subset of those
groups.  Lifting keeps as the input's own objects each leaf it does not
change, inside a lifted right-hand side too, and each right-hand side
whose body it does not change, with the free variables stored on it.
A lift output's clean mark holds no scan, so planning a lift of an
output walks it (see :func:`~liftlab.analysis.scan_program`).

Lifting checks no scope itself: tests lift open terms on purpose.  It
keeps names unique and in scope and splits no group further, so the
output of a split input whose scope walk was clean is marked clean too,
and :func:`~liftlab.machine.evaluate`'s scope check reads that mark
instead of walking it.  Any other input leaves its output unmarked, to
be walked when it is checked.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import NamedTuple

from .analysis import Scan, _binder_names, free_vars, scan_program
from .skeleton import GrowthIndex, GrowthValue, closure_growth, growth_index
from .syntax import (
    App,
    AtomExpr,
    BindGroup,
    Case,
    Expr,
    Lambda,
    Let,
    PrimApp,
    Program,
    Thunk,
    TopBind,
    Var,
    _analyses,
    _fresh,
    _mark_clean,
)

LIFTED = "Lifted"
ARG_OCCURRENCE = "ArgOccurrence"
CLOSURE_GROWTH = "ClosureGrowth"
CALLING_CONVENTION = "CallingConvention"
KNOWN_CALLS = "KnownCalls"
UPDATABLE = "Updatable"
FORCED = "Forced"

CRITERION = {
    ARG_OCCURRENCE: "C1",
    CLOSURE_GROWTH: "C2",
    CALLING_CONVENTION: "C3",
    KNOWN_CALLS: "C4",
    UPDATABLE: "C5",
}


class LiftError(Exception):
    pass


@dataclass(frozen=True)
class LiftConfig:
    max_arity_nonrec: int = 5
    max_arity_rec: int = 5
    check_closure_growth: bool = True
    allow_unknown_calls: bool = False
    allow_arg_occurrences: bool = False

    def __post_init__(self) -> None:
        if self.max_arity_nonrec < 1 or self.max_arity_rec < 1:
            raise ValueError("arity limits must be at least 1")


class Decision(NamedTuple):
    site: str
    binders: tuple[str, ...]
    lifted: bool
    reason: str
    criterion: str | None
    required_set: tuple[str, ...]
    predicted_net_words: GrowthValue | None = None
    offending_var: str | None = None
    resulting_arity: int | None = None


def expand(
    required: Mapping[str, frozenset[str]], vs: Iterable[str]
) -> frozenset[str]:
    """Replace each lifted binder in ``vs`` by its required set."""
    out: set[str] = set()
    for v in vs:
        if v in required:
            out |= required[v]
        else:
            out.add(v)
    return frozenset(out)


def required_set(
    group: BindGroup,
    required: Mapping[str, frozenset[str]],
    index: GrowthIndex,
) -> frozenset[str]:
    """The extra parameters every member of ``group`` takes if it is lifted:
    the members' closure slot sets in ``index``, with lifted binders expanded
    through ``required`` and the group's own binders removed."""
    binders = group.binders()
    if not required.keys().isdisjoint(binders):
        raise LiftError(f"group {sorted(binders)} already lifted")
    binds = group.binds
    if len(binds) == 1:  # every group of a split program but a mutually recursive one
        slots = index.slots[id(binds[0][1])]  # its own binder is not in its slots
        if required.keys().isdisjoint(slots):
            return slots
    else:
        slots = frozenset().union(*[index.slots[id(rhs)] for _, rhs in binds])
    return expand(required, slots).difference(binders)


def predicted_growth(
    let: Let,
    rqs: frozenset[str],
    required: Mapping[str, frozenset[str]],
    index: GrowthIndex,
) -> GrowthValue:
    """Estimated net words from lifting ``let``'s group with required set ``rqs``.

    Evaluates closure growth over the let's body and each right-hand side's
    region, leaving out the group's own closures, then subtracts the words
    those closures took: one code word plus one slot per captured variable,
    per binding, with group members excluded and the lifts in ``required``
    expanded so the count matches the closure the interpreter would
    actually have allocated.  The growth is 0 unless a closure captures a
    member, which ``index`` tells without a walk, so only then does it call
    :func:`~liftlab.skeleton.closure_growth`, once on the body and once per
    right-hand side.
    """
    group = let.group
    binders = group.binders()
    growth = 0
    if not index.capturers.keys().isdisjoint(binders):
        removed = frozenset(binders)
        # The regions and the body are in sequence, so their growths add.
        growth = closure_growth(rqs, removed, let.body, index)
        for _, rhs in group.binds:
            growth += closure_growth(rqs, removed, rhs, index)
    for _, rhs in group.binds:
        slots = index.slots[id(rhs)]  # its own binder is not in it
        if len(binders) > 1:
            slots = slots.difference(binders)
        if not required.keys().isdisjoint(slots):
            slots = expand(required, slots).difference(binders)
        growth -= 1 + len(slots)
    return growth


def decide(
    let: Let,
    rqs: frozenset[str],
    required: Mapping[str, frozenset[str]],
    plan: LiftPlan,
    cfg: LiftConfig,
    site: str,
) -> Decision:
    """Apply the rejection checks in order C5, C1, C4, C3, C2."""
    facts = plan.scan.facts
    group = let.group
    binds = group.binds
    binders = group.binders()
    params = tuple(sorted(rqs))

    for name, rhs in binds:
        if type(rhs) is Thunk:
            return _rejected(site, binders, params, UPDATABLE, offending_var=name)

    if not cfg.allow_arg_occurrences:
        for name in binders:
            if facts[name].occurs_as_argument:
                return _rejected(site, binders, params, ARG_OCCURRENCE, offending_var=name)

    if not cfg.allow_unknown_calls:
        for v in params:  # sorted, so the first offender is the least
            f = facts.get(v)
            if f is not None and f.is_known_function:
                return _rejected(site, binders, params, KNOWN_CALLS, offending_var=v)

    limit = cfg.max_arity_nonrec
    if cfg.max_arity_rec != limit and plan.recursive(group):
        limit = cfg.max_arity_rec
    for _, rhs in binds:
        new_arity = len(params) + len(rhs.params)
        if new_arity > limit:
            return _rejected(site, binders, params, CALLING_CONVENTION, resulting_arity=new_arity)

    predicted = predicted_growth(let, rqs, required, plan.index)
    if cfg.check_closure_growth and predicted > 0:
        return _rejected(site, binders, params, CLOSURE_GROWTH, predicted_net_words=predicted)
    return Decision(site, binders, True, LIFTED, None, params, predicted)


def _rejected(
    site: str, binders: tuple[str, ...], params: tuple[str, ...], reason: str, **extra
) -> Decision:
    return Decision(site, binders, False, reason, CRITERION[reason], params, **extra)


def liftable_sites(p: Program) -> list[tuple[str, ...]]:
    """Groups that may be force-lifted without breaking validity (C5 and C1
    hold), in pre-order: the lets of the program's :func:`plan_lifts`
    index, filtered by its scan's facts; each call builds a new list."""
    plan = plan_lifts(p)
    facts = plan.scan.facts
    sites = []
    for e in plan.index.lets:
        binders = e.group.binders()
        for b in binders:
            if facts[b].occurs_as_argument or not facts[b].is_known_function:  # C1, C5
                break
        else:
            sites.append(binders)
    return sites


class LiftPlan(NamedTuple):
    """What lifting reads of one program and nothing it decides; built by
    :func:`plan_lifts` from parts memoised on the program, and read by every
    :func:`apply_lifts` on it."""

    program: Program
    scan: Scan  # the program's scan_program
    index: GrowthIndex

    def recursive(self, group: BindGroup) -> bool:
        """Whether a binder of ``group`` is free in one of its right-hand
        sides, read from their :func:`free_vars` without a walk; exact since
        no name is bound twice."""
        binders = group.binders()
        return any(not free_vars(rhs).isdisjoint(binders) for _, rhs in group.binds)


def plan_lifts(p: Program) -> LiftPlan:
    """Analyse ``p`` for lifting: its :func:`scan_program`, and its
    :func:`growth_index` from one pre-order pass over the program.  Each
    is made once per program object and memoised on it (see
    :func:`~liftlab.syntax._analyses`), so a second plan of ``p`` only packs
    them up again."""
    s = scan_program(p)
    memo = _analyses(p)
    index = memo.get("plan")
    if index is None:
        index = memo["plan"] = growth_index(p)
    return LiftPlan(p, s, index)


def _rewrite_leaf(
    e: AtomExpr | App | PrimApp,
    required: Mapping[str, frozenset[str]],
    rename: Mapping[str, str],
) -> Expr:
    """Apply the lifted binders in ``e`` to their required sets, then rename
    into the lifted right-hand side around ``e``; sound because ``rename``'s
    keys are bound outside it and names are unique before lifting.  A leaf
    that needs neither is returned as it is."""
    t = type(e)
    if t is AtomExpr:
        a = e.atom
        if type(a) is not Var:
            return e
        if not required.get(a.name):
            new = rename.get(a.name)
            return e if new is None else AtomExpr(Var(new))
        e, t = App(a.name, ()), App
    args = e.args
    new_args = None
    for i, a in enumerate(args):
        if type(a) is Var:
            if required.get(a.name):
                # The occurrence would have to become an application, which
                # is not a legal argument.  Only reachable with the C1 check off.
                raise LiftError(
                    f"lifted binder {a.name!r} occurs in argument position; "
                    "such groups cannot be rewritten in ANF"
                )
            new = rename.get(a.name)
            if new is not None:
                if new_args is None:
                    new_args = list(args)
                new_args[i] = Var(new)
    if new_args is not None:
        args = tuple(new_args)
    if t is PrimApp:
        return e if new_args is None else PrimApp(e.op, args)
    head = e.head
    extras = required.get(head)
    if extras:
        args = (*[Var(rename.get(v, v)) for v in sorted(extras)], *args)
    elif new_args is None and head not in rename:
        return e
    return App(rename.get(head, head), args)


def lift_program(
    p: Program,
    cfg: LiftConfig | None = None,
    force_sites: frozenset[tuple[str, ...]] | None = None,
) -> tuple[Program, list[Decision]]:
    """Lift every group the decision logic accepts; pre-order traversal.

    Expects a validated, freshened, SCC-split program.  With ``force_sites``
    the decision logic is bypassed and exactly the named groups are lifted
    (callers must restrict themselves to :func:`liftable_sites`); a named
    group that holds a thunk raises :class:`LiftError`.

    The output is ``p`` itself when no group is lifted; any other output
    depends only on ``p`` and on which groups are lifted, so it is memoised
    on ``p`` (see :func:`~liftlab.syntax._analyses`), in place of the last,
    with that set of binder tuples as its key; the oracle reads it for that
    subset (see :func:`~liftlab.machine.enumerate_lift_subsets`).
    """
    decisions: list[Decision] = []
    q = apply_lifts(plan_lifts(p), cfg, force_sites, decisions)
    if q is p:  # an entry would be a cycle, and any stored one is stale
        _analyses(p).pop("lifted", None)
    else:
        _analyses(p)["lifted"] = (frozenset(d.binders for d in decisions if d.lifted), q)
    return q, decisions


def apply_lifts(
    plan: LiftPlan,
    cfg: LiftConfig | None = None,
    force_sites: frozenset[tuple[str, ...]] | None = None,
    decisions: list[Decision] | None = None,
) -> Program:
    """The planned program lifted as :func:`lift_program` lifts it (the
    input itself if nothing is), each decision appended to ``decisions``
    when a list is given.  Without one, forced groups skip predictions and
    groups forced to stay skip their required sets, which nothing reads.
    Every right-hand side of the output carries its free variables: the
    input's own, or those stored where it was rebuilt."""
    cfg = cfg or LiftConfig()
    p = plan.program
    index = plan.index
    used = set(plan.scan.names)
    last: dict[str, int] = {}  # _fresh's resume points
    # Every binder lifted so far, mapped to its group's required set.  Names
    # are unique, so an entry is only ever looked up inside its binder's scope.
    required: dict[str, frozenset[str]] = {}

    # Pass 1, pre-order.  A stack entry carries the renaming of the innermost
    # lifted right-hand side around it, and whether the innermost right-hand
    # side around it is kept, so pass 2 needs the node's free variables.  An
    # ``order`` entry carries a leaf's rewrite, a lifted let's renaming per
    # member, or None, and that flag.
    order: list[tuple[Expr, object, bool]] = []
    stack: list[tuple[Expr, Mapping[str, str], bool]] = [(p.main, {}, False)]
    stack += [(tb.body, {}, False) for tb in reversed(p.top_binds)]
    while stack:
        e, rename, need = stack.pop()
        t = type(e)
        if t is not Let and t is not Case:
            # Until a group is lifted, no leaf changes.
            order.append((e, _rewrite_leaf(e, required, rename) if required else e, need))
            continue
        if t is Let:
            group = e.group
            binders = group.binders()
            if force_sites is None:
                rqs = required_set(group, required, index)
                decision = decide(e, rqs, required, plan, cfg, "+".join(binders))
                if decisions is not None:
                    decisions.append(decision)
                lifted = decision.lifted
            else:
                lifted = binders in force_sites
                if lifted:
                    for name, rhs in group.binds:
                        if type(rhs) is Thunk:
                            raise LiftError(f"cannot lift updatable binding {name!r}")
                if lifted or decisions is not None:
                    rqs = required_set(group, required, index)
                if decisions is not None:
                    decisions.append(
                        Decision(
                            site="+".join(binders),
                            binders=binders,
                            lifted=lifted,
                            reason=FORCED,
                            criterion=None,
                            required_set=tuple(sorted(rqs)),
                            predicted_net_words=predicted_growth(e, rqs, required, index),
                        )
                    )
        if t is Case:
            order.append((e, None, need))
            stack.append((e.default[1], rename, need))
            stack += [(body, rename, need) for _, body in reversed(e.alts)]
            stack.append((e.scrutinee, rename, need))
            continue
        stack.append((e.body, rename, need))
        if not lifted:
            order.append((e, None, need))
            stack.extend([(rhs.body, rename, True) for _, rhs in reversed(group.binds)])
            continue
        for name in binders:
            required[name] = rqs
        # The required variables keep their original binding sites
        # elsewhere in the program, so each member's prepended parameters
        # get fresh names of its own, which keeps names unique, and its
        # body is renamed to them.
        inners = []
        for _ in binders:
            inner = {}
            for v in sorted(rqs):
                used.add(v)  # so the pick is a v_k even where v is free in the program
                inner[v] = _fresh(v, used, last)
                used.add(inner[v])
            inners.append(inner)
        order.append((e, inners, need))
        for (_, rhs), inner in zip(reversed(group.binds), reversed(inners)):
            stack.append((rhs.body, inner, False))

    if not required:
        return p  # nothing lifted, so nothing changed
    # Pass 2, over the order reversed: children come before their parent, the
    # first child last, so they pop off ``results`` in child order, one per
    # right-hand side and one for the body of a let, and one for the
    # scrutinee, each alternative and the default of a case.  Results go by
    # position, so a node object found in two places is rebuilt for each
    # place where its children changed, and shared where none did.
    # Each flagged node's free variables go on ``frees`` the same way, built
    # from its new children's; each right-hand side a kept let rebuilds
    # stores its own, as the scope walk would.  Names are unique, so a let
    # or case removes its binders from its children's union.
    results: list[Expr] = []
    frees: list[set[str]] = []
    lifted_groups: list[list[TopBind]] = []
    for e, info, need in reversed(order):
        t = type(e)
        if t is not Let and t is not Case:
            results.append(info)
            if need:
                if type(info) is AtomExpr:
                    a = info.atom
                    frees.append({a.name} if type(a) is Var else set())
                else:
                    fvs = {a.name for a in info.args if type(a) is Var}
                    if type(info) is App:
                        fvs.add(info.head)
                    frees.append(fvs)
        elif t is Case:
            scrutinee = results.pop()
            same = scrutinee is e.scrutinee
            alts = []
            for pat, body in e.alts:
                new = results.pop()
                same = same and new is body
                alts.append((pat, new))
            binder, body = e.default
            new = results.pop()
            if same and new is body:
                results.append(e)
            else:
                results.append(Case(scrutinee, tuple(alts), (binder, new)))
            if need:
                fvs = frees.pop()
                for _ in range(len(alts) + 1):
                    other = frees.pop()
                    if len(other) > len(fvs):  # the smaller joins the larger: linear in depth
                        fvs, other = other, fvs
                    fvs |= other
                fvs.discard(binder)
                frees.append(fvs)
        elif info is None:  # a kept let: each right-hand side whose body changed is rebuilt
            group = e.group
            binds = group.binds
            new_binds = None
            for i, (name, rhs) in enumerate(binds):
                body = results.pop()
                fvs = frees.pop()
                if body is not rhs.body:
                    if type(rhs) is Lambda:
                        rhs = Lambda(rhs.card, rhs.params, body)
                        fvs.difference_update(rhs.params)
                    else:
                        rhs = Thunk(body)
                    rhs.__dict__["_free"] = frozenset(fvs)
                    if new_binds is None:
                        new_binds = list(binds)
                    new_binds[i] = (name, rhs)
            if new_binds is not None:
                group = BindGroup(tuple(new_binds))
            body = results.pop()
            results.append(e if group is e.group and body is e.body else Let(group, body))
            if need:
                fvs = frees[-1]
                for _, rhs in group.binds:
                    fvs |= rhs.__dict__["_free"]
                fvs.difference_update(e.group.binders())
        else:
            # A lifted let: its rebuilt body stays on ``results`` as the
            # let's own, and so do its free variables.
            lifted_groups.append(
                [
                    TopBind(name, (*inner.values(), *rhs.params), results.pop())
                    for (name, rhs), inner in zip(e.group.binds, info)
                ]
            )
    tops = []
    for tb in p.top_binds:
        body = results.pop()
        tops.append(tb if body is tb.body else TopBind(tb.name, tb.params, body))
    # Back in pre-order, a group's definitions precede those lifted out of
    # its own right-hand sides.
    tops += [tb for group in reversed(lifted_groups) for tb in group]
    q = Program(tuple(tops), results.pop())
    # Each lifted binder left its let for the top level, so the let binders
    # and top-level names together, the interpreter's stats rows, are p's.
    _analyses(q)["binders"] = _binder_names(p)
    # Lifting a split program whose walk found nothing wrong keeps names
    # unique and in scope and splits no further, so no walk need check q.
    _mark_clean(p, q)
    return q
