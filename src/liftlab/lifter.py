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
their required set prepended as parameters (in lexicographic order), and
every occurrence becomes a head application carrying the required set.

Lifting is split into analysis and application, as in GHC's
``GHC.Stg.Lift.Analysis`` and ``GHC.Stg.Lift``.  :func:`plan_lifts` reads
only the program: its nodes, occurrence facts, used names and skeletons,
in one pre-order walk and one bottom-up loop.  :func:`apply_lifts` does the
per-call work on a plan: required sets, decisions (or the forced sites),
fresh names, and two loops without recursion, a decision pass in pre-order
that decides each group and rewrites each leaf and a rewrite pass over the
same order reversed that rebuilds every let and case and the new
definitions.  ``lift_program`` is the two in a row; the oracle plans once
and applies the plan to every subset, collecting no decisions.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

from .analysis import BinderFacts, scan_program
from .skeleton import GrowthValue, Seq, Skeleton, closure_growth, skeleton_table
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
    _fresh,
    map_subexprs,
    subexprs,
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


@dataclass(frozen=True)
class Decision:
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
    skels: dict[int, Skeleton],
) -> frozenset[str]:
    """The extra parameters every member of ``group`` takes if it is lifted:
    the members' closure slot sets in ``skels``, with lifted binders expanded
    through ``required`` and the group's own binders removed."""
    binders = frozenset(group.binders())
    if binders & required.keys():
        raise LiftError(f"group {sorted(binders)} already lifted")
    slots = frozenset().union(*[skels[id(rhs)].left.fvs for _, rhs in group.binds])
    return expand(required, slots) - binders


def predicted_growth(
    let: Let,
    rqs: frozenset[str],
    required: Mapping[str, frozenset[str]],
    skels: dict[int, Skeleton],
) -> GrowthValue:
    """Estimated net words from lifting ``let``'s group with required set ``rqs``.

    Evaluates closure growth over the let's skeleton with the group's own
    closure nodes dropped, then subtracts the words those closures took: one
    code word plus one slot per captured variable, per binding, with group
    members excluded and the lifts in ``required`` expanded so the count
    matches the closure the interpreter would actually have allocated.
    """
    binders = frozenset(let.group.binders())
    parts = [skels[id(rhs)] for _, rhs in let.group.binds]
    skel = Seq(reduce(Seq, [part.right for part in parts]), skels[id(let.body)])
    savings = sum(
        1 + len(expand(required, part.left.fvs - binders) - binders) for part in parts
    )
    return closure_growth(rqs, binders, skel) - savings


def decide(
    let: Let,
    rqs: frozenset[str],
    required: Mapping[str, frozenset[str]],
    skels: dict[int, Skeleton],
    facts: dict[str, BinderFacts],
    cfg: LiftConfig,
    site: str,
) -> Decision:
    """Apply the rejection checks in order C5, C1, C4, C3, C2."""
    group = let.group
    binders = group.binders()
    params = tuple(sorted(rqs))

    def reject(reason: str, **extra) -> Decision:
        return Decision(
            site=site,
            binders=binders,
            lifted=False,
            reason=reason,
            criterion=CRITERION[reason],
            required_set=params,
            **extra,
        )

    for name, rhs in group.binds:
        if isinstance(rhs, Thunk):
            return reject(UPDATABLE, offending_var=name)

    if not cfg.allow_arg_occurrences:
        for name in binders:
            if facts[name].occurs_as_argument:
                return reject(ARG_OCCURRENCE, offending_var=name)

    if not cfg.allow_unknown_calls:
        offenders = sorted(
            v for v in params if v in facts and facts[v].is_known_function
        )
        if offenders:
            return reject(KNOWN_CALLS, offending_var=offenders[0])

    limit = cfg.max_arity_nonrec
    if cfg.max_arity_rec != limit and group.recursive:  # reading it walks the group
        limit = cfg.max_arity_rec
    for name, rhs in group.binds:
        new_arity = len(params) + len(rhs.params)
        if new_arity > limit:
            return reject(CALLING_CONVENTION, resulting_arity=new_arity)

    predicted = predicted_growth(let, rqs, required, skels)
    if cfg.check_closure_growth and predicted > 0:
        return reject(CLOSURE_GROWTH, predicted_net_words=predicted)

    return Decision(
        site=site,
        binders=binders,
        lifted=True,
        reason=LIFTED,
        criterion=None,
        required_set=params,
        predicted_net_words=predicted,
    )


def liftable_sites(p: Program) -> list[tuple[str, ...]]:
    """Groups that may be force-lifted without breaking validity (C5 and C1 hold)."""
    nodes, facts, _ = scan_program(p)
    return _liftable(nodes, facts)


def _liftable(nodes: list[Expr], facts: dict[str, BinderFacts]) -> list[tuple[str, ...]]:
    return [
        e.group.binders()
        for e in nodes
        if type(e) is Let
        and all(type(rhs) is Lambda for _, rhs in e.group.binds)
        and not any(facts[b].occurs_as_argument for b in e.group.binders())
    ]


class LiftPlan(NamedTuple):
    """What lifting reads of one program and nothing it decides; built once
    by :func:`plan_lifts` and read by every :func:`apply_lifts` on it."""

    program: Program
    roots: list[Expr]  # the top-level bodies, then main
    nodes: list[Expr]  # every node under roots, pre-order
    facts: dict[str, BinderFacts]
    used: frozenset[str]  # every binder and parameter name
    skels: dict[int, Skeleton]

    def sites(self) -> list[tuple[str, ...]]:
        """The program's :func:`liftable_sites`."""
        return _liftable(self.nodes, self.facts)


def plan_lifts(p: Program) -> LiftPlan:
    """Analyse ``p`` for lifting: one pre-order walk gives the nodes, the
    occurrence facts and the used names, and one bottom-up loop over those
    nodes gives the skeletons with their closure slot sets."""
    nodes, facts, used = scan_program(p)
    roots = [tb.body for tb in p.top_binds] + [p.main]
    skels = skeleton_table(roots, p.top_names(), nodes)
    return LiftPlan(p, roots, nodes, facts, frozenset(used), skels)


def _rewrite_leaf(
    e: AtomExpr | App | PrimApp,
    required: Mapping[str, frozenset[str]],
    rename: Mapping[str, str],
) -> Expr:
    """Apply the lifted binders in ``e`` to their required sets, then rename
    into the lifted right-hand side around ``e``; sound because ``rename``'s
    keys are bound outside it and names are unique before lifting."""

    def atom(a):
        return Var(rename[a.name]) if isinstance(a, Var) and a.name in rename else a

    if isinstance(e, AtomExpr):
        if not (isinstance(e.atom, Var) and required.get(e.atom.name)):
            return AtomExpr(atom(e.atom)) if rename else e
        e = App(e.atom.name, ())
    for a in e.args:
        if isinstance(a, Var) and required.get(a.name):
            # The occurrence would have to become an application, which is
            # not a legal argument.  Only reachable with the C1 check off.
            raise LiftError(
                f"lifted binder {a.name!r} occurs in argument position; "
                "such groups cannot be rewritten in ANF"
            )
    args = tuple([atom(a) for a in e.args])
    if isinstance(e, PrimApp):
        return PrimApp(e.op, args)
    extras = [Var(rename.get(v, v)) for v in sorted(required.get(e.head, ()))]
    return App(rename.get(e.head, e.head), (*extras, *args))


def lift_program(
    p: Program,
    cfg: LiftConfig | None = None,
    force_sites: frozenset[tuple[str, ...]] | None = None,
) -> tuple[Program, list[Decision]]:
    """Lift every group the decision logic accepts; pre-order traversal.

    Expects a validated, freshened, SCC-split program.  With ``force_sites``
    the decision logic is bypassed and exactly the named groups are lifted
    (callers must restrict themselves to :func:`liftable_sites`).
    """
    decisions: list[Decision] = []
    return apply_lifts(plan_lifts(p), cfg, force_sites, decisions), decisions


def apply_lifts(
    plan: LiftPlan,
    cfg: LiftConfig | None = None,
    force_sites: frozenset[tuple[str, ...]] | None = None,
    decisions: list[Decision] | None = None,
) -> Program:
    """The planned program lifted as :func:`lift_program` lifts it, each
    decision appended to ``decisions`` when a list is given.  Without one,
    forced groups skip the prediction their decisions would carry."""
    cfg = cfg or LiftConfig()
    skels = plan.skels
    used = set(plan.used)
    last: dict[str, int] = {}  # _fresh's resume points
    # Every binder lifted so far, mapped to its group's required set.  Names
    # are unique, so an entry is only ever looked up inside its binder's scope.
    required: dict[str, frozenset[str]] = {}

    # Pass 1, pre-order.  A stack entry carries the renaming of the innermost
    # lifted right-hand side around it.  An ``order`` entry carries a leaf's
    # rewrite, a lifted let's new parameters, or None.
    order: list[tuple[Expr, object]] = []
    stack: list[tuple[Expr | str, Mapping[str, str]]] = [(r, {}) for r in reversed(plan.roots)]
    while stack:
        e, rename = stack.pop()
        if isinstance(e, str):
            raise LiftError(f"cannot lift updatable binding {e!r}")
        if not isinstance(e, (Let, Case)):
            order.append((e, _rewrite_leaf(e, required, rename)))
            continue
        if isinstance(e, Let):
            group = e.group
            rqs = required_set(group, required, skels)
            if force_sites is None:
                site = "+".join(group.binders())
                decision = decide(e, rqs, required, skels, plan.facts, cfg, site)
                if decisions is not None:
                    decisions.append(decision)
                lifted = decision.lifted
            else:
                lifted = group.binders() in force_sites
                if decisions is not None:
                    decisions.append(
                        Decision(
                            site="+".join(group.binders()),
                            binders=group.binders(),
                            lifted=lifted,
                            reason=FORCED,
                            criterion=None,
                            required_set=tuple(sorted(rqs)),
                            predicted_net_words=predicted_growth(e, rqs, required, skels),
                        )
                    )
        if isinstance(e, Case) or not lifted:
            order.append((e, None))
            stack.extend([(c, rename) for c in reversed(subexprs(e))])
            continue
        for name in group.binders():
            required[name] = rqs
        # The required variables keep their original binding sites
        # elsewhere in the program, so the prepended parameters get fresh
        # names, and each lifted body is renamed to them.
        inner = {}
        for v in sorted(rqs):
            used.add(v)  # so the pick is a v_k even where v is free in the program
            inner[v] = _fresh(v, used, last)
            used.add(inner[v])
        order.append((e, tuple(inner.values())))
        stack.append((e.body, rename))
        for name, rhs in reversed(group.binds):
            # A thunk can only be here through force_sites; it fails where
            # its body would have been visited.
            stack.append((rhs.body if isinstance(rhs, Lambda) else name, inner))

    # Pass 2, over the order reversed: children come before their parent, the
    # first child last, so they pop off ``results`` in child order.  Results
    # go by position, so a node object found in two places is rebuilt for each.
    results: list[Expr] = []
    lifted_groups: list[list[TopBind]] = []
    for e, info in reversed(order):
        if info is None:
            results.append(map_subexprs(e, lambda _: results.pop()))
        elif isinstance(e, Let):
            # The rebuilt let body stays on ``results`` as the let's own.
            lifted_groups.append(
                [TopBind(name, info + rhs.params, results.pop()) for name, rhs in e.group.binds]
            )
        else:
            results.append(info)
    p = plan.program
    tops = [TopBind(tb.name, tb.params, results.pop()) for tb in p.top_binds]
    # Back in pre-order, a group's definitions precede those lifted out of
    # its own right-hand sides.
    tops += [tb for group in reversed(lifted_groups) for tb in group]
    return Program(tuple(tops), results.pop())
