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
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from functools import partial, reduce

from .analysis import BinderFacts, occurrence_facts
from .skeleton import GrowthValue, Seq, Skeleton, closure_growth, skeleton_table
from .syntax import (
    App,
    AtomExpr,
    BindGroup,
    Expr,
    Lambda,
    Let,
    PrimApp,
    Program,
    Thunk,
    TopBind,
    Var,
    bound_names,
    map_subexprs,
    program_nodes,
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

    limit = cfg.max_arity_rec if group.recursive else cfg.max_arity_nonrec
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
    facts = occurrence_facts(p)
    return [
        e.group.binders()
        for e in program_nodes(p)
        if isinstance(e, Let)
        and all(isinstance(rhs, Lambda) for _, rhs in e.group.binds)
        and not any(facts[b].occurs_as_argument for b in e.group.binders())
    ]


def _substitute(mapping: dict[str, str], e: Expr) -> Expr:
    """Rename variable occurrences; sound here because the targets have no
    binding sites inside ``e`` (names are globally unique before lifting)."""

    def sub_atom(a):
        if isinstance(a, Var) and a.name in mapping:
            return Var(mapping[a.name])
        return a

    if isinstance(e, AtomExpr):
        return AtomExpr(sub_atom(e.atom))
    if isinstance(e, App):
        return App(mapping.get(e.head, e.head), tuple(sub_atom(a) for a in e.args))
    if isinstance(e, PrimApp):
        a, b = e.args
        return PrimApp(e.op, (sub_atom(a), sub_atom(b)))
    return map_subexprs(e, partial(_substitute, mapping))


@dataclass
class _LiftRun:
    facts: dict[str, BinderFacts]
    cfg: LiftConfig
    force_sites: frozenset[tuple[str, ...]] | None
    skels: dict[int, Skeleton]
    # Every binder lifted so far, mapped to its group's required set.  Names
    # are unique, so an entry is only ever looked up inside its binder's scope.
    required: dict[str, frozenset[str]] = field(default_factory=dict)
    used_names: set[str] = field(default_factory=set)
    new_tops: list[TopBind] = field(default_factory=list)
    decisions: list[Decision] = field(default_factory=list)

    def fresh(self, base: str) -> str:
        k = 1
        while f"{base}_{k}" in self.used_names:
            k += 1
        name = f"{base}_{k}"
        self.used_names.add(name)
        return name

    def rewrite_atom(self, a):
        if isinstance(a, Var) and self.required.get(a.name):
            # The occurrence would have to become an application, which is
            # not a legal argument.  Only reachable with the C1 check off.
            raise LiftError(
                f"lifted binder {a.name!r} occurs in argument position; "
                "such groups cannot be rewritten in ANF"
            )
        return a

    def lift_expr(self, e: Expr) -> Expr:
        if isinstance(e, AtomExpr):
            if isinstance(e.atom, Var) and e.atom.name in self.required:
                name = e.atom.name
                extras = tuple(Var(v) for v in sorted(self.required[name]))
                return App(name, extras) if extras else e
            return e
        if isinstance(e, App):
            args = tuple(self.rewrite_atom(a) for a in e.args)
            if e.head in self.required:
                extras = tuple(Var(v) for v in sorted(self.required[e.head]))
                return App(e.head, extras + args)
            return App(e.head, args)
        if isinstance(e, PrimApp):
            a, b = e.args
            return PrimApp(e.op, (self.rewrite_atom(a), self.rewrite_atom(b)))
        if isinstance(e, Let):
            return self.lift_let(e)
        return map_subexprs(e, self.lift_expr)

    def lift_let(self, e: Let) -> Expr:
        group = e.group
        site = "+".join(group.binders())
        rqs = required_set(group, self.required, self.skels)
        if self.force_sites is not None:
            lifted = group.binders() in self.force_sites
            decision = Decision(
                site=site,
                binders=group.binders(),
                lifted=lifted,
                reason=FORCED,
                criterion=None,
                required_set=tuple(sorted(rqs)),
                predicted_net_words=predicted_growth(e, rqs, self.required, self.skels),
            )
        else:
            decision = decide(e, rqs, self.required, self.skels, self.facts, self.cfg, site)
        self.decisions.append(decision)

        if decision.lifted:
            for name in group.binders():
                self.required[name] = rqs
            # The required variables keep their original binding sites
            # elsewhere in the program, so the prepended parameters get
            # fresh names, substituted through each lifted body.
            rename = {v: self.fresh(v) for v in decision.required_set}
            # Reserve slots so a group's definitions precede definitions
            # lifted out of its own right-hand sides.
            slot = len(self.new_tops)
            self.new_tops.extend([None] * len(group.binds))
            for offset, (name, rhs) in enumerate(group.binds):
                if not isinstance(rhs, Lambda):
                    raise LiftError(f"cannot lift updatable binding {name!r}")
                params = tuple(rename.values()) + rhs.params
                body = _substitute(rename, self.lift_expr(rhs.body))
                self.new_tops[slot + offset] = TopBind(name, params, body)
            return self.lift_expr(e.body)

        return map_subexprs(e, self.lift_expr)


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
    run = _LiftRun(
        facts=occurrence_facts(p),
        cfg=cfg or LiftConfig(),
        force_sites=force_sites,
        skels=skeleton_table([tb.body for tb in p.top_binds] + [p.main], p.top_names()),
        used_names=set(bound_names(p)),
    )
    tops = [TopBind(tb.name, tb.params, run.lift_expr(tb.body)) for tb in p.top_binds]
    main = run.lift_expr(p.main)
    return Program(tuple(tops + run.new_tops), main), run.decisions
