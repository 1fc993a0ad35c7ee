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

from dataclasses import dataclass, field
from functools import partial, reduce

from .analysis import BinderFacts, free_vars, occurrence_facts
from .skeleton import (
    GrowthValue,
    Seq,
    closure_growth,
    rhs_region,
    skeletonize,
)
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


class Expander:
    """Partial map from lifted binders to their required variable sets.

    Consulted at every occurrence of a lifted binder; extending it with a
    group is the hypothetical-lift step of the decision logic.
    """

    def __init__(
        self,
        top_names: frozenset[str],
        required: dict[str, frozenset[str]] | None = None,
    ):
        self.top_names = top_names
        self.required = dict(required) if required else {}

    def __contains__(self, name: str) -> bool:
        return name in self.required

    def lookup(self, name: str) -> frozenset[str]:
        return self.required[name]

    def params_for(self, name: str) -> tuple[str, ...]:
        return tuple(sorted(self.required[name]))

    def expand(self, vs: frozenset[str]) -> frozenset[str]:
        """Replace each lifted binder in ``vs`` by its required set."""
        out: set[str] = set()
        for v in vs:
            if v in self.required:
                out |= self.required[v]
            else:
                out.add(v)
        return frozenset(out)

    def extend(self, group: BindGroup) -> "Expander":
        """Map every binder of ``group`` to the group's shared required set.

        The required set is the union of the expanded free variables of all
        right-hand sides, minus the group's own binders and top-level names.
        """
        binders = frozenset(group.binders())
        if binders & self.required.keys():
            raise LiftError(f"group {sorted(binders)} already lifted")
        raw: frozenset[str] = frozenset()
        for _, rhs in group.binds:
            raw |= free_vars(rhs)
        rqs = self.expand(raw - self.top_names) - binders - self.top_names
        extended = dict(self.required)
        for b in binders:
            extended[b] = rqs
        return Expander(self.top_names, extended)


def _savings(group: BindGroup, after: Expander) -> int:
    """Words freed by deleting the group's own closures.

    One code word plus one slot per captured variable, per binding, with
    group members excluded and earlier lifts expanded so the count matches
    the closure the interpreter would actually have allocated.
    """
    binders = frozenset(group.binders())
    total = 0
    for _, rhs in group.binds:
        base = free_vars(rhs) - binders - after.top_names
        total += 1 + len(after.expand(base) - binders)
    return total


def predicted_growth(
    group: BindGroup, after: Expander, body: Expr
) -> GrowthValue:
    """Estimated net words from lifting ``group`` out of its let.

    Evaluates closure growth over the let's skeleton with the group's own
    closure nodes dropped (their shrinkage is what the savings term counts),
    then subtracts those savings.
    """
    binders = frozenset(group.binders())
    required = after.lookup(group.binds[0][0])
    regions = [rhs_region(rhs, after.top_names) for _, rhs in group.binds]
    skel = Seq(reduce(Seq, regions), skeletonize(body, after.top_names))
    return closure_growth(required, binders, skel) - _savings(group, after)


def decide(
    group: BindGroup,
    after: Expander,
    body: Expr,
    facts: dict[str, BinderFacts],
    cfg: LiftConfig,
    site: str,
) -> Decision:
    """Apply the rejection checks in order C5, C1, C4, C3, C2."""
    binders = group.binders()
    required = tuple(sorted(after.lookup(binders[0])))

    def reject(reason: str, **extra) -> Decision:
        return Decision(
            site=site,
            binders=binders,
            lifted=False,
            reason=reason,
            criterion=CRITERION[reason],
            required_set=required,
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
            v for v in required if v in facts and facts[v].is_known_function
        )
        if offenders:
            return reject(KNOWN_CALLS, offending_var=offenders[0])

    limit = cfg.max_arity_rec if group.recursive else cfg.max_arity_nonrec
    for name, rhs in group.binds:
        new_arity = len(required) + len(rhs.params)
        if new_arity > limit:
            return reject(CALLING_CONVENTION, resulting_arity=new_arity)

    predicted = predicted_growth(group, after, body)
    if cfg.check_closure_growth and predicted > 0:
        return reject(CLOSURE_GROWTH, predicted_net_words=predicted)

    return Decision(
        site=site,
        binders=binders,
        lifted=True,
        reason=LIFTED,
        criterion=None,
        required_set=required,
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
    top_names: frozenset[str]
    force_sites: frozenset[tuple[str, ...]] | None
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

    def rewrite_atom(self, a, alpha: Expander):
        if isinstance(a, Var) and a.name in alpha and alpha.lookup(a.name):
            # The occurrence would have to become an application, which is
            # not a legal argument.  Only reachable with the C1 check off.
            raise LiftError(
                f"lifted binder {a.name!r} occurs in argument position; "
                "such groups cannot be rewritten in ANF"
            )
        return a

    def lift_expr(self, alpha: Expander, e: Expr) -> Expr:
        if isinstance(e, AtomExpr):
            if isinstance(e.atom, Var) and e.atom.name in alpha:
                name = e.atom.name
                extras = tuple(Var(v) for v in alpha.params_for(name))
                return App(name, extras) if extras else e
            return e
        if isinstance(e, App):
            args = tuple(self.rewrite_atom(a, alpha) for a in e.args)
            if e.head in alpha:
                extras = tuple(Var(v) for v in alpha.params_for(e.head))
                return App(e.head, extras + args)
            return App(e.head, args)
        if isinstance(e, PrimApp):
            a, b = e.args
            return PrimApp(e.op, (self.rewrite_atom(a, alpha), self.rewrite_atom(b, alpha)))
        if isinstance(e, Let):
            return self.lift_let(alpha, e)
        return map_subexprs(e, partial(self.lift_expr, alpha))

    def lift_let(self, alpha: Expander, e: Let) -> Expr:
        group = e.group
        site = "+".join(group.binders())
        after = alpha.extend(group)
        if self.force_sites is not None:
            lifted = group.binders() in self.force_sites
            decision = Decision(
                site=site,
                binders=group.binders(),
                lifted=lifted,
                reason=FORCED,
                criterion=None,
                required_set=tuple(sorted(after.lookup(group.binds[0][0]))),
                predicted_net_words=predicted_growth(group, after, e.body),
            )
        else:
            decision = decide(group, after, e.body, self.facts, self.cfg, site)
        self.decisions.append(decision)

        if decision.lifted:
            # The required variables keep their original binding sites
            # elsewhere in the program, so the prepended parameters get
            # fresh names, substituted through each lifted body.
            required = after.params_for(group.binds[0][0])
            rename = {v: self.fresh(v) for v in required}
            # Reserve slots so a group's definitions precede definitions
            # lifted out of its own right-hand sides.
            slot = len(self.new_tops)
            self.new_tops.extend([None] * len(group.binds))
            for offset, (name, rhs) in enumerate(group.binds):
                if not isinstance(rhs, Lambda):
                    raise LiftError(f"cannot lift updatable binding {name!r}")
                params = tuple(rename[v] for v in required) + rhs.params
                body = _substitute(rename, self.lift_expr(after, rhs.body))
                self.new_tops[slot + offset] = TopBind(name, params, body)
            return self.lift_expr(after, e.body)

        return map_subexprs(e, partial(self.lift_expr, alpha))


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
    cfg = cfg or LiftConfig()
    run = _LiftRun(
        facts=occurrence_facts(p),
        cfg=cfg,
        top_names=p.top_names(),
        force_sites=force_sites,
        used_names=set(bound_names(p)),
    )
    tops = []
    for tb in p.top_binds:
        alpha = Expander(run.top_names)
        tops.append(TopBind(tb.name, tb.params, run.lift_expr(alpha, tb.body)))
    main = run.lift_expr(Expander(run.top_names), p.main)
    return Program(tuple(tops) + tuple(run.new_tops), main), run.decisions
