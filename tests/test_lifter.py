import copy
import hashlib
from itertools import combinations

import pytest

from liftlab import analysis, lifter
from liftlab.lifter import (
    LiftConfig,
    LiftError,
    expand,
    lift_program,
    liftable_sites,
    plan_lifts,
    required_set,
)
from liftlab.machine import evaluate, value_key
from liftlab.syntax import (
    MULTI_SHOT,
    App,
    AtomExpr,
    BindGroup,
    Case,
    INF,
    Lambda,
    Let,
    Lit,
    PrimApp,
    Program,
    ScopeError,
    Var,
    _analyses,
    occurrences,
    parse,
    print_program,
    subexprs,
    validate,
    walk,
)

from conftest import PROGRAMS_DIR, load_inline, load_program
from reference import recursive


def fs(*names):
    return frozenset(names)


def decision_for(decisions, *binders):
    return next(d for d in decisions if d.binders == binders)


def load_text_variant(name, old, new):
    text = (PROGRAMS_DIR / f"{name}.stg").read_text().replace(old, new)
    return load_inline(text)


def rqs_of(src: str, required=None):
    p = parse(src)
    return required_set(p.main.group, required or {}, plan_lifts(p).index)


class TestExpander:
    """``expand`` and ``required_set``: the expansion of lifted binders to
    their required sets, and a group's required set computed over it."""

    def test_empty_is_identity(self):
        assert expand({}, fs("x", "z")) == fs("x", "z")

    def test_mapped_binder_replaced(self):
        assert expand({"f": fs("x", "y")}, fs("f", "z")) == fs("x", "y", "z")

    def test_union_absorbs_duplicates(self):
        assert expand({"f": fs("x")}, fs("x", "f")) == fs("x")

    def test_extend_basic(self):
        assert rqs_of("main = let f = \\ a -> +# x y in f 1") == fs("x", "y")

    def test_extend_excludes_own_binders(self):
        assert rqs_of("main = let f = \\ a -> f x in f 1") == fs("x")

    def test_extend_expands_through_earlier_lift(self):
        src = "main = let g = \\ a -> +# f x in g 1"
        assert rqs_of(src, {"f": fs("x", "y")}) == fs("x", "y")

    def test_extend_drops_top_level_names(self):
        assert rqs_of("h q = q;\nmain = let g = \\ a -> h x in g 1") == fs("x")

    def test_group_shares_required_set(self):
        src = "main = let f = \\ a -> g x and g = \\ b -> f y in f 1"
        assert rqs_of(src) == fs("x", "y")
        lifted, [d] = lift_program(parse(src), force_sites=frozenset({("f", "g")}))
        assert d.required_set == ("x", "y")
        # One required set, but parameters of each member's own, so names
        # stay unique.
        assert [tb.params for tb in lifted.top_binds] == [
            ("x_1", "y_1", "a"),
            ("x_2", "y_2", "b"),
        ]

    def test_group_lift_keeps_names_unique(self):
        # Members that shared their fresh parameters made an output that
        # validate rejects (NonUniqueName), though its input validated.
        p = load_inline(
            "main = case 1 of { default x -> case 2 of { default y ->\n"
            "  let f = \\ a -> g x and g = \\ b -> f y in f 1 } }"
        )
        lifted, _ = lift_program(p, force_sites=frozenset({("f", "g")}))
        assert [tb.params for tb in lifted.top_binds] == [("x_1", "y_1", "a"), ("x_2", "y_2", "b")]
        assert validate(Program(lifted.top_binds, lifted.main)) == []

    @pytest.mark.parametrize("walked", [False, True], ids=["unwalked", "walked"])
    def test_open_term_output_is_not_marked(self, walked):
        # x and y are bound nowhere.  The lifter does not check that, and
        # lifts the open term; its output carries no clean scope mark, so
        # evaluate walks it and refuses it, whether or not a walk had
        # already found the input wrong.
        p = parse("main = let f = \\ a -> g x and g = \\ b -> f y in f 1")
        if walked:
            assert [v.tag for v in validate(p)] == ["UnboundVariable"] * 2
        lifted, _ = lift_program(p, force_sites=frozenset({("f", "g")}))
        assert "scope" not in _analyses(lifted)
        with pytest.raises(ScopeError, match="^invalid program: main/arg: UnboundVariable x$"):
            evaluate(lifted)
        assert [v.detail for v in validate(lifted)] == ["x", "y"]

    def test_double_extension_rejected(self):
        src = "main = let f = \\ a -> a in f 1"
        required = {"f": rqs_of(src)}
        with pytest.raises(LiftError):
            rqs_of(src, required)


class TestDecide:
    def test_updatable_rejected(self, hand_programs):
        _, ds = lift_program(hand_programs["shared_thunk"])
        d = decision_for(ds, "t")
        assert not d.lifted and d.reason == "Updatable" and d.criterion == "C5"

    def test_argument_occurrence_rejected(self, hand_programs):
        _, ds = lift_program(hand_programs["known_call"])
        d = decision_for(ds, "k")
        assert not d.lifted and d.reason == "ArgOccurrence" and d.criterion == "C1"

    def test_known_call_rejected(self, hand_programs):
        _, ds = lift_program(hand_programs["known_call"])
        d = decision_for(ds, "walk")
        assert not d.lifted and d.reason == "KnownCalls"
        assert d.offending_var == "k"

    def test_calling_convention_rejected(self, hand_programs):
        _, ds = lift_program(hand_programs["wide_args"])
        d = decision_for(ds, "wide")
        assert not d.lifted and d.reason == "CallingConvention"
        assert d.resulting_arity == 6

    def test_wider_limit_allows_the_lift(self, hand_programs):
        cfg = LiftConfig(max_arity_nonrec=6)
        _, ds = lift_program(hand_programs["wide_args"], cfg)
        d = decision_for(ds, "wide")
        assert d.lifted and d.predicted_net_words == -6

    def test_each_group_meets_its_own_arity_limit(self):
        # ``loop`` is recursive and takes a and b; ``f`` is not and takes a.
        p = load_inline(
            "main = case 1 of { default a -> case 2 of { default b ->\n"
            "  let loop = \\ n -> case n of { 0 -> +# a b; default m ->\n"
            "    case -# m 1 of { default k -> loop k } } in\n"
            "  let f = \\ x -> +# x a in\n"
            "  case loop 3 of { default r -> f r } } }\n"
        )
        _, ds = lift_program(p, LiftConfig(max_arity_rec=2))
        assert decision_for(ds, "loop").resulting_arity == 3 and decision_for(ds, "f").lifted
        _, ds = lift_program(p, LiftConfig(max_arity_nonrec=1))
        assert decision_for(ds, "loop").lifted and decision_for(ds, "f").resulting_arity == 2

    def test_plan_recursive_agrees_with_the_walk(self, corpus, hand_programs):
        seen = set()
        for p in [*corpus, *hand_programs.values()]:
            plan = plan_lifts(p)
            for e in plan.scan.nodes:
                if isinstance(e, Let):
                    expected = recursive(e.group)
                    assert plan.recursive(e.group) == expected
                    seen.add(expected)
        assert seen == {True, False}

    def test_differing_arity_limits_walk_no_group(self):
        # A right-hand-side nest: f{k}'s body defines f{k+1} and calls it.
        # Walking each decided group's right-hand sides made C3 quadratic
        # in the nesting; the plan's table answers without a walk.
        n = 300
        e = AtomExpr(Var(f"p{n}"))
        for k in range(n, 0, -1):
            rhs = Lambda(MULTI_SHOT, (f"p{k}",), e)
            e = Let(BindGroup(((f"f{k}", rhs),)), App(f"f{k}", (Var(f"p{k - 1}"),)))
        p = Program((), Case(AtomExpr(Lit(1)), (), ("p0", e)))
        for cfg in (LiftConfig(max_arity_rec=6), LiftConfig(max_arity_nonrec=6)):
            _, ds = lift_program(p, cfg)
            assert len(ds) == n and all(d.lifted for d in ds)

    def test_closure_growth_rejected(self, hand_programs):
        _, ds = lift_program(hand_programs["growth_multishot"])
        d = decision_for(ds, "f")
        assert not d.lifted and d.reason == "ClosureGrowth"
        assert d.predicted_net_words == INF

    def test_profitable_lift_with_prediction(self, hand_programs):
        _, ds = lift_program(hand_programs["growth_shared"])
        d = decision_for(ds, "f")
        assert d.lifted and d.predicted_net_words == -3

    def test_one_shot_annotation_gains_precision(self, hand_programs):
        _, ds = lift_program(hand_programs["one_shot"])
        assert decision_for(ds, "f").lifted
        multi = load_text_variant("one_shot", "\\{1,1}", "\\")
        _, ds2 = lift_program(multi)
        d2 = decision_for(ds2, "f")
        assert not d2.lifted and d2.predicted_net_words == INF

    def test_criterion_order_updatable_before_growth(self):
        # a thunk whose lift would also grow closures reports C5, not C2
        p = load_inline(
            "main = let x = thunk 1 in let t = thunk (+# x 1) in "
            "let u = \\ q -> case t of { default tv -> +# tv q } in u 5"
        )
        _, ds = lift_program(p)
        assert decision_for(ds, "t").criterion == "C5"

    def test_rejection_disabled_by_flag(self, hand_programs):
        cfg = LiftConfig(allow_unknown_calls=True)
        _, ds = lift_program(hand_programs["known_call"], cfg)
        assert decision_for(ds, "walk").lifted

    def test_config_validates_arities(self):
        with pytest.raises(ValueError):
            LiftConfig(max_arity_nonrec=0)


class TestLiftProgram:
    def test_helper_becomes_top_level(self, hand_programs):
        p = hand_programs["countdown"]
        lifted, ds = lift_program(p)
        assert decision_for(ds, "g").lifted
        g = next(tb for tb in lifted.top_binds if tb.name == "g")
        assert len(g.params) == 2  # required {a} plus original parameter
        f = next(tb for tb in lifted.top_binds if tb.name == "f")
        calls = collect_calls(f.body, "g")
        assert calls and all(args[0] == Var("a") for args in calls)

    def test_no_lets_untouched(self, hand_programs):
        p = hand_programs["trivial"]
        lifted, ds = lift_program(p)
        assert lifted == p and ds == []

    def test_whole_group_lifting(self, hand_programs):
        lifted, ds = lift_program(hand_programs["mutual"])
        assert decision_for(ds, "even", "odd").lifted
        names = {tb.name for tb in lifted.top_binds}
        assert {"even", "odd"} <= names

    def test_output_validates(self, corpus, hand_programs):
        for p in corpus[:150] + list(hand_programs.values()):
            lifted, _ = lift_program(p)
            # A new object, so validate walks it rather than reading the
            # mark apply_lifts left on the output.
            assert validate(Program(lifted.top_binds, lifted.main)) == []

    def test_lifted_binders_head_position_only(self, corpus, hand_programs):
        for p in corpus[:150] + list(hand_programs.values()):
            lifted, ds = lift_program(p)
            check_lifted_occurrences(lifted, ds)

    def test_evaluation_equivalence_spot(self, hand_programs):
        for name, p in hand_programs.items():
            lifted, _ = lift_program(p)
            v0, _ = evaluate(p)
            v1, _ = evaluate(lifted)
            assert value_key(v0) == value_key(v1), name

    def test_forced_argument_occurrence_refused(self):
        p = load_inline(
            "sink p q = p;\n"
            "main = let c = thunk 2 in let k = \\ kx -> *# c kx in "
            "case k 3 of { default r -> sink r k }"
        )
        cfg = LiftConfig(allow_arg_occurrences=True)
        with pytest.raises(LiftError, match="lifted binder 'k' occurs in argument position"):
            lift_program(p, cfg)
        # The first argument occurrence in pre-order is named: ``g`` in the
        # scrutinee, not ``f`` in the default branch after it.
        p = load_inline(
            "main = case 1 of { default k -> let f = \\ x -> +# x k in "
            "let g = \\ y -> +# y k in let h = \\ a b -> a b in "
            "case h g 1 of { default r -> h f r } }"
        )
        with pytest.raises(LiftError, match="lifted binder 'g' occurs in argument position"):
            lift_program(p, cfg)

    def test_empty_required_set_lift_survives_argument_position(self):
        p = load_inline(
            "sink p q = p;\n"
            "main = let k = \\ kx -> *# 2 kx in case k 3 of { default r -> sink r k }"
        )
        cfg = LiftConfig(allow_arg_occurrences=True)
        lifted, ds = lift_program(p, cfg)
        assert decision_for(ds, "k").lifted
        assert validate(Program(lifted.top_binds, lifted.main)) == []
        assert value_key(evaluate(lifted)[0]) == value_key(evaluate(p)[0])

    def test_forced_lift_measures_positive_growth(self, hand_programs):
        p = hand_programs["tally"]
        forced, _ = lift_program(p, LiftConfig(check_closure_growth=False))
        delta = evaluate(forced)[1].words_allocated - evaluate(p)[1].words_allocated
        assert delta == 997  # 1000 h closures grow, g's 3 go

    def test_shared_node_renamed_per_place(self):
        # One leaf object is both the body of the lifted ``f`` (where ``k``
        # becomes f's parameter ``k_1``) and the let's own body (where ``k``
        # stays): results must follow the place, not the object.
        k = AtomExpr(Var("k"))
        f = Lambda(MULTI_SHOT, ("x",), k)
        let = Let(BindGroup((("f", f),)), k)
        p = Program((), Case(AtomExpr(Lit(1)), (), ("k", let)))
        assert validate(p) == []
        lifted, ds = lift_program(p)
        assert decision_for(ds, "f").required_set == ("k",)
        assert print_program(lifted) == (
            "f k_1 x = k_1;\n\nmain =\n  case 1 of {\n    default k -> k\n  }\n"
        )

    def test_liftable_sites_exclude_thunks_and_arguments(self, hand_programs):
        sites = liftable_sites(hand_programs["known_call"])
        assert ("k",) not in sites and ("walk",) in sites
        sites = liftable_sites(hand_programs["shared_thunk"])
        assert ("t",) not in sites and ("addT",) in sites

    def test_plan_reads_one_scan(self, walks):
        # The facts, names, free variables and the index's slot sets all come
        # from the scope walk, the one scan there is: loading a program walks
        # it once, in freshen (a split program inherits the walk's scan),
        # and neither its first plan nor a second walks it again; a copy,
        # which no walk has seen, is walked once, by its first plan, and so
        # is a lift output, whose clean mark holds no scan.  Programs are
        # loaded afresh, so no plan or scan memoised by another test is
        # found.
        assert not hasattr(analysis, "scan")
        for name in ("growth_balanced", "callweb", "scc_chain"):
            walks.clear()
            p = load_program(name)
            assert len(walks) == 1, name
            assert plan_lifts(p).scan is analysis.scan_program(p)
            assert plan_lifts(p).index is plan_lifts(p).index and len(walks) == 1, name
            for q in (copy.copy(p), lift_program(p)[0]):
                assert q is not p and len(walks) == 1, name
                plan_lifts(q)
                plan_lifts(q)
                assert walks[1:] == [id(q)], name
                walks.pop()

    def test_lifted_predictions_never_positive_by_default(self, corpus, hand_programs):
        for p in corpus[:300] + list(hand_programs.values()):
            _, ds = lift_program(p)
            for d in ds:
                if d.lifted:
                    assert d.predicted_net_words <= 0


def test_relifting_never_allocates_more_and_settles(corpus, hand_programs):
    # Lifting the lifted output again is not a no-op: decisions are made in
    # pre-order over the original program, so an outer group's required set
    # and growth still count inner closures lifted after it.  What holds is
    # weaker: a further pass never allocates more than its input, and by the
    # third pass nothing is left to lift.
    relifted = 0
    for p in [*corpus, *hand_programs.values()]:
        words = evaluate(p)[1].words_allocated
        for n in range(1, 4):
            lifted, ds = lift_program(p)
            if not any(d.lifted for d in ds):
                break
            assert n < 3, "a third pass still lifts"
            p = load_inline(print_program(lifted))
            after = evaluate(p)[1].words_allocated
            assert after <= words
            words = after
        relifted += n == 3
    assert relifted > 0  # the bound is reached, so it is tight


# sha256 of the printed lifted program and the repr of the decisions, for
# each program of the acceptance corpus and then of programs/*.stg: under
# the default config, then, for programs with at most 4 liftable sites,
# under every force_sites subset in oracle order.  Computed with the
# recursive lifter that preceded the two-pass one.
LIFT_OUTPUT_DIGEST = "894664712be96d593dc3ff5bb0d3d83bd78e892f144b818c7b57fd0508b6862f"


def test_lift_output_pinned(corpus, hand_programs):
    h = hashlib.sha256()
    for p in [*corpus, *hand_programs.values()]:
        runs = [None]
        sites = liftable_sites(p)
        if len(sites) <= 4:
            runs += [frozenset(c) for n in range(len(sites) + 1) for c in combinations(sites, n)]
        for force_sites in runs:
            lifted, ds = lift_program(p, force_sites=force_sites)
            h.update(print_program(lifted).encode())
            h.update(repr(ds).encode())
    assert h.hexdigest() == LIFT_OUTPUT_DIGEST


def kept_subtrees(p: Program, lifted: frozenset[str]) -> list:
    """Nodes of ``p`` outside every lifted right-hand side whose subtree
    mentions no binder in ``lifted`` and holds no lifted let."""
    out = []

    def visit(e) -> bool:
        if type(e) is Let and not lifted.isdisjoint(e.group.binders()):
            visit(e.body)
            return False
        clean = lifted.isdisjoint(occurrences(e))
        for c in subexprs(e):
            clean = visit(c) and clean
        if clean:
            out.append(e)
        return clean

    for root in [tb.body for tb in p.top_binds] + [p.main]:
        visit(root)
    return out


def assert_shares_what_it_keeps(p: Program, q: Program, lifted: frozenset[str]) -> None:
    # Lifting nothing returns the input itself; anything else, a new program.
    assert (q is p) == (not lifted)
    in_output = {id(e) for e in walk(*[tb.body for tb in q.top_binds], q.main)}
    assert all(id(e) in in_output for e in kept_subtrees(p, lifted))


class TestSharing:
    """The lifter rebuilds only what lifting changes and shares the rest
    with its input."""

    def test_default_lifts_share(self, corpus, hand_programs):
        for p in [*corpus, *hand_programs.values()]:
            q, ds = lift_program(p)
            assert_shares_what_it_keeps(
                p, q, frozenset(b for d in ds if d.lifted for b in d.binders)
            )

    def test_forced_lifts_share(self, corpus, hand_programs):
        # As the oracle applies one plan to every subset of the sites.
        for p in [*corpus[:300], *hand_programs.values()]:
            plan = plan_lifts(p)
            sites = liftable_sites(plan.program)
            if len(sites) > 4:
                continue
            for n in range(len(sites) + 1):
                for chosen in combinations(sites, n):
                    q = lifter.apply_lifts(plan, force_sites=frozenset(chosen))
                    assert_shares_what_it_keeps(p, q, frozenset(b for s in chosen for b in s))

    def test_unchanged_leaves_of_a_lifted_rhs_are_kept(self):
        # countdown's g becomes g a_1 m: its leaves a and g m1 change, the
        # other three leaves are the input's own objects.
        p = load_program("countdown")
        q, ds = lift_program(p)
        assert decision_for(ds, "g").lifted
        old = next(e for e in walk(p.top_binds[0].body) if type(e) is Let).group.binds[0][1]
        new = next(tb for tb in q.top_binds if tb.name == "g")
        assert new.params == ("a_1", "m")
        old_leaves = {id(e) for e in walk(old.body) if not subexprs(e)}
        kept = [e for e in walk(new.body) if id(e) in old_leaves]
        assert kept == [
            AtomExpr(Var("m")),
            PrimApp("-#", (Var("m0"), Lit(1))),
            PrimApp("+#", (Lit(1), Var("gr"))),
        ]
        assert len(list(walk(new.body))) == 8


def test_group_binders_built_once():
    # A group builds its binders tuple on the first call and returns that
    # same object after, so required_set, decide, predicted_growth and
    # LiftPlan.recursive share one tuple per group across apply_lifts.
    cfg = LiftConfig(max_arity_rec=4)  # so decide asks LiftPlan.recursive
    for name in ("callweb", "countdown", "growth_balanced", "mutual", "tally", "wide_args"):
        plan = plan_lifts(load_program(name))
        lets = [e for e in plan.scan.nodes if type(e) is Let]
        first = [e.group.binders() for e in lets]
        assert first == [tuple(n for n, _ in e.group.binds) for e in lets], name
        decisions = []
        lifter.apply_lifts(plan, cfg, decisions=decisions)
        assert len(decisions) == len(lets), name
        assert all(e.group.binders() is b for e, b in zip(lets, first)), name


def collect_calls(e, head):
    out = []

    def walk(e):
        if isinstance(e, App):
            if e.head == head:
                out.append(e.args)
        elif isinstance(e, Let):
            for _, rhs in e.group.binds:
                walk(rhs.body)
            walk(e.body)
        elif isinstance(e, Case):
            walk(e.scrutinee)
            for _, b in e.alts:
                walk(b)
            walk(e.default[1])

    walk(e)
    return out


def check_lifted_occurrences(lifted, decisions):
    """Each lifted binder occurs only as a head applied to its required set.

    Inside a lifted definition the required variables have been renamed to
    that definition's prepended parameters, so the expected prefix there is
    read off the definition's own parameter list.
    """
    required = {}
    for d in decisions:
        if d.lifted:
            for b in d.binders:
                required[b] = d.required_set
    if not required:
        return
    defs = {tb.name: tb for tb in lifted.top_binds}

    def expected_prefix(binder, rename):
        return tuple(rename.get(v, v) for v in required[binder])

    def walk(e, rename):
        if isinstance(e, AtomExpr):
            a = e.atom
            assert not (
                isinstance(a, Var) and a.name in required and required[a.name]
            ), f"bare occurrence of lifted {a}"
        elif isinstance(e, App):
            for a in e.args:
                assert not (
                    isinstance(a, Var) and a.name in required and required[a.name]
                ), f"argument occurrence of lifted {a}"
            if e.head in required:
                k = len(required[e.head])
                got = tuple(
                    a.name if isinstance(a, Var) else None for a in e.args[:k]
                )
                assert got == expected_prefix(e.head, rename), (e.head, got)
        elif isinstance(e, Let):
            assert not (set(e.group.binders()) & required.keys()), "still let-bound"
            for _, rhs in e.group.binds:
                walk(rhs.body, rename)
            walk(e.body, rename)
        elif isinstance(e, Case):
            walk(e.scrutinee, rename)
            for _, b in e.alts:
                walk(b, rename)
            walk(e.default[1], rename)

    for tb in lifted.top_binds:
        rename = {}
        if tb.name in required:
            originals = required[tb.name]
            rename = dict(zip(originals, tb.params[: len(originals)]))
        walk(tb.body, rename)
    walk(lifted.main, {})
