"""The growth index and ``closure_growth`` over it, on small programs and on
every corpus program, ``programs/`` file and lift output, against the
reference recursion of ``tests/reference.py``."""

import random
from itertools import combinations

import pytest

from liftlab.lifter import apply_lifts, lift_program, liftable_sites, plan_lifts
from liftlab.skeleton import closure_growth, growth_index, skeleton_sexpr
from liftlab.syntax import (
    INF,
    MULTI_SHOT,
    App,
    AtomExpr,
    BindGroup,
    Case,
    Lambda,
    Let,
    Lit,
    PrimApp,
    Program,
    Thunk,
    TopBind,
    Var,
    parse,
    validate,
)

import reference
from conftest import load_inline, nested_family_texts
from progen import random_disjoint_sets
from reference import bound_names, closure_slot_fvs, direct_growth, scaled


def fs(*names):
    return frozenset(names)


def top(p, name):
    """The body of ``p``'s top-level binding ``name``."""
    return next(tb.body for tb in p.top_binds if tb.name == name)


def rhs_of(e, name):
    """The right-hand side bound to ``name`` by the let ``e``."""
    return dict(e.group.binds)[name]


def growth(src, added, removed, node=lambda p: p.main):
    """``closure_growth`` at ``node(p)`` of the parsed program ``src``, which
    must be what the reference recursion gives."""
    p = parse(src)
    e = node(p)
    value = closure_growth(added, removed, e, plan_lifts(p).index)
    if isinstance(e, (Lambda, Thunk)):
        expected = scaled(direct_growth(added, removed, e.body, p.top_names()), e)
    else:
        expected = direct_growth(added, removed, e, p.top_names())
    assert value == expected
    return value


def sexpr(src):
    p = parse(src)
    return skeleton_sexpr(p.main, plan_lifts(p).index)


def preorder(e):
    """``e``'s nodes in pre-order, written here as a plain recursion."""
    out = [e]
    if isinstance(e, Let):
        for _, rhs in e.group.binds:
            out += preorder(rhs.body)
        out += preorder(e.body)
    elif isinstance(e, Case):
        for sub in [e.scrutinee, *[body for _, body in e.alts], e.default[1]]:
            out += preorder(sub)
    return out


def roots_of(p):
    return [tb.body for tb in p.top_binds] + [p.main]


@pytest.fixture(scope="module")
def programs(corpus, hand_programs):
    """Every corpus program, every ``programs/`` file and the lift output
    of each."""
    inputs = [*corpus, *hand_programs.values()]
    return inputs + [lift_program(p)[0] for p in inputs]


class TestSkeletonize:
    def test_application_is_nil(self):
        assert sexpr("main = f x y") == "nil"

    def test_single_let_shape(self):
        assert sexpr("main = let g = \\ d -> f d d in g 5") == (
            "(seq (seq (closure f) (scaled {0,*} nil)) nil)"
        )

    def test_case_branches_alt_chained_after_scrutinee(self):
        text = sexpr(
            "main = case x of { 0 -> let a = thunk 1 in a; 1 -> y; "
            "default d -> let b = thunk d in b }"
        )
        a = "(seq (seq (closure) (scaled {0,1} nil)) nil)"
        b = "(seq (seq (closure d) (scaled {0,1} nil)) nil)"
        # the scrutinee first, then the branches as left-nested alts
        assert text == f"(seq nil (alt (alt {a} nil) {b}))"

    def test_top_level_names_excluded_from_closures(self):
        assert sexpr("h q = q;\nmain = let g = \\ d -> h d in g 1") == (
            "(seq (seq (closure) (scaled {0,*} nil)) nil)"
        )

    def test_binder_params_not_captured(self):
        p = parse("main = let g = \\ d -> case d of { default q -> +# q x } in g 1")
        assert plan_lifts(p).index.slots[id(rhs_of(p.main, "g"))] == fs("x")

    def test_sexpr_rendering(self):
        assert sexpr("main = let g = \\ d -> f d d in g 5") == (
            "(seq (seq (closure f) (scaled {0,*} nil)) nil)"
        )
        # a group's parts chain as left-nested seqs before the body
        assert sexpr("main = let g = \\{1,1} d -> f d d\n and k = thunk g in k") == (
            "(seq (seq (seq (closure f) (scaled {1,1} nil)) "
            "(seq (closure g) (scaled {0,1} nil))) nil)"
        )

    def test_sexpr_matches_recursive_rendering(self, programs):
        def reference(e, tops):
            if isinstance(e, Let):
                parts = [
                    "(seq ({}) (scaled {} {}))".format(
                        " ".join(["closure", *sorted(closure_slot_fvs(name, rhs, tops))]),
                        "{0,1}" if not isinstance(rhs, Lambda) else rhs.card,
                        reference(rhs.body, tops),
                    )
                    for name, rhs in e.group.binds
                ]
                return chain("seq", [chain("seq", parts), reference(e.body, tops)])
            if isinstance(e, Case):
                branches = [reference(body, tops) for _, body in e.alts]
                branches.append(reference(e.default[1], tops))
                return chain("seq", [reference(e.scrutinee, tops), chain("alt", branches)])
            return "nil"

        def chain(tag, items):
            text = items[0]
            for item in items[1:]:
                text = f"({tag} {text} {item})"
            return text

        for p in programs:
            index = plan_lifts(p).index
            for root in roots_of(p):
                assert skeleton_sexpr(root, index) == reference(root, p.top_names())

    def test_slot_sets_match_closure_slot_fvs(self, programs):
        # The program's planned index and one of a new program object with
        # the same nodes agree; the index lists the program's lets (the same
        # objects, in pre-order), each right-hand side has the reference's
        # slot set, each let and case its pre-order position and subtree
        # end, and each variable the positions of the lets with a closure
        # storing it.
        for p in programs:
            tops = p.top_names()
            index = plan_lifts(p).index
            assert index == growth_index(Program(p.top_binds, p.main))
            nodes = [e for root in roots_of(p) for e in preorder(root)]
            lets = [e for e in nodes if isinstance(e, Let)]
            assert len(index.lets) == len(lets) and all(a is b for a, b in zip(index.lets, lets))
            spans, capturers = {}, {}
            for i, e in enumerate(nodes):
                if isinstance(e, (Let, Case)):
                    spans.setdefault(id(e), (i, i + len(preorder(e))))
                if isinstance(e, Let):
                    for name, rhs in e.group.binds:
                        slots = closure_slot_fvs(name, rhs, tops)
                        assert index.slots[id(rhs)] == slots
                        for v in slots:
                            at = capturers.setdefault(v, [])
                            if i not in at:
                                at.append(i)
            assert index.spans == spans and index.capturers == capturers


def check_index(p) -> int:
    """``growth_index(p)`` against the reference's loop over a plain
    pre-order list: slots, spans, capturers, and the lets by identity.
    Returns how many lets ``p`` holds."""
    index = growth_index(p)
    slots, spans, capturers, lets = reference.growth_index(p)
    assert index.slots == slots
    assert index.spans == spans
    assert index.capturers == capturers
    assert [id(e) for e in index.lets] == [id(e) for e in lets]
    return len(lets)


def two_places():
    """One let object both a case alternative and its default; each
    place's let captures y.  The walk stores the free variables, though
    f is bound twice."""
    rhs = Lambda(MULTI_SHOT, ("a",), PrimApp("+#", (Var("a"), Var("y"))))
    shared = Let(BindGroup((("f", rhs),)), App("f", (Lit(1),)))
    body = Case(AtomExpr(Var("y")), ((1, shared),), ("d", shared))
    p = Program((TopBind("t", ("y",), body),), AtomExpr(Lit(0)))
    validate(p)
    return p, shared


class TestGrowthIndex:
    def test_agrees_with_reference(self, corpus, hand_programs):
        # Each input, its default lift output and, where the oracle would
        # run, every forced lift output; and a let found in two places.
        nested = [load_inline(text) for text in nested_family_texts().values()]
        lets = forced = 0
        for p in [*corpus, *hand_programs.values(), *nested]:
            lets += check_index(p)
            check_index(lift_program(p)[0])
            plan, sites = plan_lifts(p), liftable_sites(p)
            if len(sites) > 4:
                continue
            for n in range(1, len(sites) + 1):
                for chosen in combinations(sites, n):
                    check_index(apply_lifts(plan, force_sites=frozenset(chosen)))
                    forced += 1
        assert lets > 7_000 and forced > 600, (lets, forced)
        assert check_index(two_places()[0]) == 2

    def test_a_let_found_twice_keeps_its_first_span(self):
        # The case is at 0 and its scrutinee at 1; the let's places are
        # 2 and 5, each with its two children.
        p, shared = two_places()
        assert check_index(p) == 2
        index = growth_index(p)
        assert index.spans[id(shared)] == (2, 5)
        assert index.capturers == {"y": [2, 5]}


class TestClosureGrowth:
    def test_hit_closure_swaps_evenly(self):
        # h's closure stores {f,x}; removing f and adding {x,y} nets to zero
        src = "t f x = let h = \\ b -> f x b in h 1;\nmain = 0"
        assert growth(src, fs("x", "y"), fs("f"), lambda p: top(p, "t")) == 0

    def test_positive_growth_under_multishot_is_infinite(self):
        # g's region, entered any number of times, allocates h over {f,n}
        src = "t f n = let g = \\ d -> let h = \\ e -> f n e in h d in g 1;\nmain = 0"
        g = lambda p: rhs_of(top(p, "t"), "g")  # noqa: E731
        assert growth(src, fs("x", "y"), fs("f"), g) == INF

    def test_cancellation_inside_one_region(self):
        # in g's region, a over {f} grows by one and b over {f,x,y} shrinks
        # by one
        src = (
            "t f x y = let g = \\ d -> let a = \\ e -> f e in "
            "let b = \\ e2 -> f x y e2 in b d in g 1;\nmain = 0"
        )
        g = lambda p: rhs_of(top(p, "t"), "g")  # noqa: E731
        assert growth(src, fs("x", "y"), fs("f"), g) == 0

    def test_untouched_closure_contributes_nothing(self):
        # h stores {a,b}; u's k, elsewhere in the program, stores f
        src = (
            "t a b = let h = \\ d -> a b d in h 1;\n"
            "u f = let k = \\ d2 -> f d2 in k 1;\nmain = 0"
        )
        assert growth(src, fs("x"), fs("f"), lambda p: top(p, "t")) == 0
        assert growth(src, fs("x", "y"), fs("f"), lambda p: top(p, "u")) == 1

    def test_alt_takes_worst_branch(self):
        src = (
            "t f x y = case x of { 0 -> let a = \\ d -> f d in a 1; "
            "default z -> let b = \\ e -> f x y e in b 2 };\nmain = 0"
        )
        assert growth(src, fs("x", "y"), fs("f"), lambda p: top(p, "t")) == 2 - 1

    def test_scaled_never_entered_is_zero_even_on_infinity(self):
        # h's region is infinite, and g's, which allocates h, is never entered
        src = (
            "t f = let g = \\{0,0} d -> let h = \\ e -> let k = \\ q -> f q in k e "
            "in h d in g 1;\nmain = 0"
        )
        g = lambda p: rhs_of(top(p, "t"), "g")  # noqa: E731
        h = lambda p: rhs_of(g(p).body, "h")  # noqa: E731
        assert growth(src, fs("x", "y"), fs("f"), h) == INF
        assert growth(src, fs("x", "y"), fs("f"), g) == 0

    def test_one_shot_keeps_growth_finite(self):
        src = "t f = let g = \\{0,1} d -> let k = \\ q -> f q in k d in g 1;\nmain = 0"
        g = lambda p: rhs_of(top(p, "t"), "g")  # noqa: E731
        assert growth(src, fs("x", "y"), fs("f"), g) == 1

    def test_strict_region_counts_shrinkage(self):
        src = (
            "t f x y = let g = \\{1,1} d -> let k = \\ q -> f x y q in k d in g 1;\n"
            "u f2 x2 y2 = let g2 = \\{0,1} d2 -> let k2 = \\ q2 -> f2 x2 y2 q2 in k2 d2 "
            "in g2 1;\nmain = 0"
        )
        g = lambda p: rhs_of(top(p, "t"), "g")  # noqa: E731
        g2 = lambda p: rhs_of(top(p, "u"), "g2")  # noqa: E731
        assert growth(src, fs("x", "y"), fs("f"), g) == -1
        assert growth(src, fs("x2", "y2"), fs("f2"), g2) == 0

    def test_overlap_is_a_contract_error(self):
        p = parse("main = let g = \\ d -> a d in g 1")
        with pytest.raises(ValueError):
            closure_growth(fs("a"), fs("a"), p.main, plan_lifts(p).index)


class TestIntervalEdges:
    """A subtree is skipped when no let in its interval has a closure that
    stores a removed variable, so a capturer at either end of an interval,
    or in one branch only, must still be counted."""

    def test_capturer_is_the_first_let_of_the_subtree(self):
        src = "t f g = let a = \\ q -> f q in let b = \\ r -> g r in b 1;\nmain = 0"
        assert growth(src, fs("w"), fs("f"), lambda p: top(p, "t")) == 0
        assert growth(src, fs("w", "v"), fs("f"), lambda p: top(p, "t")) == 1
        assert growth(src, fs(), fs("f"), lambda p: top(p, "t")) == -1

    def test_capturer_is_the_last_let_of_the_subtree(self):
        src = (
            "t f g = let b = \\ r -> g r in case b 1 of "
            "{ default z -> let c = \\ s -> f s z in c 2 };\n"
            "u f2 = let d = \\ q -> f2 q in d 3;\nmain = 0"
        )
        assert growth(src, fs("w"), fs("f"), lambda p: top(p, "t")) == 0
        assert growth(src, fs(), fs("f"), lambda p: top(p, "t")) == -1
        # the case, whose last node ends t's interval, holds the capturer
        case = lambda p: top(p, "t").body  # noqa: E731
        assert growth(src, fs("w", "v"), fs("f"), case) == 1

    def test_capturer_in_one_branch_only(self):
        src = (
            "t f g = case g 1 of { 0 -> 3; 1 -> let a = \\ q -> f q in a 2; "
            "default z -> let b = \\ r -> g r in b z };\nmain = 0"
        )
        # the other branches count 0, not nothing, in the branch maximum
        assert growth(src, fs(), fs("f"), lambda p: top(p, "t")) == 0
        assert growth(src, fs("w", "v"), fs("f"), lambda p: top(p, "t")) == 1
        src = src.replace("3;", "let c = \\ s -> f s in c 3;").replace("g r", "f r")
        assert growth(src, fs(), fs("f"), lambda p: top(p, "t")) == -1


class TestDirectRecursion:
    def test_variable_and_application_are_zero(self):
        assert direct_growth(fs("a"), fs("b"), parse("main = x").main, fs()) == 0
        assert direct_growth(fs("a"), fs("b"), parse("main = f x y").main, fs()) == 0

    def test_nothing_removed_means_zero(self, programs):
        for p in programs:
            tops, index = p.top_names(), plan_lifts(p).index
            for root in roots_of(p):
                assert direct_growth(fs("q_new"), fs(), root, tops) == 0
                assert closure_growth(fs("q_new"), fs(), root, index) == 0

    def test_matches_skeleton_route(self, programs):
        rng = random.Random(7)
        for p in programs:
            tops, index = p.top_names(), plan_lifts(p).index
            pool = bound_names(p)
            for _ in range(10):
                added, removed = random_disjoint_sets(rng, pool)
                for root in roots_of(p):
                    assert closure_growth(added, removed, root, index) == direct_growth(
                        added, removed, root, tops
                    )


class TestGrowthProperties:
    def test_removal_only_never_grows(self, programs):
        rng = random.Random(11)
        for p in programs:
            tops, index = p.top_names(), plan_lifts(p).index
            pool = bound_names(p)
            removed = frozenset(rng.sample(pool, k=min(3, len(pool))))
            for root in roots_of(p):
                value = closure_growth(fs(), removed, root, index)
                assert value <= 0 and value == direct_growth(fs(), removed, root, tops)

    def test_monotone_in_added(self, programs):
        rng = random.Random(13)
        for p in programs:
            tops, index = p.top_names(), plan_lifts(p).index
            pool = bound_names(p)
            added, removed = random_disjoint_sets(rng, pool)
            wider = added | fs("q_more1", "q_more2")
            for root in roots_of(p):
                narrow = closure_growth(added, removed, root, index)
                assert narrow <= closure_growth(wider, removed, root, index)
                assert narrow == direct_growth(added, removed, root, tops)
                assert closure_growth(wider, removed, root, index) == direct_growth(
                    wider, removed, root, tops
                )
