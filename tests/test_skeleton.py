import random

import pytest

from liftlab.analysis import closure_slot_fvs
from liftlab.skeleton import (
    Alt,
    Closure,
    NIL,
    Nil,
    Scaled,
    Seq,
    closure_growth,
    closure_growth_direct,
    skeleton_sexpr,
    skeleton_table,
    skeletonize,
)
from liftlab.syntax import (
    Cardinality,
    INF,
    MULTI_SHOT,
    Let,
    bound_names,
    parse,
    program_nodes,
)

from progen import random_disjoint_sets


def expr_of(src: str):
    return parse(f"main = {src}").main


def fs(*names):
    return frozenset(names)


class TestSkeletonize:
    def test_application_is_nil(self):
        assert skeletonize(expr_of("f x y"), fs()) == NIL

    def test_single_let_shape(self):
        e = expr_of("let g = \\ d -> f d d in g 5")
        expected = Seq(
            Seq(Closure(fs("f")), Scaled(MULTI_SHOT, NIL)),
            NIL,
        )
        assert skeletonize(e, fs()) == expected

    def test_case_branches_alt_chained_after_scrutinee(self):
        e = expr_of(
            "case x of { 0 -> let a = thunk 1 in a; 1 -> y; default d -> let b = thunk d in b }"
        )
        skel = skeletonize(e, fs())
        assert isinstance(skel, Seq)
        assert skel.left == NIL  # scrutinee first
        choice = skel.right
        assert isinstance(choice, Alt) and isinstance(choice.left, Alt)

    def test_top_level_names_excluded_from_closures(self):
        p = parse("h q = q;\nmain = let g = \\ d -> h d in g 1")
        skel = skeletonize(p.main, p.top_names())
        assert skel == Seq(Seq(Closure(fs()), Scaled(MULTI_SHOT, NIL)), NIL)

    def test_binder_params_not_captured(self):
        e = expr_of("let g = \\ d -> case d of { default q -> +# q x } in g 1")
        skel = skeletonize(e, fs())
        assert skel.left.left == Closure(fs("x"))

    def test_sexpr_rendering(self):
        e = expr_of("let g = \\ d -> f d d in g 5")
        assert (
            skeleton_sexpr(skeletonize(e, fs()))
            == "(seq (seq (closure f) (scaled {0,*} nil)) nil)"
        )

    def test_sexpr_matches_recursive_rendering(self, corpus, hand_programs):
        def reference(skel):
            if isinstance(skel, Nil):
                return "nil"
            if isinstance(skel, Closure):
                return "(" + " ".join(["closure", *sorted(skel.fvs)]) + ")"
            if isinstance(skel, Scaled):
                return f"(scaled {skel.card} {reference(skel.inner)})"
            tag = "seq" if isinstance(skel, Seq) else "alt"
            return f"({tag} {reference(skel.left)} {reference(skel.right)})"

        for p in [*corpus[:300], *hand_programs.values()]:
            tops = p.top_names()
            for root in [tb.body for tb in p.top_binds] + [p.main]:
                skel = skeletonize(root, tops)
                assert skeleton_sexpr(skel) == reference(skel)

    def test_slot_sets_match_closure_slot_fvs(self, corpus, hand_programs):
        # One table over all roots and one per expression agree, and each
        # closure holds its right-hand side's closure_slot_fvs.
        for p in [*corpus, *hand_programs.values()]:
            roots = [tb.body for tb in p.top_binds] + [p.main]
            tops = p.top_names()
            nodes = list(program_nodes(p))
            table = skeleton_table(roots, tops, nodes)
            assert table == skeleton_table(roots, tops)
            for e in nodes:
                if isinstance(e, Let):
                    for name, rhs in e.group.binds:
                        slots = closure_slot_fvs(name, rhs, tops)
                        assert table[id(rhs)].left.fvs == slots


class TestClosureGrowth:
    def test_hit_closure_swaps_evenly(self):
        # closure over {f,x}; removing f and adding {x,y} nets to zero
        skel = Closure(fs("f", "x"))
        assert closure_growth(fs("x", "y"), fs("f"), skel) == 0

    def test_positive_growth_under_multishot_is_infinite(self):
        skel = Scaled(MULTI_SHOT, Closure(fs("f", "n")))
        assert closure_growth(fs("x", "y"), fs("f"), skel) == INF

    def test_cancellation_inside_one_region(self):
        region = Scaled(
            MULTI_SHOT,
            Seq(Closure(fs("f")), Closure(fs("f", "x", "y"))),
        )
        assert closure_growth(fs("x", "y"), fs("f"), region) == 0

    def test_untouched_closure_contributes_nothing(self):
        assert closure_growth(fs("x"), fs("f"), Closure(fs("a", "b"))) == 0

    def test_alt_takes_worst_branch(self):
        skel = Alt(Closure(fs("f")), Closure(fs("f", "x", "y")))
        assert closure_growth(fs("x", "y"), fs("f"), skel) == 2 - 1

    def test_scaled_never_entered_is_zero_even_on_infinity(self):
        inner = Scaled(MULTI_SHOT, Closure(fs("f")))
        dead = Scaled(Cardinality(0, 0), inner)
        assert closure_growth(fs("x", "y"), fs("f"), inner) == INF
        assert closure_growth(fs("x", "y"), fs("f"), dead) == 0

    def test_one_shot_keeps_growth_finite(self):
        skel = Scaled(Cardinality(0, 1), Closure(fs("f")))
        assert closure_growth(fs("x", "y"), fs("f"), skel) == 1

    def test_strict_region_counts_shrinkage(self):
        shrink = Scaled(Cardinality(1, 1), Closure(fs("f", "x", "y")))
        lazy = Scaled(Cardinality(0, 1), Closure(fs("f", "x", "y")))
        assert closure_growth(fs("x", "y"), fs("f"), shrink) == -1
        assert closure_growth(fs("x", "y"), fs("f"), lazy) == 0

    def test_overlap_is_a_contract_error(self):
        with pytest.raises(ValueError):
            closure_growth(fs("a"), fs("a"), NIL)
        with pytest.raises(ValueError):
            closure_growth_direct(fs("a"), fs("a"), expr_of("x"), fs())


class TestDirectRecursion:
    def test_variable_and_application_are_zero(self):
        assert closure_growth_direct(fs("a"), fs("b"), expr_of("x"), fs()) == 0
        assert closure_growth_direct(fs("a"), fs("b"), expr_of("f x y"), fs()) == 0

    def test_nothing_removed_means_zero(self, corpus):
        for p in corpus[:100]:
            tops = p.top_names()
            assert closure_growth_direct(fs("q_new"), fs(), p.main, tops) == 0
            assert closure_growth(fs("q_new"), fs(), skeletonize(p.main, tops)) == 0

    def test_matches_skeleton_route(self, corpus):
        rng = random.Random(7)
        for p in corpus[:150]:
            tops = p.top_names()
            pool = bound_names(p)
            skel = skeletonize(p.main, tops)
            for _ in range(10):
                added, removed = random_disjoint_sets(rng, pool)
                assert closure_growth(added, removed, skel) == closure_growth_direct(
                    added, removed, p.main, tops
                )


class TestGrowthProperties:
    def test_removal_only_never_grows(self, corpus):
        rng = random.Random(11)
        for p in corpus[:150]:
            tops = p.top_names()
            skel = skeletonize(p.main, tops)
            pool = bound_names(p)
            removed = frozenset(rng.sample(pool, k=min(3, len(pool))))
            assert closure_growth(fs(), removed, skel) <= 0

    def test_monotone_in_added(self, corpus):
        rng = random.Random(13)
        for p in corpus[:150]:
            tops = p.top_names()
            skel = skeletonize(p.main, tops)
            pool = bound_names(p)
            added, removed = random_disjoint_sets(rng, pool)
            wider = added | fs("q_more1", "q_more2")
            assert closure_growth(added, removed, skel) <= closure_growth(
                wider, removed, skel
            )
