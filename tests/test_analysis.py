import random
from collections import Counter

import pytest

from liftlab import analysis
from liftlab.analysis import (
    cardinality,
    closure_slots,
    scan_program,
    split_groups,
)
from liftlab.lifter import lift_program
from liftlab.machine import evaluate, value_key
from liftlab.syntax import (
    AtomExpr,
    BindGroup,
    Cardinality,
    INF,
    Let,
    Lit,
    Program,
    Thunk,
    Var,
    freshen,
    parse,
)

from conftest import CORPUS_SEED
from progen import ProgramGen
from reference import free_vars, occurrence_facts, preorder, recursive


def fs(*names):
    return frozenset(names)


def expr_of(src: str):
    return parse(f"main = {src}").main


def walked(rhs):
    """``rhs``, once the scope walk of a program binding it has stored its
    free variables."""
    scan_program(Program((), Let(BindGroup((("r", rhs),)), AtomExpr(Var("r")))))
    return rhs


class TestFreeVars:
    # free_vars reads what the scope walk (or a lift) stored, so each
    # hand-built right-hand side is walked first.
    def test_lambda_captures(self):
        e = expr_of("let f = \\ a b -> case +# x y of { default s -> +# a b } in f 1 2")
        _, rhs = e.group.binds[0]
        assert analysis.free_vars(walked(rhs)) == {"x", "y"}

    def test_literal(self):
        assert analysis.free_vars(walked(Thunk(AtomExpr(Lit(42))))) == frozenset()

    def test_let_removes_binder(self):
        rhs = Thunk(expr_of("let h = \\ e -> f e e in h x"))
        assert analysis.free_vars(walked(rhs)) == {"f", "x"}

    def test_a_right_hand_side_nothing_walked_raises(self):
        rhs = Thunk(expr_of("let h = \\ e -> f e e in h x"))
        with pytest.raises(ValueError, match="scan_program"):
            analysis.free_vars(rhs)
        # The walk of the program around it stores the set, and so the
        # inner right-hand side's.
        assert analysis.free_vars(walked(rhs)) == {"f", "x"}
        assert analysis.free_vars(rhs.body.group.binds[0][1]) == {"f"}

    def test_agrees_with_naive_reference(self, corpus, hand_programs):
        # Every right-hand side under all roots, of each input and of its
        # lifted output, which the interpreter reads too, carries the free
        # variables a plain recursion finds: the input's from its scope
        # walk, the output's kept from the input or stored by the lift.
        checked = 0
        for p in [*corpus, *hand_programs.values()]:
            for q in (p, lift_program(p)[0]):
                lets = [e for e in preorder(q) if isinstance(e, Let)]
                for _, rhs in [bind for e in lets for bind in e.group.binds]:
                    assert vars(rhs)["_free"] == free_vars(rhs)
                    checked += 1
        assert checked > 10_000


class TestClosureSlots:
    def test_self_and_top_level_names_take_no_slot(self):
        assert closure_slots("f", fs("f", "x", "g"), fs("g", "h")) == {"x"}

    def test_slot_fvs_reads_the_rhs_free_variables(self):
        e = expr_of("let f = \\ a -> case +# a x of { default s -> f g s } in f 1")
        name, rhs = e.group.binds[0]
        walked(rhs)
        assert closure_slots(name, analysis.free_vars(rhs), fs("g")) == {"x"}
        assert closure_slots(name, analysis.free_vars(rhs), fs()) == {"g", "x"}


class TestOccurrenceFacts:
    def test_argument_occurrence(self):
        p = parse(
            "main = let x = thunk 1 in let f = \\ q -> q in "
            "let g = \\ a b c -> a in g 5 x f"
        )
        s = scan_program(p)
        assert "f" in s.as_arg
        assert s.known["f"]
        assert "x" in s.as_arg
        assert "g" in s.known and "g" not in s.as_arg

    def test_thunk_is_not_known_function(self):
        p = parse("main = let t = thunk 1 in t")
        assert not scan_program(p).known["t"]

    def test_case_scrutinee_is_head_position(self):
        p = parse("main = let f = \\ a -> a in case f 1 of { default r -> r }")
        s = scan_program(p)
        assert "f" in s.known and "f" not in s.as_arg

    def test_agree_with_reference(self, corpus, hand_programs):
        # The walk's facts, of each input and of its lifted output, are
        # those of a plain recursion written apart from it; both kinds of
        # binder, and both facts, occur often.
        seen = Counter()
        for p in [*corpus, *hand_programs.values()]:
            for q in (p, lift_program(p)[0]):
                s = scan_program(q)
                expected = occurrence_facts(q)
                assert {name: (name in s.as_arg, k) for name, k in s.known.items()} == expected
                seen.update(expected.values())
        assert len(seen) == 4 and min(seen.values()) > 300, seen


class TestSplitGroups:
    def test_independent_pair_becomes_nested_nonrecursive(self):
        p = parse("main = let g = \\ a -> a and h = \\ b -> b in g 1")
        sp = split_groups(p)
        outer = sp.main
        assert isinstance(outer, Let) and not recursive(outer.group)
        assert outer.group.binders() == ("g",)
        inner = outer.body
        assert isinstance(inner, Let) and not recursive(inner.group)
        assert inner.group.binders() == ("h",)

    def test_self_recursive_singleton(self):
        p = parse("main = let f = \\ a -> f a in f 1")
        sp = split_groups(p)
        assert recursive(sp.main.group)
        assert sp.main.group.binders() == ("f",)

    def test_chain_dependency_outermost(self, hand_programs):
        p = hand_programs["scc_chain"]
        order = []
        e = p.main
        while isinstance(e, Let):
            order.append(e.group.binders())
            assert not recursive(e.group)
            e = e.body
        assert order == [("add1",), ("add2",), ("add3",)]

    def test_mutual_group_stays_together(self, hand_programs):
        p = hand_programs["mutual"]
        assert p.main.group.binders() == ("even", "odd")
        assert recursive(p.main.group)

    def test_fixpoint(self, corpus, hand_programs):
        for p in corpus[:200] + list(hand_programs.values()):
            assert split_groups(p) is p

    def test_shares_what_holds_no_split(self):
        p = parse(
            "k x = let u = \\ a -> v a and v = \\ b -> u x in v 1;\n"
            "main = case k 2 of { default r -> let g = \\ a -> a and h = \\ b -> g b in h r }"
        )
        # Two parameters are bound twice, so the program is freshened
        # first: split_groups reads free variables only of unique names.
        p = freshen(p)
        sp = split_groups(p)
        assert sp.top_binds[0] is p.top_binds[0]
        assert sp.main.scrutinee is p.main.scrutinee
        assert [e.group.binders() for e in preorder(sp) if isinstance(e, Let)] == [
            ("u", "v"),
            ("g",),
            ("h",),
        ]

    def test_semantics_and_words_preserved(self):
        # The acceptance corpus before splitting, against a fresh object of
        # each split program, so both sides are runs of their own even
        # where split_groups returns its input.
        rng = random.Random(CORPUS_SEED)
        split = 0
        for _ in range(200):
            p = freshen(ProgramGen(rng).program())
            sp = split_groups(p)
            split += sp is not p
            v0, s0 = evaluate(p, 200_000)
            v1, s1 = evaluate(Program(sp.top_binds, sp.main), 200_000)
            assert value_key(v0) == value_key(v1)
            assert s0.words_allocated == s1.words_allocated
        assert split > 50, split


class TestCardinality:
    def test_thunk(self):
        assert cardinality(Thunk(AtomExpr(Lit(1)))) == Cardinality(0, 1)

    def test_default_lambda(self):
        _, rhs = parse("main = let f = \\ x -> x in f 1").main.group.binds[0]
        assert cardinality(rhs) == Cardinality(0, INF)

    def test_annotation_passthrough(self):
        _, rhs = parse("main = let f = \\{1,1} x -> x in f 1").main.group.binds[0]
        assert cardinality(rhs) == Cardinality(1, 1)
