from liftlab.analysis import (
    cardinality,
    closure_slot_fvs,
    closure_slots,
    free_vars,
    occurrence_facts,
    split_groups,
)
from liftlab.machine import evaluate, value_key
from liftlab.syntax import (
    App,
    AtomExpr,
    Case,
    Cardinality,
    INF,
    Lambda,
    Let,
    Lit,
    PrimApp,
    Thunk,
    Var,
    parse,
)


def fs(*names):
    return frozenset(names)


def expr_of(src: str):
    return parse(f"main = {src}").main


def naive_free_vars(node, bound=frozenset()):
    """Occurrence walk with an explicit bound stack; test oracle."""
    if isinstance(node, Lambda):
        return naive_free_vars(node.body, bound | set(node.params))
    if isinstance(node, Thunk):
        return naive_free_vars(node.body, bound)
    if isinstance(node, AtomExpr):
        a = node.atom
        return frozenset() if isinstance(a, Lit) or a.name in bound else {a.name}
    if isinstance(node, App):
        out = set() if node.head in bound else {node.head}
        for a in node.args:
            if isinstance(a, Var) and a.name not in bound:
                out.add(a.name)
        return frozenset(out)
    if isinstance(node, PrimApp):
        return frozenset(
            a.name for a in node.args if isinstance(a, Var) and a.name not in bound
        )
    if isinstance(node, Let):
        inner = bound | set(node.group.binders())
        out = set(naive_free_vars(node.body, inner))
        for _, rhs in node.group.binds:
            out |= naive_free_vars(rhs, inner)
        return frozenset(out)
    if isinstance(node, Case):
        out = set(naive_free_vars(node.scrutinee, bound))
        for _, body in node.alts:
            out |= naive_free_vars(body, bound)
        dname, dbody = node.default
        out |= naive_free_vars(dbody, bound | {dname})
        return frozenset(out)
    raise AssertionError(node)


class TestFreeVars:
    def test_lambda_captures(self):
        e = expr_of("let f = \\ a b -> case +# x y of { default s -> +# a b } in f 1 2")
        _, rhs = e.group.binds[0]
        assert free_vars(rhs) == {"x", "y"}

    def test_literal(self):
        assert free_vars(AtomExpr(Lit(42))) == frozenset()

    def test_let_removes_binder(self):
        e = expr_of("let h = \\ e -> f e e in h x")
        assert free_vars(e) == {"f", "x"}

    def test_agrees_with_naive_reference(self, corpus, hand_programs):
        programs = corpus[:200] + list(hand_programs.values())
        for p in programs:
            for tb in p.top_binds:
                assert free_vars(tb.body) == naive_free_vars(tb.body)
            assert free_vars(p.main) == naive_free_vars(p.main)


class TestClosureSlots:
    def test_self_and_top_level_names_take_no_slot(self):
        assert closure_slots("f", fs("f", "x", "g"), fs("g", "h")) == {"x"}

    def test_slot_fvs_reads_the_rhs_free_variables(self):
        e = expr_of("let f = \\ a -> case +# a x of { default s -> f g s } in f 1")
        name, rhs = e.group.binds[0]
        assert closure_slot_fvs(name, rhs, fs("g")) == {"x"}
        assert closure_slot_fvs(name, rhs, fs()) == {"g", "x"}


class TestOccurrenceFacts:
    def test_argument_occurrence(self):
        p = parse(
            "main = let x = thunk 1 in let f = \\ q -> q in "
            "let g = \\ a b c -> a in g 5 x f"
        )
        facts = occurrence_facts(p)
        assert facts["f"].occurs_as_argument
        assert facts["f"].is_known_function
        assert facts["x"].occurs_as_argument
        assert not facts["g"].occurs_as_argument

    def test_thunk_is_not_known_function(self):
        p = parse("main = let t = thunk 1 in t")
        facts = occurrence_facts(p)
        assert not facts["t"].is_known_function

    def test_case_scrutinee_is_head_position(self):
        p = parse("main = let f = \\ a -> a in case f 1 of { default r -> r }")
        assert not occurrence_facts(p)["f"].occurs_as_argument


class TestSplitGroups:
    def test_independent_pair_becomes_nested_nonrecursive(self):
        p = parse("main = let g = \\ a -> a and h = \\ b -> b in g 1")
        sp = split_groups(p)
        outer = sp.main
        assert isinstance(outer, Let) and not outer.group.recursive
        assert outer.group.binders() == ("g",)
        inner = outer.body
        assert isinstance(inner, Let) and not inner.group.recursive
        assert inner.group.binders() == ("h",)

    def test_self_recursive_singleton(self):
        p = parse("main = let f = \\ a -> f a in f 1")
        sp = split_groups(p)
        assert sp.main.group.recursive
        assert sp.main.group.binders() == ("f",)

    def test_chain_dependency_outermost(self, hand_programs):
        p = hand_programs["scc_chain"]
        order = []
        e = p.main
        while isinstance(e, Let):
            order.append(e.group.binders())
            assert not e.group.recursive
            e = e.body
        assert order == [("add1",), ("add2",), ("add3",)]

    def test_mutual_group_stays_together(self, hand_programs):
        p = hand_programs["mutual"]
        assert p.main.group.binders() == ("even", "odd")
        assert p.main.group.recursive

    def test_fixpoint(self, corpus, hand_programs):
        for p in corpus[:200] + list(hand_programs.values()):
            assert split_groups(p) == p

    def test_semantics_and_words_preserved(self, corpus):
        for p in corpus[:200]:
            v0, s0 = evaluate(p, 200_000)
            v1, s1 = evaluate(split_groups(p), 200_000)
            assert value_key(v0) == value_key(v1)
            assert s0.words_allocated == s1.words_allocated


class TestCardinality:
    def test_thunk(self):
        assert cardinality(Thunk(AtomExpr(Lit(1)))) == Cardinality(0, 1)

    def test_default_lambda(self):
        _, rhs = parse("main = let f = \\ x -> x in f 1").main.group.binds[0]
        assert cardinality(rhs) == Cardinality(0, INF)

    def test_annotation_passthrough(self):
        _, rhs = parse("main = let f = \\{1,1} x -> x in f 1").main.group.binds[0]
        assert cardinality(rhs) == Cardinality(1, 1)
