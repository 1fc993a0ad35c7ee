import hashlib
import sys

import pytest

from liftlab import lifter
from liftlab.analysis import closure_slot_fvs
from liftlab.lifter import lift_program, liftable_sites
from liftlab.machine import (
    ArityMismatch,
    BlackholeLoop,
    DivideByZero,
    OutOfFuel,
    SubsetTooLarge,
    UnboundVariable,
    enumerate_lift_subsets,
    evaluate,
    minimal_subset,
    render_value,
    value_key,
)
from liftlab.syntax import (
    AtomExpr,
    INF,
    Let,
    Program,
    Thunk,
    Var,
    parse,
    program_nodes,
)

from conftest import PROGRAMS_DIR, load_inline


def countdown_at(n: int):
    text = (PROGRAMS_DIR / "countdown.stg").read_text().replace("1000", str(n))
    return load_inline(text)


class TestEvaluate:
    def test_literal_program(self):
        value, stats = evaluate(parse("main = 42"))
        assert render_value(value) == "42"
        assert stats.words_allocated == 0
        assert stats.closures_allocated == 0

    # Heads that must be forced before the call: a thunk, a nullary
    # top-level definition, and a thunk whose function result is
    # oversaturated.  Values, steps and words recorded before the forced
    # head and its arguments shared one frame.
    @pytest.mark.parametrize(
        "src, value, steps, words",
        [
            ("main = let f = \\ a -> +# a 1 in let t = thunk f in t 41", "42", 6, 3),
            ("k a = h;\nh b = b;\ng = k;\nmain = g 1 2", "2", 5, 0),
            (
                "k a = h;\nh b = +# b 1;\n"
                "main = let t = thunk k in case t 1 2 of { default r -> t 3 r }",
                "4",
                10,
                1,
            ),
        ],
        ids=["thunk", "nullary-top", "oversaturated-thunk"],
    )
    def test_forced_head_applied_to_arguments(self, src, value, steps, words):
        v, stats = evaluate(load_inline(src))
        assert (render_value(v), stats.steps, stats.words_allocated) == (value, steps, words)

    def test_loop_allocation_model(self):
        p = countdown_at(10)
        value, stats = evaluate(p)
        assert render_value(value) == "5"
        g = stats.per_binder["g"]
        assert g.allocations == 10
        assert g.words == 20  # 10 closures of 1 code word + 1 captured variable
        lifted, _ = lift_program(p)
        value2, stats2 = evaluate(lifted)
        assert value_key(value) == value_key(value2)
        assert stats2.words_allocated == 0

    def test_thunk_memoised_across_uses(self, hand_programs):
        value, stats = evaluate(hand_programs["shared_thunk"])
        assert render_value(value) == "17"
        t = stats.per_binder["t"]
        assert t.allocations == 1
        assert t.entries == 1
        assert t.per_allocation_entries == (1,)

    def test_unentered_thunk_still_allocated(self):
        p = load_inline("main = let t = thunk 99 in 5")
        value, stats = evaluate(p)
        assert render_value(value) == "5"
        assert stats.per_binder["t"].allocations == 1
        assert stats.per_binder["t"].entries == 0

    def test_thunk_entries_bounded_by_allocations(self, corpus):
        for p in corpus[:200]:
            _, stats = evaluate(p)
            for name in thunk_binders(p):
                st = stats.per_binder[name]
                assert st.entries <= st.allocations
                assert all(c <= 1 for c in st.per_allocation_entries)

    def test_function_value_result(self):
        p = load_inline("main = let f = \\ a -> a in f")
        value, _ = evaluate(p)
        assert render_value(value) == "<fun f>"

    def test_determinism(self, hand_programs):
        p = hand_programs["tally"]
        first = evaluate(p)
        second = evaluate(p)
        assert value_key(first[0]) == value_key(second[0])
        assert first[1] == second[1]

    def test_words_at_least_closures(self, corpus):
        for p in corpus[:200]:
            _, stats = evaluate(p)
            assert stats.words_allocated >= stats.closures_allocated


class TestErrors:
    def test_out_of_fuel(self):
        p = load_inline("main = let w = \\ wx -> w wx in w 1")
        with pytest.raises(OutOfFuel):
            evaluate(p, fuel=10_000)

    def test_unbound_variable(self):
        bad = Program((), AtomExpr(Var("nowhere")))
        with pytest.raises(UnboundVariable):
            evaluate(bad)

    def test_undersaturated_call(self):
        p = parse("f a b = a;\nmain = f 1")
        with pytest.raises(ArityMismatch):
            evaluate(p)

    def test_apply_non_function(self):
        p = load_inline("main = let t = thunk 5 in t 1")
        with pytest.raises(ArityMismatch):
            evaluate(p)

    def test_blackhole(self):
        p = load_inline("main = let t = thunk t in t")
        with pytest.raises(BlackholeLoop):
            evaluate(p)

    def test_divide_by_zero(self):
        with pytest.raises(DivideByZero):
            evaluate(parse("main = %# 1 0"))

    def test_deep_recursion_needs_no_host_stack(self):
        # Each step of tally's g leaves a case frame and a thunk update
        # pending, so this run holds ~100,000 frames on the machine's stack.
        text = (PROGRAMS_DIR / "tally.stg").read_text().replace("g 1000", "g 50000")
        p = load_inline(text)
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            value, stats = evaluate(p)
            assert sys.getrecursionlimit() == 200
        finally:
            sys.setrecursionlimit(old)
        assert render_value(value) == "50010"
        assert stats.steps == 10 * 50_000 + 13  # as at N = 1000 and 3000

    def test_unbounded_recursion_runs_out_of_fuel(self):
        # Non-tail: every call leaves a case frame behind.  Fuel bounds the
        # stack, so the error names the step budget.
        p = load_inline("main = let w = \\ x -> case w x of { default r -> r } in w 1")
        with pytest.raises(OutOfFuel, match="exceeded 200000 steps"):
            evaluate(p, fuel=200_000)

    def test_bad_fuel(self):
        with pytest.raises(ValueError):
            evaluate(parse("main = 1"), fuel=0)


# sha256 of every observable of evaluate, for each program of the
# acceptance corpus and then of programs/*.stg, before and after
# lift_program.  Computed with the recursive interpreter that preceded the
# explicit-stack one; a change here changes what the lab measures.
OBSERVABLE_DIGEST = "79b26cf224fefdffbf400520d4878354a7c4c7e59736f68cd571652aad570a19"


def test_observable_output_pinned(corpus, hand_programs):
    h = hashlib.sha256()
    for p in [*corpus, *hand_programs.values()]:
        for q in (p, lift_program(p)[0]):
            value, s = evaluate(q)
            per_binder = sorted(
                (name, b.allocations, b.entries, b.words, b.per_allocation_entries)
                for name, b in s.per_binder.items()
            )
            observed = (
                value_key(value),
                s.words_allocated,
                s.closures_allocated,
                s.steps,
                per_binder,
            )
            h.update(repr(observed).encode())
    assert h.hexdigest() == OBSERVABLE_DIGEST


class TestCompareAlloc:
    def test_identical_programs(self, hand_programs):
        p = hand_programs["countdown"]
        assert evaluate(p)[1].words_allocated - evaluate(p)[1].words_allocated == 0

    def test_profitable_single_lift(self, hand_programs):
        p = hand_programs["growth_shared"]
        lifted, _ = lift_program(p, force_sites=frozenset({("f",)}))
        assert evaluate(lifted)[1].words_allocated - evaluate(p)[1].words_allocated == -3

    def test_oversaturated_call_supported(self):
        p = load_inline(
            "main = let mk = \\ a -> let inner = \\ b -> +# a b in inner in mk 1 2"
        )
        value, _ = evaluate(p)
        assert render_value(value) == "3"


class TestOracle:
    def test_no_liftable_groups_single_row(self, hand_programs):
        rows = enumerate_lift_subsets(hand_programs["trivial"])
        assert len(rows) == 1 and rows[0].subset == ()

    def test_beneficial_subset_detected(self, hand_programs):
        rows = enumerate_lift_subsets(hand_programs["growth_balanced"])
        empty = rows[0]
        frow = next(r for r in rows if r.subset == ("f",))
        assert frow.words < empty.words

    def test_harmful_subset_detected(self, hand_programs):
        rows = enumerate_lift_subsets(hand_programs["growth_multishot"])
        empty = rows[0]
        frow = next(r for r in rows if r.subset == ("f",))
        assert frow.words > empty.words

    def test_subset_limit(self, hand_programs):
        with pytest.raises(SubsetTooLarge):
            enumerate_lift_subsets(hand_programs["scc_chain"], max_groups=2)

    def test_minimal_subset(self, hand_programs):
        rows = enumerate_lift_subsets(hand_programs["growth_balanced"])
        assert minimal_subset(rows).words == min(r.words for r in rows)

    def test_values_agree_across_subsets(self, hand_programs):
        for name in ("growth_balanced", "one_shot", "callweb"):
            rows = enumerate_lift_subsets(hand_programs[name])
            assert len({r.value for r in rows}) == 1, name

    def test_rows_match_one_lift_per_subset(self, corpus, hand_programs):
        # The oracle applies one plan per program and measures the empty
        # subset on the program itself; rebuild its rows one whole
        # lift_program per subset.
        checked = 0
        for p in [*corpus, *hand_programs.values()]:
            sites = liftable_sites(p)
            if len(sites) > 4:
                continue
            expected = []
            for mask in range(2 ** len(sites)):
                chosen = frozenset(s for i, s in enumerate(sites) if mask & (1 << i))
                lifted, _ = lift_program(p, force_sites=chosen)
                value, stats = evaluate(lifted)
                label = tuple("+".join(s) for s in sites if s in chosen)
                row = (label, stats.words_allocated, stats.closures_allocated, render_value(value))
                expected.append(row)
            rows = enumerate_lift_subsets(p)
            assert [(r.subset, r.words, r.closures, r.value) for r in rows] == expected
            checked += 1
        assert checked > 700

    def test_one_plan_per_call(self, hand_programs, monkeypatch):
        calls = []
        real = lifter.skeleton_table

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(lifter, "skeleton_table", counting)
        for name in ("growth_balanced", "callweb", "scc_chain"):
            calls.clear()
            rows = enumerate_lift_subsets(hand_programs[name])
            assert len(rows) >= 4 and len(calls) == 1, name


def test_charged_words_follow_closure_slots(corpus, hand_programs):
    # The interpreter charges each closure 1 + its closure_slot_fvs, the
    # slot sets the skeletons predict with, before lifting and after.
    checked = 0
    for p in [*corpus, *hand_programs.values()]:
        for q in (p, lift_program(p)[0]):
            stats = evaluate(q)[1].per_binder
            tops = q.top_names()
            for e in program_nodes(q):
                if isinstance(e, Let):
                    for name, rhs in e.group.binds:
                        slots = closure_slot_fvs(name, rhs, tops)
                        b = stats[name]
                        assert b.words == b.allocations * (1 + len(slots)), name
                        checked += b.allocations > 0
    assert checked > 1000


class TestPredictionSoundness:
    def test_single_site_deltas_bounded_by_prediction(self, corpus):
        for p in corpus[:300]:
            _, base_stats = evaluate(p, 200_000)
            for site in liftable_sites(p):
                lifted, ds = lift_program(p, force_sites=frozenset({site}))
                d = next(x for x in ds if x.binders == site and x.lifted)
                predicted = d.predicted_net_words
                _, stats = evaluate(lifted, 200_000)
                measured = stats.words_allocated - base_stats.words_allocated
                activations = base_stats.per_binder[site[0]].allocations
                if activations == 0:
                    # Never activated: moving the group out can only shrink
                    # enclosing closures (a dead branch no longer pins its
                    # free variables), never grow them.
                    assert measured <= 0
                elif predicted != INF:
                    assert measured <= predicted * activations, (site, measured)


def thunk_binders(p):
    out = set()

    def walk(e):
        if isinstance(e, Let):
            for name, rhs in e.group.binds:
                if isinstance(rhs, Thunk):
                    out.add(name)
                walk(rhs.body)
            walk(e.body)
        elif hasattr(e, "scrutinee"):
            walk(e.scrutinee)
            for _, b in e.alts:
                walk(b)
            walk(e.default[1])

    for tb in p.top_binds:
        walk(tb.body)
    walk(p.main)
    return out
