import gc
import hashlib
import sys
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import example, given

from liftlab import lifter, machine
from liftlab.cli import main as cli_main
from liftlab.lifter import LiftConfig, apply_lifts, lift_program, liftable_sites, plan_lifts
from liftlab.machine import (
    DEFAULT_FUEL,
    ArityMismatch,
    BlackholeLoop,
    DivideByZero,
    EvalError,
    OutOfFuel,
    SubsetTooLarge,
    enumerate_lift_subsets,
    evaluate,
    minimal_subset,
    render_value,
    value_key,
)
from liftlab.syntax import (
    AtomExpr,
    BindGroup,
    Case,
    INF,
    Let,
    Lit,
    Program,
    ScopeError,
    Thunk,
    TopBind,
    Var,
    _analyses,
    freshen,
    parse,
    validate,
)

from conftest import PROGRAMS_DIR, load_inline, load_program
from reference import closure_slot_fvs, preorder
from test_syntax import _EXPRS, _PROPERTY, _TOPS


def memoising_run(name: str) -> None:
    """Evaluate, plan and run the oracle on one fresh program object, so
    that each call after the first reads what is memoised on it."""
    p = load_program(name)
    evaluate(p)
    lift_program(p)
    evaluate(p)
    enumerate_lift_subsets(p)
    evaluate(p)


def fresh(p: Program) -> Program:
    """A new object of ``p``'s nodes.  Nothing memoised on ``p`` carries
    over, its run included, so evaluating it runs an engine."""
    return Program(p.top_binds, p.main)


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
        first = evaluate(fresh(p))
        second = evaluate(fresh(p))
        assert value_key(first[0]) == value_key(second[0])
        assert first[1] == second[1]

    def test_words_at_least_closures(self, corpus):
        for p in corpus[:200]:
            _, stats = evaluate(p)
            assert stats.words_allocated >= stats.closures_allocated


class TestCounters:
    """Entry counts live per binder, so a closure lives only while the
    program holds it, and its count outlives it."""

    def test_dead_closures_are_freed(self):
        # Each iteration's g is dead once the next iteration starts.
        # Retaining every closure would cost ~300 bytes per closure.
        p = countdown_at(20_000)
        tracemalloc.start()
        try:
            _, stats = evaluate(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.closures_allocated == 20_000
        assert peak < 40 * stats.closures_allocated

    def test_dead_closures_still_count(self):
        # countdown at N = 5 allocates one g per iteration, n = 5 … 1, and
        # enters it for m = n % 2 down to 0: twice for odd n, once for even.
        value, stats = evaluate(countdown_at(5))
        assert render_value(value) == "3"
        assert stats.per_binder["g"].per_allocation_entries == (2, 1, 2, 1, 2)
        # tally at N = 5 allocates g once and enters it for m = 5 … 0; each
        # entry with m >= 1 allocates an h, entered once, then dropped.
        text = (PROGRAMS_DIR / "tally.stg").read_text().replace("g 1000", "g 5")
        value, stats = evaluate(load_inline(text))
        assert render_value(value) == "15"
        assert stats.per_binder["g"].per_allocation_entries == (6,)
        assert stats.per_binder["h"].per_allocation_entries == (1, 1, 1, 1, 1)
        assert stats.per_binder["h"].words == 5 * 3  # code word, m and g

    @pytest.mark.parametrize(
        "run, raises",
        [
            (lambda ps: evaluate(fresh(ps["tally"])), None),
            (lambda ps: enumerate_lift_subsets(fresh(ps["growth_balanced"])), None),
            (lambda ps: evaluate(load_inline("main = let w = \\ x -> w x in w 1"), 1_000), OutOfFuel),
            (lambda ps: evaluate(load_inline("main = let t = thunk t in t")), BlackholeLoop),
            (lambda ps: enumerate_lift_subsets(fresh(ps["countdown"]), fuel=1_000), OutOfFuel),
            (lambda ps: memoising_run("growth_balanced"), None),
        ],
        ids=[
            "evaluate",
            "oracle",
            "evaluate-out-of-fuel",
            "evaluate-blackhole",
            "oracle-out-of-fuel",
            "memoised",
        ],
    )
    def test_collector_and_limits_untouched(
        self, run, raises, hand_programs, recursion_limit_unchanged
    ):
        # Freeing closures must not lean on switching the collector off or
        # retuning it.  The fixture checks the recursion limit once more.
        def settings():
            return gc.isenabled(), gc.get_threshold(), sys.getrecursionlimit()

        before = settings()
        if raises is None:
            run(hand_programs)
        else:
            with pytest.raises(raises):
                run(hand_programs)
        assert settings() == before


class TestErrors:
    def test_out_of_fuel(self):
        p = load_inline("main = let w = \\ wx -> w wx in w 1")
        with pytest.raises(OutOfFuel):
            evaluate(p, fuel=10_000)

    def test_unbound_variable(self, engine_runs):
        # A program that does not validate is refused before any engine
        # runs, with validate's first violation.
        bad = Program((), AtomExpr(Var("nowhere")))
        with pytest.raises(ScopeError, match="^invalid program: main: UnboundVariable nowhere$"):
            evaluate(bad)
        assert not engine_runs

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


def dict_engine(p, fuel=DEFAULT_FUEL):
    return machine._Machine(p, fuel).run()


def frames_engine(p, fuel=DEFAULT_FUEL):
    return machine._run_frames(p, fuel)


def outcome(run, p, fuel=DEFAULT_FUEL):
    """What a run shows: the value's key and the stats, or the error's type
    and message."""
    try:
        value, stats = run(p, fuel)
    except (EvalError, ScopeError) as exc:
        return type(exc), str(exc)
    return value_key(value), stats


# Each run ends in an error or takes a path the hand-written programs and
# the corpus may not: forced heads applied to arguments, and a primop
# operand that is a function.
EDGE_PROGRAMS = [
    "main = let w = \\ x -> w x in w 1",
    "main = let t = thunk t in t",
    "main = let t = thunk (case t of { default x -> x }) in t",
    "main = let t = thunk 5 in t 1",
    "f a b = a;\nmain = f 1",
    "main = %# 1 0",
    "main = case %# 1 0 of { default d -> d }",
    "main = let f = \\ a -> a in +# f 1",
    "main = let f = \\ a -> a in let t = thunk f in +# 1 t",
    "main = let f = \\ a -> +# a 1 in let t = thunk f in t 41",
    "k a = h;\nh b = b;\ng = k;\nmain = g 1 2",
    "k a = h;\nh b = +# b 1;\nmain = let t = thunk k in case t 1 2 of { default r -> t 3 r }",
    "main = let mk = \\ a -> let inner = \\ b -> +# a b in inner in mk 1 2",
    "f = 3;\nmain = case f of { 3 -> case f of { default e -> e }; default d -> 0 }",
]

# Names bound nowhere, so these do not validate.  In the last, the let
# binder x is out of scope in the default, and the two engines once
# answered it differently: the dict engine 1, compiled frames an error.
UNBOUND_PROGRAMS = [
    "main = nowhere",
    "main = nowhere 1",
    "main = let g = \\ a -> +# a nowhere in g 1",
    "main = let t = thunk 1 in +# t nowhere",
    "main = case nowhere of { default d -> d }",
    "main = case (let x = thunk 1 in 2) of { default d -> x }",
]


def edge_programs():
    return [load_inline(text) for text in EDGE_PROGRAMS]


class TestCompiledFrames:
    """Runs that pass _HANDOVER steps restart on compiled frames, which
    must show exactly what the dict-environment engine shows."""

    def test_engines_agree(self, corpus, hand_programs):
        # Both engines through their private entry points, on every
        # program before and after lifting; the compiled engine's fuel is
        # exact as well.
        checked, errors = 0, set()
        for p in [*hand_programs.values(), *corpus, *edge_programs()]:
            for q in (p, lift_program(p)[0]):
                assert outcome(frames_engine, q, 1_000) == outcome(dict_engine, q, 1_000)
                expected = outcome(dict_engine, q, 200_000)
                assert outcome(frames_engine, q, 200_000) == expected
                checked += 1
                if type(expected[0]) is not tuple:
                    errors.add(expected[0])
                    continue
                steps = expected[1].steps
                assert outcome(frames_engine, q, steps) == expected
                if steps > 1:
                    with pytest.raises(OutOfFuel, match=f"^exceeded {steps - 1} steps$"):
                        frames_engine(q, steps - 1)
        assert checked > 2_000
        assert errors == {ArityMismatch, BlackholeLoop, DivideByZero, OutOfFuel}

    @pytest.mark.parametrize("fuel", [999, 1_000, 1_001])
    @pytest.mark.parametrize("text", UNBOUND_PROGRAMS)
    def test_unbound_names_refused_before_any_engine(self, text, fuel, engine_runs):
        # evaluate checks once, at its entry, what the engines assume:
        # on either side of the hand-over, a program that does not
        # validate raises validate's first violation, and no engine runs.
        p = parse(text)
        v = validate(p)[0]
        message = f"invalid program: {v.path}: {v.tag} {v.detail}"
        assert v.tag == "UnboundVariable"
        assert outcome(evaluate, p, fuel) == (ScopeError, message)
        assert outcome(evaluate, p, fuel) == (ScopeError, message)
        assert not engine_runs and "run" not in _analyses(p)

    @pytest.mark.parametrize(
        "src, shown",
        [("main = let f = \\ a -> a in f", "<fun f>"), ("g x = x;\nmain = g", "<fun g>")],
        ids=["let", "top-level"],
    )
    def test_compiled_closures_render(self, src, shown):
        value, _ = frames_engine(load_inline(src))
        assert (render_value(value), value_key(value)) == (shown, ("fun", shown[5:-1]))

    @pytest.mark.parametrize(
        "main, steps, compiled",
        [
            ("let u = thunk 0 in f 199", 1_000, []),
            ("case 0 of { default z -> f 199 }", 1_001, [DEFAULT_FUEL]),
        ],
        ids=["1000-steps", "1001-steps"],
    )
    def test_handover(self, main, steps, compiled, monkeypatch):
        loop = "f n = case n of { 0 -> 0; default m -> case -# m 1 of { default k -> f k } };\n"
        p = load_inline(loop + "main = " + main)
        runs = []
        real = machine._run_frames

        def counting(q, fuel):
            runs.append(fuel)
            return real(q, fuel)

        monkeypatch.setattr(machine, "_run_frames", counting)
        expected = outcome(dict_engine, p)
        assert outcome(evaluate, p) == expected and expected[1].steps == steps
        assert runs == compiled
        # Fresh objects, so the fuel bounds real runs, not p's stored one;
        # only a run past 1,000 steps hands over, with the caller's fuel.
        assert outcome(evaluate, fresh(p), steps) == expected
        assert outcome(evaluate, fresh(p), steps - 1) == (OutOfFuel, f"exceeded {steps - 1} steps")
        assert runs == (compiled + [steps] if compiled else [])

    @pytest.mark.parametrize("fuel", [1_000, 1_001, 16_503, 16_504])
    def test_countdown_fuel_across_handover(self, fuel, hand_programs):
        p = fresh(hand_programs["countdown"])
        got = outcome(evaluate, p, fuel)
        assert got == outcome(dict_engine, p, fuel)
        if fuel < 16_504:
            assert got == (OutOfFuel, f"exceeded {fuel} steps")
        else:
            assert got[0] == ("int", 500) and got[1].steps == 16_504

    @pytest.mark.parametrize(
        "result, error, message",
        [
            ("%# a 0", DivideByZero, "500 %# 0"),
            (
                "let t = thunk t in t",
                BlackholeLoop,
                "thunk 't' was entered again while it was being evaluated",
            ),
            ("a 5", ArityMismatch, "application of non-function result of 'a'"),
            ("nowhere", ScopeError, "top f/alt 1: UnboundVariable nowhere"),
        ],
        ids=["divide-by-zero", "blackhole", "arity", "unbound"],
    )
    def test_errors_after_handover(self, result, error, message, tmp_path, capsys, engine_runs):
        # countdown reaches its result after 16,000 steps; here that
        # result raises.  A name bound nowhere does not validate, so that
        # program is only parsed: evaluate refuses it before any engine
        # runs, and the command line rejects it sooner, in its own words.
        text = (PROGRAMS_DIR / "countdown.stg").read_text().replace("1 -> a;", f"1 -> {result};")
        path = tmp_path / "countdown.stg"
        path.write_text(text)
        assert cli_main(["lift", str(path), "--eval"]) == 1
        captured = capsys.readouterr()
        if error is ScopeError:
            p = parse(text)
            assert outcome(evaluate, p) == (error, f"invalid program: {message}")
            assert not engine_runs
            shown = "liftlab: error: unbound variable 'nowhere'\n"  # freshen's words
        else:
            p = load_inline(text)
            assert outcome(evaluate, p) == outcome(dict_engine, p) == (error, message)
            shown = f"liftlab: error: {message}\n"
        assert (captured.out, captured.err) == ("", shown)

    @pytest.mark.parametrize("fuel", [999, 1_000, 1_001, DEFAULT_FUEL])
    def test_evaluated_thunks_past_the_handover(self, fuel):
        # The loop reads its parameter k, the thunk one, evaluated in the
        # first iteration, as a case scrutinee, in primop scrutinees and as
        # primop operands, and so does each thunk d; an evaluated thunk is
        # never at hand, so both engines force it through a frame.  The
        # loops workload takes this path on compiled frames nowhere.
        p = load_inline(
            "f a n k =\n"
            "  case <# n k of {\n"
            "    1 -> +# a k;\n"
            "    default n0 ->\n"
            "      case k of {\n"
            "        1 -> let d = thunk (-# n k) in case +# a k of { default a1 -> f a1 d k };\n"
            "        default z -> z\n"
            "      }\n"
            "  };\n"
            "main = let one = thunk 1 in f 0 400 one\n"
        )
        expected = outcome(dict_engine, p, fuel)
        assert outcome(evaluate, fresh(p), fuel) == expected
        if fuel == DEFAULT_FUEL:
            value, stats = expected
            d = stats.per_binder["d"]
            assert value == ("int", 401) and stats.steps > 1_001
            assert stats.per_binder["one"].entries == 1 and d.entries == d.allocations == 400
        else:
            assert expected == (OutOfFuel, f"exceeded {fuel} steps")

    def test_cli_out_of_fuel_names_the_callers_fuel(self, capsys):
        code = cli_main(["lift", str(PROGRAMS_DIR / "countdown.stg"), "--eval", "--fuel", "1001"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (1, "liftlab: error: exceeded 1001 steps\n")

    def test_tally_peak_memory(self):
        # Each pending iteration of tally's g holds its frame, a case
        # frame, an update frame and the thunk h.  Activations as dicts
        # keyed by name peaked at 14.9 MB here.
        text = (PROGRAMS_DIR / "tally.stg").read_text().replace("g 1000", "g 20000")
        p = load_inline(text)
        tracemalloc.start()
        try:
            value, _ = evaluate(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert render_value(value) == "20010"
        assert peak <= 7_500_000


# Over the generated programs of test_syntax (three names, so unbound
# names, shadowing and names bound twice are common), each as built and
# freshened, where freshen can rename it, and so again with the names no
# top-level definition binds defined as 0, which closes most of them.  On
# either side of the hand-over, evaluate refuses every program validate
# rejects, and on every other one the two engines and evaluate show the
# same.  The example is the shape on which the engines once disagreed: a
# let binder read in a case's default, out of its scope.
@_PROPERTY
@example(
    [],
    Case(
        Let(BindGroup((("a", Thunk(AtomExpr(Lit(1)))),)), AtomExpr(Lit(2))),
        (),
        ("b", AtomExpr(Var("a"))),
    ),
)
@given(_TOPS, _EXPRS)
def test_evaluate_refuses_invalid_programs_and_engines_agree(tops, main):
    defined = {tb.name for tb in tops}
    zeros = [TopBind(n, (), AtomExpr(Lit(0))) for n in "abc" if n not in defined]
    programs = []
    for raw in (Program(tuple(tops), main), Program((*zeros, *tops), main)):
        programs.append(raw)
        try:
            programs.append(freshen(raw))
        except ScopeError:
            pass
    for p in programs:
        violations = validate(p)
        for fuel in (999, 1_000, 1_001):
            if violations:
                with pytest.raises(ScopeError):
                    evaluate(fresh(p), fuel)
                continue
            expected = outcome(dict_engine, p, fuel)
            assert outcome(frames_engine, p, fuel) == expected
            assert outcome(evaluate, fresh(p), fuel) == expected


@pytest.mark.parametrize("engine", [dict_engine, frames_engine], ids=["dict", "frames"])
class TestFramelessCase:
    """A case whose scrutinee's int is already at hand pushes no frame.
    Each test pins the steps, entries, values and errors that one frame
    per case gives, on both engines (compiled frames read such a case as
    one node), each run on a program object of its own; an evaluated
    thunk is not at hand, and is forced through its frame."""

    def test_fuel_checked_before_the_primop(self, engine):
        # Two steps, the case's and its scrutinee's; the division runs only
        # once the second is paid for.
        src = "main = case %# 1 0 of { default d -> d }"
        assert outcome(engine, load_inline(src), 1) == (OutOfFuel, "exceeded 1 steps")
        assert outcome(engine, load_inline(src), 2) == (DivideByZero, "1 %# 0")

    def test_blackholed_thunk_still_detected(self, engine):
        p = load_inline("main = let t = thunk (case t of { default x -> x }) in t")
        with pytest.raises(BlackholeLoop):
            engine(p)

    @pytest.mark.parametrize(
        "src, value, steps",
        [
            (
                "main = let t = thunk (+# 1 2) in "
                "case t of { default a -> case t of { 3 -> 7; default b -> b } }",
                "7",
                8,
            ),
            (
                "main = let t = thunk (+# 1 2) in "
                "case t of { default a -> case +# t a of { default b -> b } }",
                "6",
                8,
            ),
            ("main = let t = thunk 5 in case t of { default a -> +# t t }", "10", 6),
        ],
        ids=["thunk-scrutinee", "thunk-in-primop-scrutinee", "thunk-primop-operands"],
    )
    def test_evaluated_thunk_steps_as_one_frame_per_case(self, src, value, steps, engine):
        v, stats = engine(load_inline(src))
        t = stats.per_binder["t"]
        assert (render_value(v), stats.steps, t.allocations, t.entries) == (value, steps, 1, 1)

    @pytest.mark.parametrize(
        "src, value, steps, entries",
        [
            ("f = 3;\nmain = case f of { 3 -> 1; default d -> 0 }", "1", 5, 1),
            (
                "f = 3;\nmain = case f of { 3 -> case f of { default e -> e }; default d -> 0 }",
                "3",
                9,
                2,
            ),
        ],
        ids=["once", "twice"],
    )
    def test_nullary_top_level_still_entered(self, src, value, steps, entries, engine):
        v, stats = engine(load_inline(src))
        f = stats.per_binder["f"]
        assert (render_value(v), stats.steps, f.entries) == (value, steps, entries)


# sha256 of every observable of evaluate, for each program of the
# acceptance corpus and then of programs/*.stg, before and after
# lift_program.  Computed with the recursive interpreter that preceded the
# explicit-stack one; a change here changes what the lab measures.
OBSERVABLE_DIGEST = "79b26cf224fefdffbf400520d4878354a7c4c7e59736f68cd571652aad570a19"

# Steps of each programs/*.stg before and after lift_program, so a change
# to step accounting names the program that moved.
STEPS = {
    "callweb": (106, 85),
    "countdown": (16504, 15504),
    "growth_balanced": (86, 78),
    "growth_multishot": (61, 61),
    "growth_shared": (17, 15),
    "known_call": (59, 59),
    "mutual": (57, 56),
    "one_shot": (21, 18),
    "scc_chain": (13, 10),
    "shared_thunk": (21, 20),
    "tally": (10013, 10013),
    "trivial": (1, 1),
    "wide_args": (28, 28),
}


def test_steps_pinned(hand_programs):
    steps = {
        name: tuple(evaluate(fresh(q))[1].steps for q in (p, lift_program(p)[0]))
        for name, p in hand_programs.items()
    }
    assert steps == STEPS


def test_fuel_is_exact(corpus, hand_programs):
    # A run given exactly the steps it took ends as it did unbounded; one
    # step fewer runs out of fuel, whatever error the next step would raise.
    # Each call gets a fresh object, so each is a run of its own.
    for p in [*hand_programs.values(), *corpus[:200]]:
        for q in (p, lift_program(p)[0]):
            value, s = evaluate(fresh(q))
            again, s2 = evaluate(fresh(q), fuel=s.steps)
            assert (value_key(again), s2) == (value_key(value), s)
            if s.steps > 1:
                with pytest.raises(OutOfFuel, match=f"^exceeded {s.steps - 1} steps$"):
                    evaluate(fresh(q), fuel=s.steps - 1)


def test_observable_output_pinned(corpus, hand_programs):
    h = hashlib.sha256()
    for p in [*corpus, *hand_programs.values()]:
        for q in (p, lift_program(p)[0]):
            value, s = evaluate(fresh(q))
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
        assert evaluate(fresh(p))[1].words_allocated - evaluate(fresh(p))[1].words_allocated == 0

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
                value, stats = evaluate(fresh(lifted))
                label = tuple("+".join(s) for s in sites if s in chosen)
                row = (label, stats.words_allocated, stats.closures_allocated, render_value(value))
                expected.append(row)
            rows = enumerate_lift_subsets(p)
            assert [(r.subset, r.words, r.closures, r.value) for r in rows] == expected
            checked += 1
        assert checked > 700

    def test_one_plan_per_call(self, monkeypatch):
        # One growth index for the first oracle call on a program object,
        # none for a second call on the same object.  Programs are loaded
        # afresh, so no plan memoised by another test is found.
        programs = {name: load_program(name) for name in ("growth_balanced", "callweb", "scc_chain")}
        calls = []
        real = lifter.growth_index

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(lifter, "growth_index", counting)
        for name, p in programs.items():
            calls.clear()
            rows = enumerate_lift_subsets(p)
            assert len(rows) >= 4 and len(calls) == 1, name
            calls.clear()
            assert enumerate_lift_subsets(p) == rows and calls == [], name


def test_programs_the_interpreter_sees_validate(corpus, hand_programs):
    # evaluate and the free variables it reads need globally unique
    # names, so every program the pipeline evaluates must validate:
    # each oracle subset, the output under each ablation and a second
    # lifting pass.
    ablations = [
        LiftConfig(check_closure_growth=False),
        LiftConfig(allow_unknown_calls=True),
        LiftConfig(max_arity_nonrec=1, max_arity_rec=1),
    ]
    checked = 0
    for p in [*corpus[:300], *hand_programs.values()]:
        plan = plan_lifts(p)
        sites = liftable_sites(plan.program)
        outputs = [apply_lifts(plan, cfg) for cfg in ablations]
        outputs.append(lift_program(lift_program(p)[0])[0])
        if len(sites) <= 4:  # enumerate_lift_subsets' default limit
            for k in range(1, len(sites) + 1):
                for chosen in combinations(sites, k):
                    outputs.append(apply_lifts(plan, force_sites=frozenset(chosen)))
        for q in outputs:
            # apply_lifts marks q clean and split, so evaluate walks
            # nothing; a new object is walked, and confirms the mark.
            assert _analyses(q)["scope"] == ([], [], None) and _analyses(q)["split"] is None
            copy = fresh(q)
            assert validate(copy) == [] and _analyses(copy)["split"] is None
        checked += len(outputs)
    assert checked > 1_400


def test_setup_folds_once_per_group_not_per_allocation(walks):
    # A freshly parsed program is walked once, by its first evaluate's
    # scope check, the only scan there is: that walk stores the scan the
    # stats rows are read from and the free variables every let's set-up
    # reads, so no let group is walked on its own.  One walk for 10 loop
    # iterations as for 1,000, nothing more on a second run of either
    # engine, and the same when main allocates nothing.  A lift output
    # carries its stored sets and the lifter's clean mark, so evaluating it
    # walks nothing.
    countdown = (PROGRAMS_DIR / "countdown.stg").read_text()
    for n in (10, 1_000):
        walks.clear()
        p = parse(countdown.replace("1000", str(n)))
        evaluate(p)
        assert walks == [id(p)]
        dict_engine(p)
        frames_engine(p)
        assert walks == [id(p)]
        lifted, _ = lift_program(p)
        assert lifted is not p
        evaluate(lifted)
        dict_engine(lifted)
        frames_engine(lifted)
        assert walks == [id(p)]
    walks.clear()
    p = parse("main = case 1 of { 1 -> 2; default x -> let g = \\ a -> x in g 1 }")
    evaluate(p)
    assert walks == [id(p)]


def test_charged_words_follow_closure_slots(corpus, hand_programs):
    # The interpreter charges each closure 1 + the reference's slot set for
    # its right-hand side, before lifting and after.
    checked = 0
    for p in [*corpus, *hand_programs.values()]:
        for q in (p, lift_program(p)[0]):
            stats = evaluate(q)[1].per_binder
            tops = q.top_names()
            for e in preorder(q):
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
