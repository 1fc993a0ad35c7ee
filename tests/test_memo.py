"""Per-program analyses are memoised on the program object they describe.

The scope walk, which also makes the scan (occurrence facts and names)
and the SCC split, the growth index and the interpreter's stats
rows are each built once per ``Program`` object by whichever public call
asks first, and read by every later call on it.
So are a completed run and the last lift output, which the oracle reads
for the empty subset and for the subset the lifter chose.  What else a
run sets up (each let's slots, compiled frames) is not kept: a program
runs again only after a run that raised.
The memo must not change a result, must not survive into a copy, and must
not keep its program alive.  The free variables of each
right-hand side are stored on the right-hand side itself, by the scope walk
or by the lift that rebuilt it, so a program that shares it with another,
as a lifted output shares what lifting keeps, reads them without a walk.
"""

import copy
import gc
import pickle
import random
import weakref
from collections import Counter

import pytest

from liftlab import analysis, cli, lifter, machine, syntax
from liftlab.analysis import split_groups
from liftlab.lifter import LiftConfig, lift_program, liftable_sites, plan_lifts
from liftlab.machine import DEFAULT_FUEL, OutOfFuel, enumerate_lift_subsets, evaluate
from liftlab.syntax import (
    Lambda,
    Let,
    Program,
    Thunk,
    _analyses,
    freshen,
    parse,
    print_program,
    validate,
)

import reference
from conftest import CORPUS_SEED, CORPUS_SIZE, PROGRAMS_DIR
from progen import ProgramGen

# programs/ files that split_groups returns unchanged, so the whole
# pipeline runs on one object: the scope walk behind freshen scans it, and
# split_groups, the lifter and the interpreter read that scan.
SHARED = ("countdown", "mutual", "one_shot", "tally")


def source(name: str) -> str:
    return (PROGRAMS_DIR / f"{name}.stg").read_text(encoding="utf-8")


def rhss_under(roots) -> list:
    """The right-hand sides under ``roots`` (each root that is one too), in
    pre-order."""
    rhss = [r for r in roots if type(r) in (Lambda, Thunk)]
    stack = [r.body if type(r) in (Lambda, Thunk) else r for r in reversed(roots)]
    while stack:
        e = stack.pop()
        if type(e) is Let:
            rhss += [rhs for _, rhs in e.group.binds]
        stack += reversed(reference.subexprs(e))
    return rhss


@pytest.fixture
def built(monkeypatch) -> Counter:
    """Counts each analysis build: each scope walk, the one scan, and each
    growth index, with the program it walks or indexes, replacing the
    analysis functions where their callers look them up."""
    counts: Counter = Counter()

    class CountingWalk(syntax._ScopeWalk):
        def __init__(self, p, split=True):
            counts["scope"] += 1
            counts[("scope", id(p))] += 1
            super().__init__(p, split)

    def indexing(p):
        counts["index"] += 1
        counts[("index", id(p))] += 1
        return real_index(p)

    real_index = lifter.growth_index
    monkeypatch.setattr(syntax, "_ScopeWalk", CountingWalk)
    monkeypatch.setattr(lifter, "growth_index", indexing)
    return counts


def pipeline(p: Program):
    """The benchmark's order on a parsed program: freshen, validate, split,
    lift, evaluate before and after, print, the liftable sites, the
    oracle.  Returns the program and what the calls returned, the lifted
    program first."""
    p = freshen(p)
    assert validate(p) == []
    assert split_groups(p) is p
    lifted, decisions = lift_program(p)
    runs = evaluate(p), evaluate(lifted)
    printed = print_program(lifted)
    sites = liftable_sites(p)
    rows = enumerate_lift_subsets(p)
    assert len(rows) == 2 ** len(sites)
    return p, (lifted, printed, decisions, runs, sites, rows)


@pytest.mark.parametrize("name", SHARED)
def test_harness_order_analyses_once(name, built, monkeypatch):
    # The program is walked once, by freshen, and that walk, the one scan,
    # stores the free variables of each of its own right-hand sides, once:
    # the sets it stored are the ones every later call reads.  The lifted
    # output and the oracle's subsets are new objects that share with p
    # the right-hand sides lifting kept and carry the sets the lift stored
    # on those it rebuilt, so no walk sees them, and evaluating them reads
    # only stored sets (free_vars raises for any other).
    real_freshen, stored = syntax.freshen, {}

    def freshening(q):
        assert built["scope"] == 0
        q = real_freshen(q)
        rhss = rhss_under([tb.body for tb in q.top_binds] + [q.main])
        stored.update((id(rhs), vars(rhs)["_free"]) for rhs in rhss)
        return q

    monkeypatch.setitem(globals(), "freshen", freshening)
    p, outputs = pipeline(parse(source(name)))
    # One walk and one growth index in all, and that of p itself.
    assert (built["scope"], built["index"]) == (1, 1)
    assert built[("index", id(p))] == 1
    rhss = rhss_under([tb.body for tb in p.top_binds] + [p.main])
    assert rhss and len(stored) == len(rhss)
    assert all(vars(rhs)["_free"] is stored[id(rhs)] for rhs in rhss)
    lifted = outputs[0]
    for rhs in rhss_under([tb.body for tb in lifted.top_binds] + [lifted.main]):
        assert vars(rhs)["_free"] == reference.free_vars(rhs)
    # The lifted output holds the clean mark its input handed on, with no scan.
    assert lifted is p or _analyses(lifted)["scope"].scan is None


def test_an_unplanned_lift_output_reads_the_sets_the_lift_stored(built):
    # Nobody planned or walked a lifted output.  Lifting f rebuilds go,
    # whose body defines inner, which calls f: the lift stores the free
    # variables of go's new right-hand side and of inner's, so evaluate
    # walks nothing, and neither does a second run of the same object, on
    # either engine (evaluate would return the stored run).
    p = split_groups(freshen(parse(source("one_shot"))))
    lifted, _ = lift_program(p, force_sites=frozenset({("f",)}))
    old = {id(rhs) for rhs in rhss_under([tb.body for tb in p.top_binds] + [p.main])}
    new = [rhs for rhs in rhss_under([lifted.main]) if id(rhs) not in old]
    assert len(new) == 2
    stored = [vars(rhs)["_free"] for rhs in new]
    assert stored == [reference.free_vars(rhs) for rhs in new]
    walks = built["scope"]
    first = evaluate(lifted)
    assert built["scope"] == walks
    for engine in (machine._Machine(lifted, DEFAULT_FUEL).run, lambda: machine._run_frames(lifted, DEFAULT_FUEL)):
        again = engine()
        assert again is not first and again[1] is not first[1]
        assert again[1] == first[1] and machine.value_key(again[0]) == machine.value_key(first[0])
        assert built["scope"] == walks
    assert all(vars(rhs)["_free"] is fvs for rhs, fvs in zip(new, stored))
    assert vars(lifted)["_analyses"]["scope"].scan is None


@pytest.mark.parametrize("name", SHARED + ("callweb", "scc_chain"))
def test_a_copy_analyses_afresh_and_agrees(name, built):
    p = split_groups(freshen(parse(source(name))))
    lifted, decisions = lift_program(p)
    expected = (print_program(lifted), decisions, evaluate(p))
    assert built["index"] == 1
    assert built[("index", id(p))] == 1
    for q in (copy.deepcopy(p), copy.copy(p), pickle.loads(pickle.dumps(p))):
        assert q is not p and q == p
        # Each is built from p's fields alone, with no memo of p's.
        assert "_analyses" not in vars(q)
        lifted, decisions = lift_program(q)
        assert (print_program(lifted), decisions, evaluate(q)) == expected
        assert built[("index", id(q))] == 1
    assert built["index"] == 4


def test_a_split_program_inherits_the_inputs_analyses(built):
    # The scope walk that freshens a program splits it, with no second
    # walk: the new program gets the input's own scan (occurrence facts and
    # names), each rebuilt right-hand side the free variables of the one it
    # replaces, and the input's clean scope walk, so it splits no further.
    # All of it, and the growth index read off it, is what a fresh analysis
    # of the same nodes (a shallow copy) finds, for the input too.
    rng = random.Random(CORPUS_SEED)
    texts = [source(name) for name in ("callweb", "growth_balanced", "scc_chain")]
    inputs = [parse(text) for text in texts] + [ProgramGen(rng).program() for _ in range(300)]
    checked = rebuilt = 0
    for raw in inputs:
        p = freshen(raw)
        walks = built["scope"]
        old = {id(rhs) for rhs in rhss_under([tb.body for tb in p.top_binds] + [p.main])}
        q = split_groups(p)
        # Only a renamed program, which freshen made, is walked to split.
        assert built["scope"] == walks + (p is not raw)
        if q is p:
            continue
        assert validate(Program(q.top_binds, q.main)) == []  # walked, not the mark
        walks = built["scope"]
        assert split_groups(q) is q and built["scope"] == walks
        rhss = rhss_under([tb.body for tb in q.top_binds] + [q.main])
        for rhs in rhss:
            assert vars(rhs)["_free"] == reference.free_vars(rhs)
        rebuilt += sum(id(rhs) not in old for rhs in rhss)
        assert analysis.scan_program(q) is analysis.scan_program(p)
        for r in (p, q):
            index = plan_lifts(r).index
            twin = copy.copy(r)
            inherited, table = analysis.scan_program(r), analysis.scan_program(twin)
            assert [id(e) for e in index.lets] == [id(e) for e in plan_lifts(twin).index.lets]
            assert index == plan_lifts(twin).index
            assert inherited == table
        checked += 1
    assert checked > 100 and rebuilt > 50, rebuilt


def test_a_split_program_shares_the_inputs_scan(walks, indexes):
    # Every acceptance-corpus program that splits: its split program holds
    # the input's very scan and stats rows, so loading and planning it
    # walks the input once, in freshen, and no more, and builds one growth
    # index, of the split program.  Its lift output holds the same rows but
    # no scan, until planning it walks it.
    rng = random.Random(CORPUS_SEED)
    split = lifted_outputs = 0
    for _ in range(CORPUS_SIZE):
        p = ProgramGen(rng).program()
        walks.clear()
        indexes.clear()
        assert freshen(p) is p
        q = split_groups(p)
        plan = plan_lifts(q)
        if q is p:
            continue
        split += 1
        scan = analysis.scan_program(p)
        assert analysis.scan_program(q) is scan and plan.scan is scan
        rows = syntax._scope(p).rows
        assert rows and syntax._scope(q).rows is rows
        assert walks == [id(p)] and indexes == [id(q)]
        lifted, _ = lift_program(q)
        if lifted is q:
            continue
        lifted_outputs += 1
        mark = _analyses(lifted)["scope"]
        assert mark.rows is rows and mark.scan is None and walks == [id(p)]
        plan_lifts(lifted)
        walked = _analyses(lifted)["scope"]
        assert walks == [id(p), id(lifted)]
        assert walked.scan is not None and walked.rows == rows
    assert split > 300 and lifted_outputs > 100, (split, lifted_outputs)


def test_split_groups_reads_the_walk_and_refuses_names_bound_twice(built):
    # A program whose walk renames has names that are not globally unique,
    # so free variables read off them would be wrong: split_groups says to
    # freshen it, and splits what freshen returns.  A program that splits
    # nothing is its own split.
    p = parse("main = let f = \\ a -> a and g = \\ b -> b in let f = \\ c -> c in f 1")
    with pytest.raises(ValueError, match="freshen"):
        split_groups(p)
    # So do scan_program, which the lifter plans from, and so the lifter,
    # reading the stored walk without walking again.
    walks = built["scope"]
    for call in (analysis.scan_program, plan_lifts, lift_program):
        with pytest.raises(ValueError, match="freshen"):
            call(p)
    assert built["scope"] == walks
    q = freshen(p)
    # The walk that renamed made no split, so freshen's output keeps the
    # group as written.
    assert q is not p and q.main.group.binders() == ("f", "g")
    split = split_groups(q)
    assert [e.group.binders() for e in reference.preorder(split) if type(e) is Let] == [
        ("f",),
        ("g",),
        ("f_1",),
    ]
    for name in SHARED:
        p = freshen(parse(source(name)))
        assert split_groups(p) is p and _analyses(p)["scope"].split is None


def test_a_lifted_program_inherits_the_inputs_analyses():
    # apply_lifts gives its result the input's stats rows (through its
    # clean mark, the input's being clean and split), and returns the
    # input itself when it lifts nothing: the same as a fresh analysis of
    # the result (a shallow copy), for its default lifts and for each site
    # the oracle forces alone.
    rng = random.Random(CORPUS_SEED)
    inputs = [split_groups(freshen(parse(source(f.stem)))) for f in sorted(PROGRAMS_DIR.glob("*.stg"))]
    inputs += [split_groups(freshen(ProgramGen(rng).program())) for _ in range(200)]
    seen = Counter()
    for p in inputs:
        plan = plan_lifts(p)
        outputs = [lifter.apply_lifts(plan)]
        outputs += [
            lifter.apply_lifts(plan, force_sites=frozenset([s])) for s in liftable_sites(p)
        ]
        for q in outputs:
            fresh = copy.copy(q)
            assert syntax._scope(q).rows == syntax._scope(fresh).rows
            if "plan" in vars(q)["_analyses"]:
                seen["nothing lifted"] += 1
                assert analysis.scan_program(q) == analysis.scan_program(fresh)
                assert evaluate(q) == evaluate(fresh)
            else:
                seen["lifted"] += 1
    assert seen["nothing lifted"] > 50 and seen["lifted"] > 50, seen


def test_lifting_keeps_each_right_hand_side_it_does_not_change(built):
    # Lifting, by default and with each site the oracle forces alone,
    # keeps every right-hand side whose body it does not change as the
    # input's own object, with the free variables stored on it, and stores
    # them on each right-hand side it makes; so evaluating the output walks
    # nothing and reads only stored sets.
    rng = random.Random(CORPUS_SEED)
    inputs = [split_groups(freshen(parse(source(f.stem)))) for f in sorted(PROGRAMS_DIR.glob("*.stg"))]
    inputs += [split_groups(freshen(ProgramGen(rng).program())) for _ in range(200)]
    seen = Counter()
    for p in inputs:
        plan = plan_lifts(p)
        own = rhss_under([tb.body for tb in p.top_binds] + [p.main])
        by_body: dict[int, list] = {}
        for rhs in own:
            by_body.setdefault(id(rhs.body), []).append(rhs)
        outputs = [lifter.apply_lifts(plan)]
        outputs += [
            lifter.apply_lifts(plan, force_sites=frozenset([s])) for s in liftable_sites(p)
        ]
        for q in outputs:
            rhss = rhss_under([tb.body for tb in q.top_binds] + [q.main])
            for rhs in rhss:
                kept = by_body.get(id(rhs.body), [])
                assert not kept or any(rhs is k for k in kept)
                seen["kept" if kept else "made"] += 1
            stored = [vars(rhs)["_free"] for rhs in rhss]
            walks = built["scope"]
            evaluate(q)
            assert built["scope"] == walks
            assert all(vars(rhs)["_free"] is fvs for rhs, fvs in zip(rhss, stored))
            seen["evaluated"] += q is not p
    assert seen["kept"] > 1_000 and seen["made"] > 50 and seen["evaluated"] > 50, seen


@pytest.mark.parametrize("name", SHARED)
def test_equality_hash_repr_unchanged(name):
    p, twin = parse(source(name)), parse(source(name))
    before = (repr(p), hash(p))
    assert pipeline(p)[0] is p
    assert "_analyses" in vars(p) and "_analyses" not in vars(twin)
    assert p == twin and twin == p
    assert (repr(p), hash(p)) == before == (repr(twin), hash(twin))


@pytest.mark.parametrize("name", SHARED)
def test_memo_does_not_keep_its_program_alive(name):
    # The program was lifted, both sides evaluated and the oracle run, so
    # it holds its run and its lift output, which holds its own run; with
    # the collector off, only reference counts free them.  tally keeps
    # every group, so its output is the program itself and is not stored.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        p, outputs = pipeline(parse(source(name)))
        lifted = outputs[0]
        assert (lifted is p) == (name == "tally")
        if lifted is p:
            assert "lifted" not in _analyses(p)
        else:
            assert _analyses(p)["lifted"][1] is lifted
        assert "run" in _analyses(p) and "run" in _analyses(lifted)
        refs = [weakref.ref(p), weakref.ref(lifted)]
        del p, lifted, outputs
        assert [ref() for ref in refs] == [None, None]
    finally:
        if was_enabled:
            gc.enable()


def test_a_copy_keeps_nothing_of_the_original_alive():
    # A copy is built from the original's fields, not its memo: once the
    # original is dropped, its lift output and runs are freed, though a
    # shallow copy still shares every node.  No copy, deep copy or pickle
    # of an analysed program carries a memo.
    p = split_groups(freshen(parse(source("growth_balanced"))))
    lifted, decisions = lift_program(p)
    assert lifted is not p and any(d.lifted for d in decisions)
    evaluate(p)
    evaluate(lifted)
    assert _analyses(p)["lifted"][1] is lifted
    twin = copy.copy(p)
    assert twin == p and twin.main is p.main
    ref = weakref.ref(lifted)
    del p, lifted
    gc.collect()
    assert ref() is None
    assert "_analyses" not in vars(twin)
    lift_program(twin)
    evaluate(twin)
    assert "lifted" in _analyses(twin) and "run" in _analyses(twin)
    for q in (copy.copy(twin), copy.deepcopy(twin), pickle.loads(pickle.dumps(twin))):
        assert q == twin and "_analyses" not in vars(q)


def corpus_inputs() -> list[Program]:
    """programs/ and 200 corpus programs, freshened and split."""
    rng = random.Random(CORPUS_SEED)
    texts = [source(f.stem) for f in sorted(PROGRAMS_DIR.glob("*.stg"))]
    inputs = [parse(text) for text in texts] + [ProgramGen(rng).program() for _ in range(200)]
    return [split_groups(freshen(p)) for p in inputs]


def test_harness_order_runs_each_program_once(engine_runs, monkeypatch):
    # In the benchmark's order, an engine runs once for the program, once
    # for its lift output unless that is the program itself (nothing was
    # lifted), and once per oracle subset other than the empty one, which
    # reads the program's run, and the lifter's own, which is the lift
    # output and reads its run.
    applied, evaluated = [], []
    real_apply, real_evaluate = machine.apply_lifts, machine.evaluate

    def applying(plan, *args, **kwargs):
        q = real_apply(plan, *args, **kwargs)
        applied.append((kwargs["force_sites"], q))
        return q

    def evaluating(q, *args):
        evaluated.append(q)
        return real_evaluate(q, *args)

    monkeypatch.setattr(machine, "apply_lifts", applying)
    monkeypatch.setattr(machine, "evaluate", evaluating)
    seen = Counter()
    for p in corpus_inputs():
        lifted, decisions = lift_program(p)
        chosen = frozenset(d.binders for d in decisions if d.lifted)
        engine_runs.clear()
        evaluate(p)
        evaluate(lifted)
        assert engine_runs[id(p)] == engine_runs[id(lifted)] == 1
        assert sum(engine_runs.values()) == 1 + bool(chosen)
        seen["lifted" if chosen else "kept every group"] += 1
        print_program(lifted)
        sites = liftable_sites(p)
        if len(sites) > 4:
            continue
        engine_runs.clear()
        applied.clear()
        evaluated.clear()
        rows = enumerate_lift_subsets(p)
        subsets = [
            frozenset(s for i, s in enumerate(sites) if mask & (1 << i))
            for mask in range(2 ** len(sites))
        ]
        assert len(evaluated) == len(rows) == len(subsets)
        assert [force for force, _ in applied] == [s for s in subsets[1:] if s != chosen]
        made = dict(applied)
        assert evaluated[0] is p and engine_runs[id(p)] == 0
        for subset, q in zip(subsets[1:], evaluated[1:]):
            if subset == chosen:
                assert q is lifted and engine_runs[id(q)] == 0
                seen["chosen subset reused"] += 1
            else:
                assert q is made[subset] and engine_runs[id(q)] == 1
        assert sum(engine_runs.values()) == len(rows) - 1 - bool(chosen)
        seen["checked"] += 1
    assert seen["checked"] > 100 and seen["chosen subset reused"] > 20, seen
    assert seen["lifted"] > 50 and seen["kept every group"] > 50, seen


@pytest.mark.parametrize("name, runs", [("tally", 1), ("countdown", 2)])
def test_lift_eval_runs_an_engine_once_per_distinct_program(name, runs, engine_runs, capsys):
    # tally keeps every group, so its lift output is the program and the
    # second evaluate reads the first run; countdown lifts g.
    assert cli.main(["lift", str(PROGRAMS_DIR / f"{name}.stg"), "--eval"]) == 0
    capsys.readouterr()
    assert sum(engine_runs.values()) == runs and len(engine_runs) == runs


def test_forced_apply_of_the_chosen_groups_is_the_lift_output():
    # The oracle reads lift_program's output for the groups it lifted; a
    # forced apply of those groups to a fresh object of the same program,
    # with no memo to read, prints the same program and runs the same.
    checked = 0
    for p in corpus_inputs():
        lifted, decisions = lift_program(p)
        chosen = frozenset(d.binders for d in decisions if d.lifted)
        if not chosen:
            continue
        twin = Program(p.top_binds, p.main)
        forced = lifter.apply_lifts(plan_lifts(twin), force_sites=chosen)
        assert forced is not lifted and "lifted" not in _analyses(twin)
        assert print_program(forced) == print_program(lifted)
        fresh = Program(lifted.top_binds, lifted.main)
        (v0, s0), (v1, s1) = evaluate(forced), evaluate(fresh)
        assert s0 == s1 and machine.value_key(v0) == machine.value_key(v1)
        checked += 1
    assert checked > 30, checked


def test_a_stored_run_is_returned_and_bounds_the_fuel(engine_runs):
    # countdown runs 16,504 steps, on compiled frames.  Less fuel raises
    # what a fresh run raises, without running; enough returns the run.
    p = split_groups(freshen(parse(source("countdown"))))
    run = evaluate(p)
    assert run[1].steps == 16_504 and engine_runs[id(p)] == 1
    for fuel in (1, 999, 1_000, 1_001, 16_503):
        with pytest.raises(OutOfFuel) as stored:
            evaluate(p, fuel)
        with pytest.raises(OutOfFuel) as ran:
            evaluate(Program(p.top_binds, p.main), fuel)
        assert str(stored.value) == str(ran.value) == f"exceeded {fuel} steps"
    for fuel in (16_504, 10**9):
        assert evaluate(p, fuel) is run
    with pytest.raises(ValueError):
        evaluate(p, 0)
    assert engine_runs[id(p)] == 1


@pytest.mark.parametrize(
    "text, fuel, error",
    [
        ("main = let t = thunk t in t", 1_000_000, machine.BlackholeLoop),
        ("main = let w = \\ x -> w x in w 1", 5_000, OutOfFuel),
    ],
    ids=["blackhole", "out-of-fuel"],
)
def test_errors_are_not_memoised(text, fuel, error, engine_runs):
    p = split_groups(freshen(parse(text)))
    for n in (1, 2):
        with pytest.raises(error):
            evaluate(p, fuel)
        assert engine_runs[id(p)] == n
        assert "run" not in _analyses(p)


def test_a_run_that_ran_out_is_not_stored_and_a_later_one_is(engine_runs):
    p = split_groups(freshen(parse(source("tally"))))
    with pytest.raises(OutOfFuel):
        evaluate(p, 2_000)
    assert "run" not in _analyses(p)
    run = evaluate(p)
    assert evaluate(p) is run and engine_runs[id(p)] == 2


def test_shared_stats_reject_assignment():
    p = split_groups(freshen(parse(source("growth_balanced"))))
    value, stats = evaluate(p)
    expected = (stats.words_allocated, stats.steps, dict(stats.per_binder))
    name = next(iter(stats.per_binder))
    with pytest.raises(AttributeError):
        stats.words_allocated = 0
    with pytest.raises(AttributeError):
        stats.per_binder = {}
    rows = stats.per_binder
    for change in (
        lambda: rows.__setitem__(name, rows[name]),
        lambda: rows.__delitem__(name),
        lambda: rows.__ior__({}),
        rows.clear,
        lambda: rows.pop(name),
        rows.popitem,
        lambda: rows.setdefault("x", None),
        lambda: rows.update({}),
    ):
        with pytest.raises(TypeError):
            change()
    again = evaluate(p)
    assert again[1] is stats
    assert (stats.words_allocated, stats.steps, dict(stats.per_binder)) == expected
    # Still a dict to read, to print and to copy.
    assert isinstance(rows, dict) and repr(rows) == repr(expected[2])
    for copied in (pickle.loads(pickle.dumps(stats)), copy.deepcopy(stats)):
        assert copied == stats and type(copied.per_binder) is type(rows)


def test_lift_program_stores_its_last_output_and_the_oracle_only_reads_it(engine_runs):
    p = split_groups(freshen(parse(source("growth_balanced"))))
    lifted, decisions = lift_program(p)
    key = frozenset(d.binders for d in decisions if d.lifted)
    assert key and _analyses(p)["lifted"] == (key, lifted)
    sites = liftable_sites(p)
    subsets = [
        frozenset(s for i, s in enumerate(sites) if mask & (1 << i))
        for mask in range(2 ** len(sites))
    ]
    assert key in subsets and len(subsets) >= 4
    # A forced apply of the stored groups is a new object; the oracle reads
    # the stored output and leaves the memo as it was.
    assert lifter.apply_lifts(plan_lifts(p), force_sites=key) is not lifted
    enumerate_lift_subsets(p)
    assert _analyses(p)["lifted"] == (key, lifted)
    assert engine_runs[id(lifted)] == 1
    # Every later lift is new and takes the stored place, so a force set
    # that differs from the stored key misses: the oracle then runs the
    # subset the first lift chose, and reads the new output instead.
    other = next(s for s in subsets[1:] if s != key)
    again, ds = lift_program(p, force_sites=other)
    assert again is not lifted
    assert {d.binders for d in ds if d.lifted} == other
    assert _analyses(p)["lifted"] == (other, again)
    evaluate(again)
    engine_runs.clear()
    rows = enumerate_lift_subsets(p)
    # The first oracle stored p's run, and evaluate stored again's.
    assert engine_runs[id(p)] == engine_runs[id(again)] == engine_runs[id(lifted)] == 0
    assert sum(engine_runs.values()) == len(rows) - 2
    assert lift_program(p)[0] is not lifted
    # A lift of nothing returns p itself and drops the stored output, so
    # the entry describes the last lift; the oracle's rows stay the same.
    nothing, ds = lift_program(p, force_sites=frozenset())
    assert nothing is p and ds and not any(d.lifted for d in ds)
    assert "lifted" not in _analyses(p)
    assert enumerate_lift_subsets(p) == rows
    assert "lifted" not in _analyses(p)


def test_a_lift_of_nothing_after_a_lift_frees_the_program_and_its_outputs():
    # countdown lifts g by default; with arity limits of 1, g stays (C3)
    # and nothing is lifted.  With the collector off, only reference
    # counts free the program and both outputs.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        p = split_groups(freshen(parse(source("countdown"))))
        first, _ = lift_program(p)
        assert first is not p and _analyses(p)["lifted"][1] is first
        evaluate(p)
        evaluate(first)
        kept, ds = lift_program(p, LiftConfig(max_arity_nonrec=1, max_arity_rec=1))
        assert kept is p and "lifted" not in _analyses(p)
        assert [d.criterion for d in ds if d.binders == ("g",)] == ["C3"]
        assert evaluate(kept) is evaluate(p)
        refs = [weakref.ref(p), weakref.ref(first)]
        del p, first, kept
        assert [ref() for ref in refs] == [None, None]
    finally:
        if was_enabled:
            gc.enable()
