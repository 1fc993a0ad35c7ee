"""Per-program analyses are memoised on the program object they describe.

The scope walk, the scan (nodes, occurrence facts and names), the
skeleton table and the interpreter's set-up (with its compiled frames, for
runs past 1,000 steps) are each built once per ``Program`` object by
whichever public call asks first, and read by every later call on it.
The memo must not change a result, must not survive into a copy, and must
not keep its program alive.  The free variables of each
right-hand side are stored on the right-hand side itself, so a program that
shares it with another, as a lifted output shares what lifting keeps, reads
them without a scan.
"""

import copy
import gc
import pickle
import random
import weakref
from collections import Counter

import pytest

from liftlab import analysis, lifter, syntax
from liftlab.analysis import split_groups
from liftlab.lifter import lift_program, liftable_sites, plan_lifts
from liftlab.machine import enumerate_lift_subsets, evaluate
from liftlab.syntax import Lambda, Let, Program, Thunk, freshen, parse, print_program, validate

import reference
from conftest import CORPUS_SEED, PROGRAMS_DIR
from progen import ProgramGen

# programs/ files that split_groups returns unchanged, so the whole
# pipeline runs on one object: split_groups scans it, and the lifter and
# the interpreter read that scan.
SHARED = ("countdown", "mutual", "one_shot", "tally")


def source(name: str) -> str:
    return (PROGRAMS_DIR / f"{name}.stg").read_text(encoding="utf-8")


def rhss_under(roots) -> list:
    """The right-hand sides under ``roots`` (each root that is one too)."""
    rhss = [r for r in roots if type(r) in (Lambda, Thunk)]
    nodes = syntax.walk(*[r.body if type(r) in (Lambda, Thunk) else r for r in roots])
    return rhss + [rhs for e in nodes if type(e) is Let for _, rhs in e.group.binds]


@pytest.fixture
def built(monkeypatch) -> Counter:
    """Counts each analysis build: each scan, each root it starts from and
    each right-hand side it covers, replacing the analysis functions where
    their callers look them up."""
    counts: Counter = Counter()

    class CountingWalk(syntax._ScopeWalk):
        def __init__(self, p):
            counts["scope"] += 1
            super().__init__(p)

    def counting(key, real):
        def build(*args):
            counts[key] += 1
            return real(*args)

        return build

    def scanning(roots):
        counts["scan"] += 1
        counts.update(("root", id(r)) for r in roots)
        counts.update(("scanned", id(rhs)) for rhs in rhss_under(roots))
        return real_scan(roots)

    real_scan = analysis.scan
    monkeypatch.setattr(syntax, "_ScopeWalk", CountingWalk)
    monkeypatch.setattr(lifter, "skeleton_table", counting("skeletons", lifter.skeleton_table))
    monkeypatch.setattr(analysis, "scan", scanning)
    return counts


def pipeline(p: Program):
    """The benchmark's order on a parsed program: freshen, validate, split,
    lift, evaluate twice, the liftable sites, the oracle.  Returns the
    program and what the calls returned."""
    p = freshen(p)
    assert validate(p) == []
    assert split_groups(p) is p
    lifted, decisions = lift_program(p)
    first = evaluate(p)
    assert evaluate(p) == first
    sites = liftable_sites(p)
    rows = enumerate_lift_subsets(p)
    assert len(rows) == 2 ** len(sites)
    return p, (print_program(lifted), decisions, first, sites, rows)


@pytest.mark.parametrize("name", SHARED)
def test_harness_order_analyses_once(name, built):
    p, _ = pipeline(parse(source(name)))
    assert (built["scope"], built["skeletons"]) == (1, 1)
    # The program is scanned once, whole, in split_groups, which covers
    # each of its own right-hand sides once, and evaluate reads what that
    # scan stored.  Every other scan is the oracle's: its subset programs
    # are new objects that share with p the right-hand sides lifting kept,
    # and scan one right-hand side the lift rebuilt when its let first runs.
    roots = [tb.body for tb in p.top_binds] + [p.main]
    assert [built[("root", id(r))] for r in roots] == [1] * len(roots)
    rhss = rhss_under(roots)
    assert rhss and all(built[("scanned", id(rhs))] == 1 for rhs in rhss)
    starts = [n for k, n in built.items() if type(k) is tuple and k[0] == "root"]
    assert sum(starts) == len(roots) + built["scan"] - 1
    assert not any(built[("root", id(rhs))] for rhs in rhss)


def test_unplanned_program_folds_lazily_and_keeps_it(built):
    # Nobody planned or scanned a lifted output.  Lifting f rebuilds go,
    # whose body defines inner, which calls f: the first evaluate scans
    # go's new right-hand side, once, when its let runs, and that covers
    # inner's; a second evaluate of the same object scans nothing.
    p = split_groups(freshen(parse(source("one_shot"))))
    lifted, _ = lift_program(p, force_sites=frozenset({("f",)}))
    old = {id(rhs) for rhs in rhss_under([tb.body for tb in p.top_binds] + [p.main])}
    new = [rhs for rhs in rhss_under([lifted.main]) if id(rhs) not in old]
    assert len(new) == 2
    scans = built["scan"]
    evaluate(lifted)
    assert built["scan"] == scans + 1
    assert built[("root", id(new[0]))] == 1
    assert [built[("scanned", id(rhs))] for rhs in new] == [1, 1]
    evaluate(lifted)
    assert built["scan"] == scans + 1
    assert "scan" not in vars(lifted)["_analyses"]


@pytest.mark.parametrize("name", SHARED + ("callweb", "scc_chain"))
def test_a_copy_analyses_afresh_and_agrees(name, built):
    p = split_groups(freshen(parse(source(name))))
    lifted, decisions = lift_program(p)
    expected = (print_program(lifted), decisions, evaluate(p))
    assert built["skeletons"] == 1
    for q in (copy.deepcopy(p), copy.copy(p), pickle.loads(pickle.dumps(p))):
        assert q is not p and q == p
        # A deep copy or a pickle leaves tables keyed by p's nodes behind;
        # a shallow copy shares p's memo, which p's id marks as not q's.
        assert not vars(q)["_analyses"] or vars(q)["_analyses"] is vars(p)["_analyses"]
        lifted, decisions = lift_program(q)
        assert (print_program(lifted), decisions, evaluate(q)) == expected
    assert built["skeletons"] == 4


def test_a_split_program_inherits_the_inputs_analyses():
    # split_groups's new program gets the input's occurrence facts and
    # names, and each rebuilt right-hand side its free variables: the same
    # as a fresh analysis of the same nodes (a shallow copy).
    rng = random.Random(CORPUS_SEED)
    texts = [source(name) for name in ("callweb", "growth_balanced", "scc_chain")]
    inputs = [freshen(parse(text)) for text in texts]
    inputs += [freshen(ProgramGen(rng).program()) for _ in range(300)]
    checked = rebuilt = 0
    for p in inputs:
        old = {id(rhs) for rhs in rhss_under([tb.body for tb in p.top_binds] + [p.main])}
        q = split_groups(p)
        if q is p:
            continue
        rhss = rhss_under([tb.body for tb in q.top_binds] + [q.main])
        for rhs in rhss:
            assert vars(rhs)["_free"] == reference.free_vars(rhs)
        rebuilt += sum(id(rhs) not in old for rhs in rhss)
        fresh = copy.copy(q)
        inherited, table = analysis.scan_program(q), analysis.scan_program(fresh)
        assert [id(e) for e in inherited.nodes] == [id(e) for e in table.nodes]
        assert inherited == table
        checked += 1
    assert checked > 100 and rebuilt > 50, rebuilt


def test_a_lifted_program_inherits_the_inputs_analyses():
    # apply_lifts gives its result the input's stats rows, and all of the
    # input's analyses when it lifts nothing: the same as a fresh analysis
    # of the result (a shallow copy), for its default lifts and for each
    # site the oracle forces alone.
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
            assert analysis._binder_names(q) == analysis._binder_names(fresh)
            if "plan" in vars(q)["_analyses"]:
                seen["nothing lifted"] += 1
                assert analysis.scan_program(q) == analysis.scan_program(fresh)
                assert evaluate(q) == evaluate(fresh)
            else:
                seen["lifted"] += 1
    assert seen["nothing lifted"] > 50 and seen["lifted"] > 50, seen


def test_lifting_keeps_each_right_hand_side_it_does_not_change(monkeypatch):
    # Lifting, by default and with each site the oracle forces alone,
    # keeps every right-hand side whose body it does not change as the
    # input's own object, with the free variables stored on it; so
    # evaluating the output scans only right-hand sides the lift made.
    rng = random.Random(CORPUS_SEED)
    inputs = [split_groups(freshen(parse(source(f.stem)))) for f in sorted(PROGRAMS_DIR.glob("*.stg"))]
    inputs += [split_groups(freshen(ProgramGen(rng).program())) for _ in range(200)]
    scans = []
    real_scan = analysis.scan

    def counting(roots):
        scans.append(roots)
        return real_scan(roots)

    monkeypatch.setattr(analysis, "scan", counting)
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
            for rhs in rhss_under([tb.body for tb in q.top_binds] + [q.main]):
                kept = by_body.get(id(rhs.body), [])
                assert not kept or any(rhs is k for k in kept)
                seen["kept" if kept else "made"] += 1
            scans.clear()
            evaluate(q)
            own_ids = {id(rhs) for rhs in own}
            for roots in scans:
                assert len(roots) == 1 and type(roots[0]) in (Lambda, Thunk)
                assert id(roots[0]) not in own_ids
            seen["scans"] += len(scans)
    assert seen["kept"] > 1_000 and seen["made"] > 50 and seen["scans"] > 50, seen


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
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        p, outputs = pipeline(parse(source(name)))
        ref = weakref.ref(p)
        del p
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()
