"""Per-program analyses are memoised on the program object they describe.

The scope walk, the scan (nodes, occurrence facts, names and free
variables), the skeleton table and the interpreter's set-up are each built
once per ``Program`` object by
whichever public call asks first, and read by every later call on it.  The
memo must not change a result, must not survive into a copy, and must not
keep its program alive.
"""

import copy
import gc
import pickle
import random
import weakref
from collections import Counter

import pytest

from liftlab import analysis, lifter, machine, skeleton, syntax
from liftlab.analysis import split_groups
from liftlab.lifter import lift_program, liftable_sites, plan_lifts
from liftlab.machine import enumerate_lift_subsets, evaluate
from liftlab.syntax import Let, Program, freshen, parse, print_program, validate

from conftest import CORPUS_SEED, PROGRAMS_DIR
from progen import ProgramGen

# programs/ files that split_groups returns unchanged, so the whole
# pipeline runs on one object: split_groups scans it, and the lifter and
# the interpreter read that scan.
SHARED = ("countdown", "mutual", "one_shot", "tally")


def source(name: str) -> str:
    return (PROGRAMS_DIR / f"{name}.stg").read_text(encoding="utf-8")


@pytest.fixture
def built(monkeypatch) -> Counter:
    """Counts each analysis build: each scan of whole roots and each
    right-hand side it covers, and each fold the interpreter makes and each
    right-hand side folded, replacing the analysis functions where their
    callers look them up."""
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

    def scanning(key, item):
        def build(roots):
            s = real_scan(roots)
            counts[key] += 1
            counts.update((item, i) for i in s.free)
            return s

        return build

    real_scan = analysis.scan
    monkeypatch.setattr(syntax, "_ScopeWalk", CountingWalk)
    monkeypatch.setattr(lifter, "skeleton_table", counting("skeletons", lifter.skeleton_table))
    monkeypatch.setattr(analysis, "scan", scanning("scan", "scanned"))
    monkeypatch.setattr(skeleton, "scan_roots", scanning("scan", "scanned"))
    monkeypatch.setattr(machine, "scan", scanning("folds", "folded"))
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
    assert (built["scope"], built["scan"], built["skeletons"]) == (1, 1, 1)
    # The program's own right-hand sides are covered by that one scan, in
    # split_groups, and evaluate reads its table.  (The oracle's subset
    # programs are new objects that share some right-hand sides with p, and
    # fold what they run.)
    rhss = [rhs for e in plan_lifts(p).scan.nodes if type(e) is Let for _, rhs in e.group.binds]
    assert rhss and all(built[("scanned", id(rhs))] == 1 for rhs in rhss)
    assert not any(built[("folded", id(rhs))] for rhs in rhss)


def test_unplanned_program_folds_lazily_and_keeps_it(built):
    # Nobody planned or scanned a lifted output: each outermost group that
    # runs is folded, once, and a second evaluate of the same object folds nothing.
    lifted, _ = lift_program(split_groups(freshen(parse(source("one_shot")))))
    assert any(type(e) is Let for e in syntax.program_nodes(lifted))
    scans = built["scan"]
    evaluate(lifted)
    folds = built["folds"]
    folded = [n for k, n in built.items() if type(k) is tuple and k[0] == "folded"]
    assert folds >= 1 and folded and all(n == 1 for n in folded)
    evaluate(lifted)
    assert built["folds"] == folds and built["scan"] == scans
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
    checked = 0
    for p in inputs:
        q = split_groups(p)
        if q is p:
            continue
        fresh = copy.copy(q)
        inherited, table = analysis.scan_program(q), analysis.scan_program(fresh)
        assert [id(e) for e in inherited.nodes] == [id(e) for e in table.nodes]
        assert inherited == table
        checked += 1
    assert checked > 100


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
        outputs += [lifter.apply_lifts(plan, force_sites=frozenset([s])) for s in plan.sites()]
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
