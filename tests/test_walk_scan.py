"""The one scan against :mod:`reference`.

The scope walk behind ``freshen`` and ``validate`` is the only code that
finds a program's occurrence facts, names and free variables; the lifter
rebuilds the free variables of only the right-hand sides it changes, from
their new children.  Both are checked against the plain recursions of
``reference``, written apart from them: the walk's scan holds the same
occurrence facts and names, the growth index read off the program
numbers the same nodes (the same objects, in the same order), and every
right-hand side carries the free variables the reference finds, on each
input, its split program, every lift output, every oracle subset and a
second lift of each lift output.  No lift output or oracle subset is
walked while it is lifted, evaluated or measured.
"""

import random

import pytest

from liftlab import machine, syntax
from liftlab.analysis import scan_program, split_groups
from liftlab.lifter import apply_lifts, lift_program, liftable_sites, plan_lifts
from liftlab.machine import enumerate_lift_subsets
from liftlab.syntax import (
    Case,
    Let,
    ParseError,
    Program,
    ScopeError,
    freshen,
    parse,
    print_program,
)

import reference
from conftest import (
    CORPUS_SEED,
    CORPUS_SIZE,
    PROGRAMS_DIR,
    load_inline,
    nested_family_texts,
    renamings,
)
from progen import ProgramGen


def check_free(p: Program) -> int:
    """Every right-hand side of ``p`` carries the reference's free
    variables; returns how many there are."""
    rhss = [rhs for e in reference.preorder(p) if type(e) is Let for _, rhs in e.group.binds]
    for rhs in rhss:
        assert vars(rhs)["_free"] == reference.free_vars(rhs)
    return len(rhss)


def check_scan(p: Program) -> None:
    """The scan of ``p``, its own walk's or one it inherited, against the
    reference: occurrence facts, names and free variables; and the nodes
    its plan's index numbers: each let in order, and each let's and case's
    first place."""
    s = scan_program(p)
    index = plan_lifts(p).index
    nodes = reference.preorder(p)
    assert [id(e) for e in index.lets] == [id(e) for e in nodes if type(e) is Let]
    first: dict[int, int] = {}
    for i, e in enumerate(nodes):
        if type(e) is Let or type(e) is Case:
            first.setdefault(id(e), i)
    assert {k: span[0] for k, span in index.spans.items()} == first
    assert {name: tuple(f) for name, f in s.facts.items()} == reference.occurrence_facts(p)
    assert s.names == set(reference.bound_names(p))
    check_free(p)


def fresh_object(p: Program) -> Program:
    """The same nodes in a new program object, which no walk has seen."""
    return Program(p.top_binds, p.main)


@pytest.fixture
def applied(monkeypatch) -> list[Program]:
    """The programs the oracle's calls to ``apply_lifts`` return, in order."""
    outputs = []
    real_apply = machine.apply_lifts

    def applying(plan, *args, **kwargs):
        outputs.append(real_apply(plan, *args, **kwargs))
        return outputs[-1]

    monkeypatch.setattr(machine, "apply_lifts", applying)
    return outputs


def check_lifts(p: Program, walks: list[int], applied: list[Program], measure: bool) -> int:
    """Lift ``p`` (walked and split), make the oracle's subsets of it, and
    lift the lift output again: each output's right-hand sides carry the
    reference's free variables before anything walks it, and nothing walks
    an output while it is lifted, or, with ``measure``, evaluated and
    measured by the oracle itself.  Returns how many right-hand sides were
    checked."""
    applied.clear()
    before = list(walks)
    lifted = lift_program(p)[0]
    if measure:
        machine.evaluate(lifted)
        try:
            enumerate_lift_subsets(p)
        except machine.SubsetTooLarge:
            pass
    else:
        plan, sites = plan_lifts(p), liftable_sites(p)
        if len(sites) <= 4:
            for mask in range(1, 2 ** len(sites)):
                chosen = frozenset(s for i, s in enumerate(sites) if mask & (1 << i))
                applied.append(apply_lifts(plan, force_sites=chosen))
    assert walks == before
    checked = sum(check_free(q) for q in [lifted, *applied])
    # A second lift plans the first output, which walks it, since its
    # clean mark holds no scan; the second output is not walked.
    again = lift_program(lifted)[0]
    assert walks == before + [id(lifted)] * (lifted is not p)
    check_scan(lifted)
    checked += check_free(again)
    check_scan(fresh_object(again))
    return checked


def test_walk_agrees_with_reference_on_corpus_programs_and_lift_outputs(walks, applied):
    rng = random.Random(CORPUS_SEED)
    inputs = [ProgramGen(rng).program() for _ in range(CORPUS_SIZE)]
    inputs += [parse(f.read_text()) for f in sorted(PROGRAMS_DIR.glob("*.stg"))]
    split = checked = 0
    for p in inputs:
        freshen(p)
        check_scan(p)
        q = split_groups(p)
        if q is not p:
            split += 1
            check_scan(q)  # the scan it inherited
            check_scan(fresh_object(q))
        checked += check_lifts(q, walks, applied, measure=True)
    assert split > 300, split
    assert checked > 9_000, checked


def test_walk_agrees_with_reference_after_freshen(walks, applied):
    # Shadowing programs: freshen renames them, and the walk of what it
    # returns is compared, renamings at any depth included, and so are the
    # lifts of each that validates.  A renaming can make a program loop, so
    # none is evaluated.
    texts = [f.read_text() for f in sorted(PROGRAMS_DIR.glob("*.stg"))]
    rng = random.Random(CORPUS_SEED)
    texts += [print_program(ProgramGen(rng).program()) for _ in range(200)]
    renamed = lifted = checked = 0
    for text in renamings(texts, 3000, 11):
        try:
            p = parse(text)
            q = freshen(p)
        except (ParseError, ScopeError):
            continue
        if q is p:
            continue
        renamed += 1
        check_scan(q)
        split = split_groups(q)
        check_scan(fresh_object(split))
        if not syntax.validate(split):
            lifted += 1
            checked += check_lifts(split, walks, applied, measure=False)
    assert renamed > 400 and lifted > 400 and checked > 4_000, (renamed, lifted, checked)


def thunk_nest_text(n: int) -> str:
    """Thunk ``t{k}``'s body defines ``t{k+1}``, down to ``t{n}``, whose body
    defines and calls ``f``.  Each thunk is kept (C5) and ``f`` is lifted,
    so a lift rebuilds all ``n`` right-hand sides, one inside the next."""
    lines = ["main =", "  case 3 of { default x0 ->"]
    lines += [f"  let t{k} = thunk case +# x{k - 1} 1 of {{ default x{k} ->" for k in range(1, n + 1)]
    lines.append(f"  let f = \\ a -> +# a x{n} in f x0")
    lines += [f"  }} in case t{k} of {{ default r{k} -> +# r{k} x{k - 1} }}" for k in range(n, 0, -1)]
    lines.append("  }")
    return "\n".join(lines) + "\n"


def test_deep_lift_outputs_carry_reference_free_vars(walks):
    # Deeper than any corpus program: the nested families, whose forced
    # lifts rebuild kept right-hand sides, and thunk nests, whose lifts
    # rebuild a chain of right-hand sides each inside the last.  Each
    # output's stored free variables must be the reference's, found
    # bottom-up by the rewrite pass without a walk.
    texts = dict(nested_family_texts())
    texts |= {f"thunks-{n}": thunk_nest_text(n) for n in (8, 16, 32)}
    rebuilt = 0
    for name, text in texts.items():
        p = load_inline(text)
        plan, sites = plan_lifts(p), liftable_sites(p)
        before = list(walks)
        outputs = [lift_program(p)[0]]
        for chosen in (sites, sites[::2], sites[1::2], sites[:1], sites[-1:]):
            outputs.append(apply_lifts(plan, force_sites=frozenset(chosen)))
        assert walks == before, name
        old = {id(rhs) for e in reference.preorder(p) if type(e) is Let for _, rhs in e.group.binds}
        for q in outputs:
            check_free(q)
            rebuilt += sum(
                id(rhs) not in old
                for e in reference.preorder(q)
                if type(e) is Let
                for _, rhs in e.group.binds
            )
    assert rebuilt > 300, rebuilt
