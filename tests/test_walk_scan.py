"""The scope walk's scan against :func:`liftlab.analysis.scan`.

The walk behind ``freshen`` and ``validate`` stores the scan that the
lifter, the interpreter and ``split_groups`` read; ``analysis.scan`` makes
the same scan for programs no walk has seen.  Two implementations of one
analysis must agree: on the same roots they find the same nodes (the same
objects, in the same order), occurrence facts and names, and store the
same free variables on every right-hand side.
"""

import random

from liftlab import analysis
from liftlab.analysis import split_groups
from liftlab.lifter import lift_program
from liftlab.syntax import (
    Let,
    ParseError,
    Program,
    ScopeError,
    _analyses,
    freshen,
    parse,
    print_program,
)

from conftest import CORPUS_SEED, CORPUS_SIZE, PROGRAMS_DIR, renamings
from progen import ProgramGen


def roots_of(p: Program) -> list:
    return [tb.body for tb in p.top_binds] + [p.main]


def check_walk_against_scan(p: Program) -> None:
    """Walk ``p`` (a program whose walk renames nothing) and compare what
    it stored with a scan of the same roots."""
    freshen(p)
    walked = _analyses(p)["scan"]
    rhss = [rhs for e in walked.nodes if type(e) is Let for _, rhs in e.group.binds]
    free = [vars(rhs)["_free"] for rhs in rhss]
    scanned = analysis.scan(roots_of(p))  # stores its own free variables
    assert [id(e) for e in walked.nodes] == [id(e) for e in scanned.nodes]
    assert walked.facts == scanned.facts
    tops = {name for tb in p.top_binds for name in (tb.name, *tb.params)}
    assert walked.names == scanned.names | tops
    assert [vars(rhs)["_free"] for rhs in rhss] == free


def fresh_object(p: Program) -> Program:
    """The same nodes in a new program object, which no walk has seen."""
    return Program(p.top_binds, p.main)


def test_walk_agrees_with_scan_on_corpus_programs_and_lift_outputs():
    rng = random.Random(CORPUS_SEED)
    inputs = [ProgramGen(rng).program() for _ in range(CORPUS_SIZE)]
    inputs += [parse(f.read_text()) for f in sorted(PROGRAMS_DIR.glob("*.stg"))]
    split = 0
    for p in inputs:
        check_walk_against_scan(p)
        q = split_groups(p)
        if q is not p:
            split += 1
            check_walk_against_scan(fresh_object(q))
        check_walk_against_scan(fresh_object(lift_program(q)[0]))
    assert split > 300, split


def test_walk_agrees_with_scan_after_freshen():
    # Shadowing programs: freshen renames them, and the walk of what it
    # returns is compared, renamings at any depth included.
    texts = [f.read_text() for f in sorted(PROGRAMS_DIR.glob("*.stg"))]
    rng = random.Random(CORPUS_SEED)
    texts += [print_program(ProgramGen(rng).program()) for _ in range(200)]
    renamed = 0
    for text in renamings(texts, 3000, 11):
        try:
            p = parse(text)
            q = freshen(p)
        except (ParseError, ScopeError):
            continue
        if q is p:
            continue
        renamed += 1
        check_walk_against_scan(q)
        check_walk_against_scan(fresh_object(split_groups(q)))
    assert renamed > 400, renamed
