"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time

from liftlab.analysis import cardinality
from liftlab.lifter import LiftConfig, lift_program, liftable_sites
from liftlab.machine import enumerate_lift_subsets, evaluate, value_key
from liftlab.skeleton import closure_growth, growth_index
from liftlab.syntax import INF, Lambda, Let, Program, validate

from conftest import PROGRAMS_DIR, load_inline
from progen import random_disjoint_sets
from reference import bound_names, direct_growth


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {status} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_loop_example_lift(hand_programs):
    n = 1000
    p = hand_programs["countdown"]
    started = time.perf_counter()
    lifted, decisions = lift_program(p)
    d = next(x for x in decisions if x.binders == ("g",))
    value_before, stats_before = evaluate(p)
    value_after, stats_after = evaluate(lifted)
    elapsed = time.perf_counter() - started
    before, after = stats_before.per_binder["g"], stats_after.per_binder["g"]
    ok = (
        d.lifted
        and before.words == n * (1 + 1)
        and before.allocations == n
        and after.words == 0
        and value_key(value_before) == value_key(value_after)
        and elapsed < 1.0
    )
    report(
        1,
        ok,
        f"loop helper lifted; its site went {before.words} -> "
        f"{after.words} words at N={n} in {elapsed:.3f}s",
    )


def test_criterion_2_growth_rejection_and_forced_cost(hand_programs):
    p = hand_programs["tally"]
    _, decisions = lift_program(p)
    d = next(x for x in decisions if x.binders == ("g",))
    rejected = (not d.lifted) and d.reason == "ClosureGrowth" and d.predicted_net_words == INF

    deltas = {}
    tally = (PROGRAMS_DIR / "tally.stg").read_text()
    for n in (500, 1000):
        pn = load_inline(tally.replace("1000", str(n)))
        forced, _ = lift_program(pn, LiftConfig(check_closure_growth=False))
        _, s0 = evaluate(pn)
        _, s1 = evaluate(forced)
        deltas[n] = s1.words_allocated - s0.words_allocated
    linear = (
        deltas[500] == 500 - 3
        and deltas[1000] == 1000 - 3
        and deltas[1000] - deltas[500] == 500
    )
    ok = rejected and deltas[500] > 0 and deltas[1000] > 0 and linear
    report(
        2,
        ok,
        f"default rejects with ClosureGrowth(inf); forced lift costs {deltas[500]} words "
        f"at N=500 and {deltas[1000]} at N=1000 (one word per helper thunk)",
    )


def test_criterion_3_growth_unit_triple(hand_programs):
    results = {}
    for name in ("growth_shared", "growth_multishot", "growth_balanced"):
        _, decisions = lift_program(hand_programs[name])
        results[name] = next(x for x in decisions if x.binders == ("f",))
    shared = results["growth_shared"]
    multi = results["growth_multishot"]
    balanced = results["growth_balanced"]
    ok = (
        shared.lifted
        and shared.predicted_net_words == -3
        and (not multi.lifted)
        and multi.predicted_net_words == INF
        and balanced.lifted
        and balanced.predicted_net_words == -4
        and balanced.predicted_net_words <= 0
    )
    report(
        3,
        ok,
        f"predictions: shared={shared.predicted_net_words}, multishot=inf (rejected), "
        f"balanced={balanced.predicted_net_words} (growths +1/-1 cancel)",
    )


def estimator_mismatches(programs, rng) -> tuple[int, int]:
    """Criterion 4's comparison: per program, 50 disjoint (added, removed)
    pairs drawn from its bound names, and per pair and root
    ``closure_growth`` against the reference recursion.  The growth index is
    built here, not read from the program's plan, so that a slot rule
    replaced after a plan still shows.  Returns (comparisons, mismatches)."""
    comparisons = mismatches = 0
    for p in programs:
        tops = p.top_names()
        roots = [tb.body for tb in p.top_binds] + [p.main]
        index = growth_index(p)
        pool = bound_names(p)
        for _ in range(50):
            added, removed = random_disjoint_sets(rng, pool)
            for e in roots:
                estimate = closure_growth(added, removed, e, index)
                mismatches += estimate != direct_growth(added, removed, e, tops)
                comparisons += 1
    return comparisons, mismatches


def test_criterion_4_estimator_equivalence(corpus, hand_programs):
    # The corpus draws first, so its pairs do not depend on programs/.  The
    # corpus has no recursive group; programs/ brings the closures that
    # capture their own binder.
    programs = [*corpus, *hand_programs.values()]
    started = time.perf_counter()
    comparisons, mismatches = estimator_mismatches(programs, random.Random(424242))
    elapsed = time.perf_counter() - started
    ok = len(corpus) >= 1000 and mismatches == 0 and elapsed < 30.0
    report(
        4,
        ok,
        f"{comparisons} index/direct comparisons over {len(programs)} programs, "
        f"{mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_5_semantics_preservation(corpus, hand_programs):
    mismatches = 0
    checked = 0
    for p in list(hand_programs.values()) + corpus:
        lifted, _ = lift_program(p)
        value_before, _ = evaluate(p)
        value_after, _ = evaluate(lifted)
        checked += 1
        if value_key(value_before) != value_key(value_after):
            mismatches += 1
    report(
        5,
        mismatches == 0,
        f"{checked} programs evaluated before and after lifting, {mismatches} mismatches",
    )


def lambda_cards(p):
    out = {}

    def walk(e):
        if isinstance(e, Let):
            for name, rhs in e.group.binds:
                if isinstance(rhs, Lambda):
                    out[name] = cardinality(rhs)
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


def annotations_are_exact(p) -> bool:
    _, stats = evaluate(p)
    for name, card in lambda_cards(p).items():
        profile = stats.per_binder[name].per_allocation_entries
        for entries in profile:
            if entries < card.min_entries:
                return False
            if card.max_entries != INF and entries > card.max_entries:
                return False
    return True


def test_criterion_6_conservativeness(corpus, hand_programs):
    violations = 0
    checked = 0
    for name, p in hand_programs.items():
        assert annotations_are_exact(p), f"{name} annotations are not exact"
    for p in list(hand_programs.values()) + corpus:
        lifted, _ = lift_program(p)
        _, before = evaluate(p)
        _, after = evaluate(lifted)
        checked += 1
        if after.words_allocated > before.words_allocated:
            violations += 1
    report(
        6,
        violations == 0,
        f"words(lifted) <= words(original) on {checked} programs, {violations} violations",
    )


def test_criterion_7_oracle_agreement(corpus, hand_programs):
    violations = 0
    checked = 0
    skipped = 0
    for p in list(hand_programs.values()) + corpus:
        sites = liftable_sites(p)
        if len(sites) > 4:
            skipped += 1
            continue
        rows = enumerate_lift_subsets(p, max_groups=4)
        empty_words = rows[0].words
        _, decisions = lift_program(p)
        chosen = sorted(
            "+".join(d.binders) for d in decisions if d.lifted and d.binders in sites
        )
        chosen_row = next(r for r in rows if sorted(r.subset) == chosen)
        checked += 1
        if chosen_row.words > empty_words:
            violations += 1
    report(
        7,
        violations == 0 and checked > 0,
        f"chosen subset never above the empty subset on {checked} programs "
        f"({skipped} had more than 4 liftable groups), {violations} violations",
    )


def test_criterion_8_required_set_spot_check(hand_programs):
    _, decisions = lift_program(hand_programs["callweb"])
    g = next(d for d in decisions if d.binders == ("g",))
    h = next(d for d in decisions if d.binders == ("h",))
    i = next(d for d in decisions if d.binders == ("i",))
    ok = (
        i.lifted
        and i.required_set == ()
        and g.lifted
        and g.required_set == ("x",)
        and h.lifted
        and h.required_set == ("y",)
    )
    report(
        8,
        ok,
        f"after splitting, g needs {set(g.required_set)} (expanded through i) "
        f"and h needs {set(h.required_set)}",
    )


def test_criterion_9_structural_invariants(corpus, hand_programs):
    from test_lifter import check_lifted_occurrences

    bad_validate = 0
    bad_occurrence = 0
    partial_groups = 0
    checked = 0
    for p in list(hand_programs.values()) + corpus:
        lifted, decisions = lift_program(p)
        checked += 1
        if validate(Program(lifted.top_binds, lifted.main)):  # walked, not the mark
            bad_validate += 1
            continue
        lifted_binders = {b for d in decisions if d.lifted for b in d.binders}
        for d in decisions:
            group = set(d.binders)
            if group & lifted_binders and not group <= lifted_binders:
                partial_groups += 1
        try:
            check_lifted_occurrences(lifted, decisions)
        except AssertionError:
            bad_occurrence += 1
    ok = bad_validate == 0 and bad_occurrence == 0 and partial_groups == 0
    report(
        9,
        ok,
        f"{checked} lifted outputs validate, lifted binders appear only as fully "
        f"applied heads, groups lift whole ({bad_validate}/{bad_occurrence}/"
        f"{partial_groups} violations)",
    )
