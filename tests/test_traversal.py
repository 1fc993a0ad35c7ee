"""The pre-order the lifter and the growth index rely on, and depth.

Decision lists, oracle bitmask rows (the order of ``liftable_sites``) and
fresh parameter names all follow the pre-order of ``reference.preorder``,
which numbers the growth index's positions too, so these tests pin it
against the lifter's own visiting order and the index's numbering; and
every stage runs on nests far deeper than the recursion limit.
"""

import sys

import pytest

from liftlab.analysis import free_vars, scan_program, split_groups
from liftlab.cli import main as cli_main
from liftlab.lifter import lift_program, liftable_sites, plan_lifts
from liftlab.machine import evaluate, render_value
from liftlab.skeleton import closure_growth, growth_index, skeleton_sexpr
from liftlab.syntax import (
    MULTI_SHOT,
    App,
    AtomExpr,
    BindGroup,
    Case,
    Lambda,
    Let,
    Lit,
    PrimApp,
    Program,
    ScopeError,
    Thunk,
    TopBind,
    Var,
    freshen,
    parse,
    print_program,
    validate,
)

from conftest import forward_group_text
from reference import (
    bound_names,
    direct_growth,
    free_vars as reference_free_vars,
    growth_index as reference_index,
    occurrences,
    preorder,
    recursive,
    subexprs,
)


def _check_contract(p):
    nodes = preorder(p)
    s = scan_program(p)
    index = plan_lifts(p).index
    assert [id(n) for n in index.lets] == [id(n) for n in nodes if isinstance(n, Let)]
    assert index.spans == reference_index(p)[1]
    assert s.names == set(bound_names(p))
    binds = [bind for e in nodes if isinstance(e, Let) for bind in e.group.binds]
    # Every right-hand side under the roots carries its free variables.
    for _, rhs in binds:
        assert vars(rhs)["_free"] == reference_free_vars(rhs)
    assert s.known.keys() == {name for name, _ in binds}
    lets = [e.group.binders() for e in nodes if isinstance(e, Let)]
    _, decisions = lift_program(p, force_sites=frozenset())
    assert lets == [d.binders for d in decisions]
    rest = iter(lets)  # ordered subsequence: each `in` consumes the iterator
    assert all(site in rest for site in liftable_sites(p))


def test_contract_on_corpus(corpus):
    for p in corpus:
        _check_contract(p)
        _check_contract(lift_program(p)[0])


def test_contract_on_hand_programs(hand_programs):
    for p in hand_programs.values():
        _check_contract(p)
        _check_contract(lift_program(p)[0])


def test_walk_children_order():
    p = parse(
        "main = let f = \\ a -> a and g = \\ b -> b in "
        "case f 1 of { 1 -> g 2; default r -> +# r 3 }"
    )
    kinds = [type(e).__name__ for e in preorder(p)]
    assert kinds == ["Let", "AtomExpr", "AtomExpr", "Case", "App", "App", "PrimApp"]
    # The growth index numbers the same order: the let first, the case
    # fourth, both reaching to the end.
    case = p.main.body
    assert plan_lifts(p).index.spans == {id(p.main): (0, 7), id(case): (3, 7)}


def test_occurrences_are_the_node_own_names():
    assert occurrences(AtomExpr(Var("x"))) == ("x",)
    assert occurrences(AtomExpr(Lit(1))) == ()
    assert occurrences(App("f", (Lit(1), Var("y")))) == ("f", "y")
    assert occurrences(PrimApp("+#", (Var("a"), Var("b")))) == ("a", "b")
    assert occurrences(parse("main = let x = thunk 1 in x").main) == ()


def test_bound_names_scope_order():
    p = parse(
        "f a = let g = \\ b -> let h = \\ c -> c in h b and k = \\ d -> d in "
        "case g a of { 1 -> 2; default r -> r };\n"
        "main = f 1"
    )
    assert bound_names(p) == ["f", "a", "g", "b", "h", "c", "k", "d", "r"]


def _depth_chain(n: int) -> str:
    """Step k binds ``f{k} = \\ p{k} -> +# p{k} x{k-1}`` and scrutinises
    ``f{k} x{k-1}``: a let/case chain ``n`` steps deep."""
    lines = ["main =", "  case 3 of { default x0 ->"]
    for k in range(1, n + 1):
        lines.append(f"  let f{k} = \\ p{k} -> +# p{k} x{k - 1} in")
        lines.append(f"  case f{k} x{k - 1} of {{ default x{k} ->")
    lines.append(f"  x{n}")
    lines.append("  " + "}" * (n + 1))
    return "\n".join(lines) + "\n"


def _nest(kind: str, n: int) -> str:
    """A program ``n`` levels deep in one construct the parser opens: lets
    at their bodies, each binding a thunk; case scrutinees; parentheses;
    or lambda bodies, where step k's body defines step k + 1 and calls it,
    and the innermost returns ``a0``."""
    if kind == "let":
        return "main =\n" + "".join(f"let x{k} = thunk {k} in\n" for k in range(n)) + "x0\n"
    if kind == "case":
        alts = "".join(f" of {{ 1 -> 2; default d{k} -> d{k} }}" for k in range(n))
        return "main = " + "case " * n + "0" + alts + "\n"
    if kind == "paren":
        return "main = " + "(" * n + "+# 1 2" + ")" * n + "\n"
    heads = "".join(f"let f{k} = \\ a{k} -> " for k in range(n))
    return "main = " + heads + "a0" + "".join(f" in f{k} {k}" for k in reversed(range(n))) + "\n"


# Each nest's value, and whether its lift output prints flat: the printer
# indents each case and right-hand side one step further, so such a nest's
# text grows with the square of its depth (a 10,000-deep case nest prints
# some 1 GB).  Only the lambda nest lifts, every function to the top level.
NESTS = {"let": ("0", True), "case": ("0", False), "paren": ("3", True), "lambda": ("0", True)}


def _commands(path, capsys, dump_lifted: bool = True) -> dict[str, tuple[int, str, str]]:
    """Exit code, stdout and stderr of each command on ``path``."""
    commands = [["lift", "--eval"], ["dump-skeleton"]]
    if dump_lifted:
        commands.append(["dump-lifted"])
    runs = {}
    for name, *flags in commands:
        runs[name] = (cli_main([name, str(path), *flags]), *capsys.readouterr())
    return runs


@pytest.mark.parametrize("kind", sorted(NESTS))
def test_deep_nest_runs_every_stage_at_default_recursion_limit(kind, tmp_path, capsys):
    # 10,000 levels: no stage recurses, the parser included, so every
    # stage and every command runs at the default limit.
    value, flat = NESTS[kind]
    text = _nest(kind, 10_000)
    path = tmp_path / f"{kind}.stg"
    path.write_text(text)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        q = split_groups(freshen(parse(text)))
        assert validate(q) == []
        lifted, decisions = lift_program(q)
        results = [evaluate(q), evaluate(lifted)]
        if flat:
            assert parse(print_program(lifted)) == lifted
        runs = _commands(path, capsys, dump_lifted=flat)
    finally:
        sys.setrecursionlimit(old)
    assert [render_value(v) for v, _ in results] == [value, value]
    assert len(decisions) == (0 if kind in ("case", "paren") else 10_000)
    assert all(code == 0 and err == "" for code, _, err in runs.values())
    assert "agreement: yes" in runs["lift"][1]
    assert runs["dump-skeleton"][1].startswith("main: nil" if kind == "paren" else "main: (seq ")
    if flat:
        assert runs["dump-lifted"][1] == print_program(lifted)


@pytest.mark.parametrize("kind", sorted(NESTS))
def test_deep_nest_prints_and_reparses(kind, tmp_path, capsys):
    # 1,000 levels, so that what nests prints small.
    text = _nest(kind, 1_000)
    path = tmp_path / f"{kind}.stg"
    path.write_text(text)
    q = split_groups(freshen(parse(text)))
    lifted, _ = lift_program(q)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert parse(print_program(q)) == q
        assert parse(print_program(lifted)) == lifted
        runs = _commands(path, capsys)
    finally:
        sys.setrecursionlimit(old)
    assert all(code == 0 and err == "" for code, _, err in runs.values())
    assert runs["dump-lifted"][1] == print_program(lifted)


@pytest.mark.parametrize("n", [200, 220])
def test_deep_chain_lifts_at_default_recursion_limit(n):
    # Pin the default limit, so the depth the front end and the lifter
    # reach is what is measured.
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        p = split_groups(freshen(parse(_depth_chain(n))))
        _, decisions = lift_program(p)
    finally:
        sys.setrecursionlimit(old)
    assert len(decisions) == n
    assert all(d.lifted for d in decisions)


def test_scope_walk_headroom():
    # A 400-deep right-hand-side nest built from constructors: f{k}'s body
    # defines f{k+1} and calls it.  One host frame per level each.
    n = 400
    e = AtomExpr(Var(f"p{n}"))
    for k in range(n, 0, -1):
        rhs = Lambda(MULTI_SHOT, (f"p{k}",), e)
        e = Let(BindGroup(((f"f{k}", rhs),)), App(f"f{k}", (Var(f"p{k - 1}"),)))
    p = Program((), Case(AtomExpr(Lit(1)), (), ("p0", e)))
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        violations = validate(p)
        q = freshen(p)
    finally:
        sys.setrecursionlimit(old)
    assert violations == [] and q is p


def test_tables_need_no_recursion():
    # Built from constructors: the parser cannot nest this deep.  Step k
    # binds ``f{k} = \ p{k} -> +# p{k} y`` and scrutinises ``f{k} z``.
    n = 3000
    e = AtomExpr(Var(f"x{n}"))
    for k in range(n, 0, -1):
        rhs = Lambda(MULTI_SHOT, (f"p{k}",), PrimApp("+#", (Var(f"p{k}"), Var("y"))))
        body = Case(App(f"f{k}", (Var("z"),)), (), (f"x{k}", e))
        e = Let(BindGroup(((f"f{k}", rhs),)), body)
    root = Thunk(e)  # the walk keeps right-hand sides' free variables only
    around = Let(BindGroup((("r", root),)), AtomExpr(Var("r")))
    p = Program((TopBind("t", ("y", "z"), around),), AtomExpr(Lit(0)))
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        scan_program(p)
        index = growth_index(p)
        text = skeleton_sexpr(e, index)
        growth = closure_growth(frozenset({"q", "r"}), frozenset({"y"}), e, index)
    finally:
        sys.setrecursionlimit(old)
    # The let around e comes first, then e's lets, one per step.
    assert index.lets[0] is around and index.lets[1] is e
    rhss = [root] + [node.group.binds[0][1] for node in index.lets[1:]]
    assert len(rhss) == n + 1 and all("_free" in vars(rhs) for rhs in rhss)
    assert free_vars(root) == {"y", "z"}
    # e's nodes take positions 1 to 4n + 1, four per step: a let node,
    # its right-hand side's body, then a case node and its scrutinee.
    # Each let and case reaches to the end of e's nodes; r's closure
    # captures y and z, and every f{k} captures y.
    end = 4 * n + 2
    assert len(index.spans) == 2 * n + 1 and index.spans[id(around)] == (0, end + 1)
    for k, node in enumerate(index.lets[1:]):
        assert index.spans[id(node)] == (1 + 4 * k, end)
        assert index.spans[id(node.body)] == (3 + 4 * k, end)
    assert index.capturers == {"y": [0] + [1 + 4 * k for k in range(n)], "z": [0]}
    step = "(seq (seq (closure y) (scaled {0,*} nil)) (seq nil "
    assert text == step * n + "nil" + "))" * n
    assert growth == n


def test_free_vars_of_nested_lambdas_need_no_recursion():
    # Lambdas inside lambdas: f{k} = \ p{k} -> let f{k+1} = ... in f{k+1} p{k},
    # and the innermost body y p1 p{n} mentions the outermost parameter.
    n = 3000
    body = App("y", (Var("p1"), Var(f"p{n}")))
    for k in range(n, 0, -1):
        rhs = Lambda(MULTI_SHOT, (f"p{k}",), body)
        body = Let(BindGroup(((f"f{k}", rhs),)), App(f"f{k}", (Var(f"p{k - 1}"),)))
    p = Program((TopBind("t", ("y", "p0"), body),), AtomExpr(Lit(0)))
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        scan_program(p)
    finally:
        sys.setrecursionlimit(old)
    assert vars(rhs)["_free"] == {"y"}
    for _ in range(n - 1):
        rhs = rhs.body.group.binds[0][1]
        assert vars(rhs)["_free"] == {"y", "p1"}


def test_lift_needs_no_recursion():
    # ``_depth_chain(3000)`` built from constructors.  Each f{k} captures
    # only x{k-1}, one level up, so no closure deep in the chain holds the
    # binder being decided and closure_growth stays shallow.
    n = 3000
    e = AtomExpr(Var(f"x{n}"))
    for k in range(n, 0, -1):
        x = Var(f"x{k - 1}")
        rhs = Lambda(MULTI_SHOT, (f"p{k}",), PrimApp("+#", (Var(f"p{k}"), x)))
        body = Case(App(f"f{k}", (x,)), (), (f"x{k}", e))
        e = Let(BindGroup(((f"f{k}", rhs),)), body)
    p = Program((), Case(AtomExpr(Lit(3)), (), ("x0", e)))
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        lifted, decisions = lift_program(p)
        _, split_decisions = lift_program(split_groups(p))
    finally:
        sys.setrecursionlimit(old)
    # Decisions, not programs: AST ``==`` itself recurses.
    assert split_decisions == decisions
    assert len(decisions) == n and all(d.lifted for d in decisions)
    assert [(tb.name, tb.params) for tb in lifted.top_binds] == [
        (f"f{k}", (f"x{k - 1}_1", f"p{k}")) for k in range(1, n + 1)
    ]
    stack = [lifted.main]
    while stack:
        node = stack.pop()
        assert not isinstance(node, Let)
        stack += subexprs(node)


def test_split_groups_needs_no_recursion():
    # Each member depends on the next, so Tarjan's search runs 1,000 deep.
    n = 1000
    p = freshen(parse(forward_group_text(n)))
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        q = split_groups(p)
    finally:
        sys.setrecursionlimit(old)
    e, names = q.main.default[1], []
    while isinstance(e, Let):
        assert len(e.group.binds) == 1 and not recursive(e.group)
        names.append(e.group.binders()[0])
        e = e.body
    assert names == [f"g{k}" for k in range(n, 0, -1)]
    assert e == App("g1", (Var("y"),))


def _deep_nest(n: int, bottom) -> Program:
    """``case 3 of { default x0 -> <step 1> }``, where step k binds
    ``f{k} = \\ p{k} -> +# p{k} x{k-1}`` and scrutinises ``f{k} x{k-1}``
    with default ``x{k}``, down to ``bottom``: 2n + 1 levels, built from
    constructors, since the parser still recurses."""
    e = bottom
    for k in range(n, 0, -1):
        x = Var(f"x{k - 1}")
        rhs = Lambda(MULTI_SHOT, (f"p{k}",), PrimApp("+#", (Var(f"p{k}"), x)))
        body = Case(App(f"f{k}", (x,)), (), (f"x{k}", e))
        e = Let(BindGroup(((f"f{k}", rhs),)), body)
    return Program((), Case(AtomExpr(Lit(3)), (), ("x0", e)))


def _at_limit(fn, *args):
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        return fn(*args)
    finally:
        sys.setrecursionlimit(old)


DEPTH = 10_000
# The path of the bottom of ``_deep_nest(DEPTH, ...)``: main's default,
# then each step's let body and case default.
DEEP_PATH = "main/default" + "/in/default" * DEPTH


def _bottom(p: Program):
    """What ``_deep_nest(DEPTH, ...)`` holds at its bottom."""
    e = p.main.default[1]
    for _ in range(DEPTH):
        e = e.body.default[1]
    return e


def test_scope_walk_scan_and_split_need_no_recursion():
    # At the bottom, h calls g: the group splits, g outermost, so the
    # whole spine above it is rebuilt.
    g = Lambda(MULTI_SHOT, ("a",), PrimApp("+#", (Var("a"), Var(f"x{DEPTH}"))))
    h = Lambda(MULTI_SHOT, ("b",), App("g", (Var("b"),)))
    p = _deep_nest(DEPTH, Let(BindGroup((("h", h), ("g", g))), App("h", (Lit(1),))))
    assert _at_limit(freshen, p) is p
    assert _at_limit(validate, p) == []
    s = _at_limit(scan_program, p)
    q = _at_limit(split_groups, p)
    # main's case spans all 4 * DEPTH + 6 nodes: two, then four per step
    # (let, right-hand side body, case, scrutinee), then the bottom let's
    # four; one let per step and the bottom one.
    index = _at_limit(plan_lifts, p).index
    assert index.spans[id(p.main)] == (0, 4 * DEPTH + 6)
    assert len(index.lets) == DEPTH + 1 and index.lets[-1] is _bottom(p)
    assert len(s.known) == DEPTH + 2 and s.names == set(bound_names(p))
    assert q is not p and q.main.scrutinee is p.main.scrutinee
    bottom = _bottom(q)
    assert [bottom.group.binders(), bottom.body.group.binders()] == [("g",), ("h",)]
    assert bottom.group.binds[0][1] is g and bottom.body.group.binds[0][1] is h
    assert free_vars(h) == {"g"} and free_vars(g) == {f"x{DEPTH}"}
    split = scan_program(q)
    assert split is s
    # The split adds one let node at the bottom, g's outside h's.
    index = _at_limit(plan_lifts, q).index
    assert index.spans[id(q.main)] == (0, 4 * DEPTH + 7)
    assert len(index.lets) == DEPTH + 2
    assert index.lets[-2] is bottom and index.lets[-1] is bottom.body
    assert (split.known, split.as_arg, split.names) == (s.known, s.as_arg, s.names)
    assert _at_limit(split_groups, q) is q


def test_renaming_at_depth_needs_no_recursion():
    # The bottom binds f1 again: freshen renames it and its use, and
    # rebuilds the spine above; validate reports the name bound twice.
    inner = Lambda(MULTI_SHOT, ("q",), AtomExpr(Var("q")))
    p = _deep_nest(DEPTH, Let(BindGroup((("f1", inner),)), App("f1", (Var(f"x{DEPTH}"),))))
    violations = _at_limit(validate, p)
    assert [(v.path, v.tag, v.detail) for v in violations] == [
        (DEEP_PATH + "/let f1", "NonUniqueName", "f1")
    ]
    q = _at_limit(freshen, p)
    bottom = _bottom(q)
    assert bottom.group.binders() == ("f1_1",) and bottom.group.binds[0][1] is inner
    assert bottom.body == App("f1_1", (Var(f"x{DEPTH}"),))
    assert q.main.default[1].group is p.main.default[1].group
    with pytest.raises(ValueError, match="freshen"):
        _at_limit(split_groups, p)
    assert _at_limit(validate, q) == [] and _at_limit(split_groups, q) is q


def test_unbound_name_at_depth_needs_no_recursion():
    p = _deep_nest(DEPTH, AtomExpr(Var("zz")))
    violations = _at_limit(validate, p)
    assert [(v.path, v.tag, v.detail) for v in violations] == [
        (DEEP_PATH, "UnboundVariable", "zz")
    ]
    assert len(DEEP_PATH) == 12 + 11 * DEPTH
    assert DEEP_PATH.startswith("main/default/in/default/in/default")
    with pytest.raises(ScopeError, match="^unbound variable 'zz'$"):
        _at_limit(freshen, p)


def _captured_chain(n: int) -> Program:
    """``case 3 of { default y -> let g = \\ a -> +# a y in <chain> }``, where
    step k binds ``f{k} = \\ p{k} -> g p{k}`` and scrutinises ``f{k} 1``:
    every f{k} captures g, so deciding g reads the whole chain."""
    e = AtomExpr(Var(f"x{n}"))
    for k in range(n, 0, -1):
        rhs = Lambda(MULTI_SHOT, (f"p{k}",), App("g", (Var(f"p{k}"),)))
        body = Case(App(f"f{k}", (Lit(1),)), (), (f"x{k}", e))
        e = Let(BindGroup(((f"f{k}", rhs),)), body)
    g = Lambda(MULTI_SHOT, ("a",), PrimApp("+#", (Var("a"), Var("y"))))
    e = Let(BindGroup((("g", g),)), e)
    return Program((), Case(AtomExpr(Lit(3)), (), ("y", e)))


def _lift_at_limit(p, limit):
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        return lift_program(p)[1]
    finally:
        sys.setrecursionlimit(old)


def test_growth_needs_no_recursion():
    decisions = _lift_at_limit(_captured_chain(300), 1000)
    assert len(decisions) == 301 and all(d.lifted for d in decisions)
    p = _captured_chain(1000)
    decisions = _lift_at_limit(p, 1000)
    assert decisions == _lift_at_limit(p, 20000)
    assert len(decisions) == 1001 and all(d.lifted for d in decisions)
    # The explicit stack gives exactly what the reference recursion gives:
    # adding one more variable grows each of the 1,000 f closures by a word.
    let = p.main.default[1]
    added, removed = frozenset({"y", "q"}), frozenset({"g"})
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        growth = closure_growth(added, removed, let, plan_lifts(p).index)
    finally:
        sys.setrecursionlimit(old)
    sys.setrecursionlimit(20000)
    try:
        direct = direct_growth(added, removed, let, frozenset())
    finally:
        sys.setrecursionlimit(old)
    assert growth == direct == 1000


def test_evaluate_needs_no_recursion():
    # ``t{k} = thunk (case t{k-1} of { default y{k} -> +# y{k} 1 })``, each
    # let nested in the previous one's body: forcing the last thunk forces
    # all of them, so both the program and its evaluation are n deep.
    n = 3000
    e = Case(AtomExpr(Var(f"t{n}")), (), ("r", AtomExpr(Var("r"))))
    for k in range(n, 0, -1):
        inc = PrimApp("+#", (Var(f"y{k}"), Lit(1)))
        rhs = Thunk(Case(AtomExpr(Var(f"t{k - 1}")), (), (f"y{k}", inc)))
        e = Let(BindGroup(((f"t{k}", rhs),)), e)
    p = Program((), Let(BindGroup((("t0", Thunk(AtomExpr(Lit(0)))),)), e))
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        value, stats = evaluate(p)
    finally:
        sys.setrecursionlimit(old)
    assert render_value(value) == str(n)
    assert stats.closures_allocated == n + 1
    assert stats.words_allocated == 1 + 2 * n  # t0 stores nothing, t{k} one slot
    assert stats.steps == 5 * n + 6
